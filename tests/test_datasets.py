import json

import numpy as np
import pytest

import regsubmax.datasets as ds
from regsubmax import DirectedGraph


def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n\n1 2\n1 3\n2 3\n")
    g = ds.load_edge_list(p)
    assert g.n == 3
    assert g.original_ids == (1, 2, 3)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_load_edge_list_dedupes_and_drops_self_loops(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("5 5\n7 9\n7 9\n9 7\n")
    g = ds.load_edge_list(p)
    # node 5 only appears in a dropped self-loop, so it is not kept
    assert g.original_ids == (7, 9)
    assert g.edges() == [(0, 1), (1, 0)]
    assert list(g.out_degrees()) == [1, 1]


def test_load_edge_list_malformed_reports_lineno(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n3 4 5\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        ds.load_edge_list(p)
    p2 = tmp_path / "bad2.txt"
    p2.write_text("1 x\n")
    with pytest.raises(ValueError, match="bad2.txt:1"):
        ds.load_edge_list(p2)


def test_edge_list_round_trip(tmp_path):
    g = DirectedGraph.from_edges([(10, 20), (20, 30), (10, 30)])
    p = tmp_path / "g.txt"
    ds.write_edge_list(g, p, comment="generated\nfor a test")
    text = p.read_text()
    assert text.startswith("# generated\n# for a test\n")
    back = ds.load_edge_list(p)
    assert back.edges() == g.edges()
    assert back.n == g.n


def test_random_digraph_deterministic_and_loopless():
    a = ds.random_digraph(40, 0.1, seed=3)
    b = ds.random_digraph(40, 0.1, seed=3)
    c = ds.random_digraph(40, 0.1, seed=4)
    assert a.edges() == b.edges()
    assert a.edges() != c.edges()
    assert a.n == 40  # isolated nodes preserved
    assert all(u != v for u, v in a.edges())
    with pytest.raises(ValueError):
        ds.random_digraph(0, 0.1)
    with pytest.raises(ValueError):
        ds.random_digraph(5, 1.5)


def test_random_digraph_edge_density():
    g = ds.random_digraph(100, 0.05, seed=1)
    m = sum(g.out_degrees())
    expect = 0.05 * 100 * 99
    assert abs(m - expect) < 5 * np.sqrt(expect)


def test_matrix_csv_round_trip(tmp_path):
    M = np.array([[1.0, 0.25], [0.25, 1.0]])
    p = tmp_path / "m.csv"
    ds.save_matrix_csv(M, p)
    back = ds.load_matrix_csv(p)
    assert np.array_equal(back, M)


def test_load_matrix_csv_header_flag(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        ds.load_matrix_csv(p)
    M = ds.load_matrix_csv(p, header=True)
    assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


def test_load_matrix_rejects_non_finite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,nan\n2.0,3.0\n")
    with pytest.raises(ValueError):
        ds.load_matrix_csv(p)


def test_load_similarity_requires_square(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,0.5,0.1\n0.5,1.0,0.2\n")
    with pytest.raises(ValueError):
        ds.load_similarity_matrix(p)
    # feature matrices may be rectangular
    X = ds.load_matrix_csv(p)
    assert X.shape == (2, 3)


def test_load_score_table(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("# word,element,value\n0,0,4\n0,1,1\n1,1,2.5\n")
    triples = ds.load_score_table(p)
    assert triples == [(0, 0, 4.0), (0, 1, 1.0), (1, 1, 2.5)]


def test_load_score_table_rejects_negative_with_lineno(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("0,0,4\n0,1,-1\n")
    with pytest.raises(ValueError, match="scores.csv:2"):
        ds.load_score_table(p)
    p2 = tmp_path / "short.csv"
    p2.write_text("0,0\n")
    with pytest.raises(ValueError, match="short.csv:1"):
        ds.load_score_table(p2)


def test_load_score_table_rejects_non_finite_with_lineno(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("0,1,1.5\n0,0,nan\n")
    with pytest.raises(ValueError, match=r"scores\.csv:2: score nan"):
        ds.load_score_table(p)
    p.write_text("0,1,1.5\n0,0,inf\n")
    with pytest.raises(ValueError, match=r"scores\.csv:2: score inf"):
        ds.load_score_table(p)


def test_load_cost_vector(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0.5\n0.0\n1.25\n")
    assert np.array_equal(ds.load_cost_vector(p), [0.5, 0.0, 1.25])
    p.write_text("0.5\n-1.0\n")
    with pytest.raises(ValueError):
        ds.load_cost_vector(p)


def test_stream_order_file_round_trip(tmp_path):
    p = tmp_path / "order.txt"
    ds.write_stream_order([2, 0, 1], p)
    assert ds.load_stream_order(p, 3) == [2, 0, 1]
    assert ds.load_stream_order(p, n=3) == [2, 0, 1]
    with pytest.raises(ValueError):
        ds.load_stream_order(p, n=2)
    p.write_text("0\n0\n")
    with pytest.raises(ValueError, match="repeated"):
        ds.load_stream_order(p, 2)


def test_resolve_stream_order(tmp_path):
    assert ds.resolve_stream_order("natural", 4) == [0, 1, 2, 3]
    s1 = ds.resolve_stream_order("shuffled", 30, seed=5)
    s2 = ds.resolve_stream_order("shuffled", 30, seed=5)
    s3 = ds.resolve_stream_order("shuffled", 30, seed=6)
    assert s1 == s2
    assert sorted(s1) == list(range(30))
    assert s1 != s3
    p = tmp_path / "order.txt"
    ds.write_stream_order([1, 0], p)
    assert ds.resolve_stream_order(f"file:{p}", 2) == [1, 0]
    with pytest.raises(ValueError):
        ds.resolve_stream_order("sorted", 4)


def test_save_generated_matrix_writes_sidecar(tmp_path):
    M = np.eye(2)
    p = tmp_path / "kernel.csv"
    ds.save_generated_matrix(M, p, {"kind": "slc", "n": 2, "seed": 7})
    assert np.array_equal(ds.load_matrix_csv(p), M)
    meta = json.loads((tmp_path / "kernel.csv.meta.json").read_text())
    assert meta == {"kind": "slc", "n": 2, "seed": 7}


@pytest.mark.parametrize("text", ["", "# comment only\n", "5 5\n7 7\n"],
                         ids=["empty", "comments", "self-loops"])
def test_load_edge_list_rejects_lists_without_edges(text, tmp_path):
    p = tmp_path / "none.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=r"none\.txt: no edges between distinct nodes"):
        ds.load_edge_list(p)


def test_load_score_table_reports_malformed_triple(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("0,0,2\n0,x,1\n")
    with pytest.raises(ValueError, match=r"scores\.csv:2: malformed triple '0,x,1'"):
        ds.load_score_table(p)


def test_load_stream_order_reports_non_integer_line(tmp_path):
    p = tmp_path / "order.txt"
    p.write_text("2\n# skipped\n0\nx1\n")
    with pytest.raises(ValueError, match=r"order\.txt:4: non-integer id 'x1'"):
        ds.load_stream_order(p, 3)
