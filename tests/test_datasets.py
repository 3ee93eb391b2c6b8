import json
import math
import re

import numpy as np
import pytest

import regsubmax.datasets as ds
from regsubmax import DirectedGraph
from regsubmax.objectives import csr


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


@pytest.mark.parametrize("n, p, seed", [(2500, 0.004, 3), (300, 0.02, 7)])
def test_random_digraph_row_blocks_give_the_one_shot_graph(n, p, seed, tmp_path):
    # n = 2500 draws two row blocks; the file is the one an n x n draw writes
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    one_shot = DirectedGraph(csr(n, *np.nonzero(mask)), tuple(range(n)))
    ds.write_edge_list(one_shot, tmp_path / "one_shot.txt")
    ds.write_edge_list(ds.random_digraph(n, p, seed), tmp_path / "blocks.txt")
    assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "one_shot.txt").read_bytes()


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


# Each loader with a file whose line 3, after a comment and a blank line, holds
# a bad token; the last element is the text the message names that line with.
LOADERS = {
    "edge-list": (ds.load_edge_list, "1 2 # ok\n2 x\n", "expected 'src dst', got '2 x'"),
    "matrix": (ds.load_matrix_csv, "1,2\n3,x\n", "malformed row '3,x'"),
    "similarity": (ds.load_similarity_matrix, "1,0\n0,x\n", "malformed row '0,x'"),
    "score-table": (ds.load_score_table, "0,0,1\n0,1.5,1\n", "malformed triple '0,1.5,1'"),
    "cost-vector": (ds.load_cost_vector, "0.5\n--1\n", "malformed row '--1'"),
    "stream-order": (lambda p: ds.load_stream_order(p, 4), "0\n1_000\n",
                     "non-integer id '1_000'"),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_name_the_first_bad_line(name, tmp_path):
    load, lines, message = LOADERS[name]
    first, bad = lines.splitlines()
    p = tmp_path / "data.txt"
    p.write_text(f"# comment\n\n{bad}\n{first}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{p}:3: {message}')}$"):
        load(p)
    # the same line after a good one: the first good line is no shield
    p.write_text(f"{first}\n# comment\n{bad}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{p}:3: {message}')}$"):
        load(p)


def test_loaders_take_trailing_comments_and_check_field_counts(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("0,0,2 # word 0\n\n1,1,0.5#\n")
    assert ds.load_score_table(p) == [(0, 0, 2.0), (1, 1, 0.5)]
    p.write_text("2 # first\n0\n1#x\n")
    assert ds.load_stream_order(p, 3) == [2, 0, 1]
    p.write_text("1,2\n3,4\n5\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:3: malformed row '5'$"):
        ds.load_matrix_csv(p)
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match=r":1: non-integer id '0 1'$"):
        ds.load_stream_order(p, 3)


@pytest.mark.parametrize("load", [ds.load_matrix_csv, ds.load_similarity_matrix,
                                  ds.load_cost_vector],
                         ids=["matrix", "similarity", "cost-vector"])
@pytest.mark.parametrize("text", ["", "# comment only\n\n"], ids=["empty", "comments"])
def test_matrix_loaders_reject_files_without_data(load, text, tmp_path):
    p = tmp_path / "none.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: no data$"):
        load(p)
    # an empty stream order is still a valid (empty) replay
    assert ds.load_stream_order(p, 3) == []


def test_load_edge_list_rejects_labels_outside_int64(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("0 1\n0 9223372036854775808\n")
    with pytest.raises(ValueError, match=r"big\.txt:2: expected 'src dst', got"):
        ds.load_edge_list(p)
    p.write_text("-9223372036854775808 9223372036854775807\n")
    assert ds.load_edge_list(p).original_ids == (-2**63, 2**63 - 1)


def test_load_edge_list_matches_from_edges_on_python_pairs(tmp_path):
    """Differential: the numpy reader against a Python parse of the same file."""
    rng = np.random.default_rng(11)
    p = tmp_path / "g.txt"
    for trial in range(40):
        pool = np.concatenate([rng.integers(-5, 30, 12), [2**62, 2**62 - 1, -2**62]])
        m = int(rng.integers(1, 60))
        lines = []
        for a, b in rng.choice(pool, (m, 2)):
            if rng.random() < 0.2:
                b = a  # self-loop
            lines.append(f"{a}\t{b}" + (" # note" if rng.random() < 0.3 else ""))
            if rng.random() < 0.2:
                lines.append(lines[-1])  # duplicate
            if rng.random() < 0.15:
                lines.append(rng.choice(["", "   ", "# comment", "#1 2"]))
        p.write_text("\n".join(lines) + "\n")
        pairs = [tuple(int(x) for x in line.split("#")[0].split())
                 for line in p.read_text().splitlines() if line.split("#")[0].strip()]
        if all(a == b for a, b in pairs):
            with pytest.raises(ValueError, match="no edges"):
                ds.load_edge_list(p)
            continue
        got, want = ds.load_edge_list(p), DirectedGraph.from_edges(pairs)
        assert got.original_ids == want.original_ids
        for a, b in zip(got.out_csr + got.in_csr, want.out_csr + want.in_csr):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("bad", ["7 x", "7 8 9"], ids=["token", "field-count"])
def test_first_bad_line_is_found_in_few_parses(bad, tmp_path, monkeypatch):
    # a bisection over prefixes of the data lines, not one parse per line
    p = tmp_path / "edges.txt"
    lines = ["# header"] + [f"{i} {i + 1}" for i in range(1000)]
    lines[700] = bad
    lines[900] = "1 y"
    p.write_text("\n".join(lines) + "\n")
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: parses.append(1) or loadtxt(*a, **kw))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:701: expected 'src dst', "
                                         rf"got '{bad}'$"):
        ds.load_edge_list(p)
    assert len(parses) <= 2 + math.ceil(math.log2(1000))
