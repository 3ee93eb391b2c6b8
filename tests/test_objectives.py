import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsubmax as rs
from conftest import (KINDS, ValueOnly, make_instance, value_table,
                      worst_monotonicity_violation,
                      worst_submodularity_violation)

def test_vertex_cover_cost_examples():
    assert rs.vertex_cover_cost([2, 1, 0], 6).costs.tolist() == [1.0, 1.0, 1.0]
    assert rs.vertex_cover_cost([10], 6).costs.tolist() == [5.0]
    # negative q just inflates every cost
    assert rs.vertex_cover_cost([0, 3], -1).costs.tolist() == [2.0, 5.0]


def test_vertex_cover_value_examples(three_node_cover):
    graph, oracle, _ = three_node_cover
    weighted = rs.VertexCoverOracle(graph, np.ones(3))
    assert weighted.value([0]) == 3.0
    assert weighted.value([2]) == 1.0
    assert weighted.value([0, 2]) == 3.0
    assert weighted.value([]) == 0.0
    assert oracle.value([0]) == 3.0


def test_vertex_cover_marginal_override_matches_default(three_node_cover):
    _, oracle, _ = three_node_cover
    for S in ([], [0], [1], [1, 2]):
        for u in range(3):
            if u in S:
                continue
            expect = oracle.value(sorted(S + [u])) - oracle.value(S)
            assert oracle.marginal(u, S) == pytest.approx(expect, abs=1e-12)


def test_facility_location_rejects_negative_similarities():
    # value([0]) would read -0.35, below value(()) == 0.
    with pytest.raises(ValueError, match="non-negative"):
        rs.FacilityLocationOracle([[-0.5, -0.2], [-0.2, -0.5]])


def test_vertex_cover_rejects_negative_weights(three_node_cover):
    graph, _, _ = three_node_cover
    with pytest.raises(ValueError):
        rs.VertexCoverOracle(graph, [-1.0, 1.0, 1.0])


def reference_from_edges(edges):
    """Set-and-dict construction that ``from_edges`` must reproduce."""
    clean = {(a, b) for a, b in edges if a != b}
    nodes = sorted({a for a, _ in clean} | {b for _, b in clean})
    dense = {orig: i for i, orig in enumerate(nodes)}
    adj = [set() for _ in nodes]
    for a, b in clean:
        adj[dense[a]].add(dense[b])
    return len(nodes), tuple(tuple(sorted(s)) for s in adj), tuple(nodes)


def test_from_edges_matches_reference_and_csr():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        ids = rng.choice([-7, 0, 3, 10**12, 2**62] + list(range(100, 100 + n)), size=n)
        m = int(rng.integers(0, 3 * n))
        edges = [(int(ids[a]), int(ids[b])) for a, b in rng.integers(0, n, (m, 2))]
        g = rs.DirectedGraph.from_edges(edges)
        n, out, ids = reference_from_edges(edges)
        assert (g.n, g.original_ids) == (n, ids)
        assert g.edges() == [(u, v) for u in range(n) for v in out[u]]
        assert all(type(u) is int for e in g.edges() for u in e)
        # CSR arrays agree with the reference; the reverse index is their
        # transpose; a graph built from the forward arrays alone derives
        # the same reverse arrays.
        ptr, idx = g.out_csr
        assert [tuple(idx[ptr[u]:ptr[u + 1]]) for u in range(n)] == list(out)
        rptr, ridx = g.in_csr
        ins = [tuple(v for v in range(n) if u in out[v]) for u in range(n)]
        assert [tuple(ridx[rptr[u]:rptr[u + 1]]) for u in range(n)] == ins
        bare = rs.DirectedGraph(g.out_csr, g.original_ids)
        for a, b in zip(bare.out_csr + bare.in_csr, g.out_csr + g.in_csr):
            assert a.tolist() == b.tolist()
        assert g.out_degrees().tolist() == [len(s) for s in out]
    # A copy with other edges derives its own reverse arrays, not the original's.
    flipped = dataclasses.replace(g, out_csr=g.in_csr)
    assert flipped.out_csr[1].tolist() == g.in_csr[1].tolist()
    assert flipped.in_csr[1].tolist() == g.out_csr[1].tolist()


def test_directed_graph_id_compaction():
    graph = rs.DirectedGraph.from_edges([(10, 20), (20, 10), (10, 10), (10, 20)])
    assert graph.n == 2
    assert graph.original_ids == (10, 20)
    assert graph.edges() == [(0, 1), (1, 0)]  # self-loop and duplicate dropped


def test_similarity_from_features_examples():
    M = rs.similarity_from_features(np.array([[0.0], [1.0]]))
    assert M[0, 0] == 1.0 and M[1, 1] == 1.0
    assert M[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert np.allclose(M, M.T)
    with pytest.raises(ValueError):
        rs.similarity_from_features(np.array([[np.nan]]))


def test_similarity_entries_in_unit_interval():
    rng = np.random.default_rng(5)
    M = rs.similarity_from_features(rng.normal(size=(12, 3)))
    assert M.min() > 0.0
    assert M.max() <= 1.0
    assert np.all(np.diag(M) == 1.0)


def test_facility_location_examples():
    oracle = rs.FacilityLocationOracle(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert oracle.value([0]) == pytest.approx(0.75)
    assert oracle.value([0, 1]) == pytest.approx(1.0)
    assert oracle.value([]) == 0.0


def test_logdet_examples():
    assert rs.LogDetOracle(np.array([[1.0]]), 1.0).value([0]) == pytest.approx(
        math.log(2.0), abs=1e-12)
    assert rs.LogDetOracle(np.eye(2), 1.0).value([0, 1]) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-12)
    assert rs.LogDetOracle(np.eye(2), 1.0).value([]) == 0.0


def test_logdet_degenerate_matrix():
    M = np.array([[-2.0]])  # I + M not positive definite
    with pytest.raises(rs.DegenerateMatrixError):
        rs.LogDetOracle(M, 1.0).value([0])
    with pytest.raises(ValueError):
        rs.LogDetOracle(np.eye(2), alpha=0.0)


def test_saturating_coverage_examples():
    one_word = rs.SaturatingCoverageOracle([(0, 0, 4.0), (0, 1, 9.0)], 2)
    assert one_word.value([0]) == pytest.approx(2.0)
    assert one_word.value([0, 1]) == pytest.approx(math.sqrt(13.0))
    two_words = rs.SaturatingCoverageOracle([(0, 0, 4.0), (1, 1, 9.0)], 2)
    assert two_words.value([0, 1]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        rs.SaturatingCoverageOracle([(0, 0, -1.0)], 2)
    with pytest.raises(ValueError):
        rs.SaturatingCoverageOracle([(0, 5, 1.0)], 2)


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_normalization_and_structure(kind):
    """Exhaustive monotonicity + submodularity on small random instances."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(5):
        inst = make_instance(rng, kind, 6, 3)
        assert inst.oracle.value(()) == 0.0
        table = value_table(inst.oracle.value, 6)
        assert worst_monotonicity_violation(table, 6) <= 1e-9
        assert worst_submodularity_violation(table, 6) <= 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_marginal_matches_value_difference(kind):
    rng = np.random.default_rng(42)
    inst = make_instance(rng, kind, 8, 3)
    for _ in range(50):
        size = int(rng.integers(0, 6))
        S = sorted(int(x) for x in rng.choice(8, size=size, replace=False))
        u = int(rng.choice([x for x in range(8) if x not in S]))
        direct = inst.oracle.value(sorted(S + [u])) - inst.oracle.value(S)
        rel = max(1.0, abs(direct))
        assert abs(inst.oracle.marginal(u, S) - direct) <= 1e-9 * rel


def test_reservoir_fill_phase_keeps_everything():
    est = rs.ReservoirEstimator(5, seed=0)
    for i in range(3):
        est.update(i)
    assert est.items == [0, 1, 2]
    assert est.seen == 3


def test_reservoir_capacity_zero_stays_empty():
    est = rs.ReservoirEstimator(0, seed=0)
    for i in range(10):
        est.update(i)
    assert est.items == []
    assert est.seen == 10


def test_reservoir_size_invariant():
    est = rs.ReservoirEstimator(4, seed=3)
    for i in range(100):
        est.update(i)
        assert len(est.items) == min(est.seen, 4)
        assert len(set(est.items)) == len(est.items)


def test_reservoir_uniform_retention():
    # capacity 1 over a 20-element stream: each element should be retained
    # in roughly 1/20 of seeded runs (binomial, deterministic given seeds)
    runs = 5000
    counts = np.zeros(20, dtype=int)
    for seed in range(runs):
        est = rs.ReservoirEstimator(1, seed=seed)
        for i in range(20):
            est.update(i)
        counts[est.items[0]] += 1
    expect = runs / 20.0
    sigma = math.sqrt(runs * (1 / 20) * (19 / 20))
    assert np.all(np.abs(counts - expect) <= 3.5 * sigma)


def test_reservoir_facility_estimate():
    M = np.array([[1.0, 0.5], [0.5, 1.0]])
    est = rs.ReservoirEstimator(2, seed=0)
    est.update(0)
    est.update(1)
    # full reservoir reproduces the exact value
    assert rs.reservoir_facility_estimate(est, lambda i: M[i], [0]) == pytest.approx(
        rs.FacilityLocationOracle(M).value([0]))
    assert rs.reservoir_facility_estimate(est, lambda i: M[i], []) == 0.0
    empty = rs.ReservoirEstimator(2, seed=0)
    with pytest.raises(ValueError):
        rs.reservoir_facility_estimate(empty, lambda i: M[i], [0])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("vertex-cover", "facility", "logdet", "coverage", "modular",
                        "surrogate", "weak-surrogate")),
       st.booleans(), st.integers(0, 2**32 - 1), st.integers(2, 9),
       st.lists(st.integers(0, 8), max_size=8))
def test_set_state_gains_match_value_differences(kind, fallback, seed, n, adds):
    oracle = make_instance(np.random.default_rng(seed), kind, n, 3).oracle
    if fallback:
        oracle = ValueOnly(oracle)
    state, S = oracle.empty(), []
    for u in (a % n for a in adds):
        oracle.add(state, u)
        if u not in S:
            S.append(u)
    cands = np.arange(n)
    got = oracle.gains(state, cands)
    assert got.shape == (n,)
    base = oracle.value(S)
    for u in range(n):
        if u in S:
            assert got[u] == 0.0
        else:
            direct = oracle.value(S + [u]) - base
            assert abs(got[u] - direct) <= 1e-9 * max(1.0, abs(direct))


def test_logdet_rejects_asymmetric_kernel():
    # both kernels pass one symmetry rule, checked in row blocks of 256
    M = np.eye(300)
    M[0, 299] = 0.5
    for make in (rs.LogDetOracle, lambda K: rs.SlcInstance(K, 3)):
        with pytest.raises(ValueError, match="must be symmetric"):
            make(M)
        make(M + M.T)
    with pytest.raises(ValueError, match="positive semidefinite"):
        rs.SlcInstance(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)


@pytest.mark.parametrize("make", [
    lambda bad: rs.FacilityLocationOracle(np.array([[1.0, bad], [bad, 1.0]])),
    lambda bad: rs.VertexCoverOracle(rs.DirectedGraph.from_edges([(0, 1)]), [1.0, bad]),
    lambda bad: rs.LogDetOracle(np.array([[1.0, bad], [bad, 1.0]])),
    lambda bad: rs.ModularOracle([1.0, bad]),
    lambda bad: rs.SaturatingCoverageOracle([(0, 0, bad), (0, 1, 1.0)], 2),
], ids=["facility", "vertex-cover", "logdet", "modular", "saturating-coverage"])
def test_oracles_reject_non_finite_data(make):
    make(0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


def test_logdet_gains_reject_degenerate_kernel():
    oracle = rs.LogDetOracle(np.array([[-2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(rs.DegenerateMatrixError):
        oracle.gains(oracle.empty(), np.arange(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=8))
def test_modular_oracle_value_is_sum(weights, size):
    oracle = rs.ModularOracle(weights)
    idx = list(range(min(size, len(weights))))
    assert oracle.value(idx) == pytest.approx(sum(weights[i] for i in idx))


def test_input_shape_errors():
    with pytest.raises(ValueError, match=r"edges must be \(src, dst\) pairs"):
        rs.DirectedGraph.from_edges([(1, 2, 3)])
    # a label is never rounded: (0, 2.9) would otherwise read as an edge to 2
    for edges, bad in (([(0, 2.9)], "2.9"), ([(1.0, 2)], "1.0"), ([(0, "1")], "'1'")):
        with pytest.raises(ValueError, match=rf"^edge label must be a finite int .*, got {bad}$"):
            rs.DirectedGraph.from_edges(edges)
    assert rs.DirectedGraph.from_edges([(np.int64(4), 2)]).original_ids == (2, 4)
    graph = rs.DirectedGraph.from_edges([(1, 2), (2, 3)])
    for weights in ([1.0, 1.0], [1.0] * 4):
        with pytest.raises(ValueError, match="weights length must match node count"):
            rs.VertexCoverOracle(graph, weights)


def test_from_edges_rejects_labels_outside_int64():
    for bad in (2**63, -2**63 - 1, 10**30):
        for edges in ([(0, bad)], [(np.int64(0), bad)]):
            with pytest.raises(ValueError, match=rf"^edge label must be .*, got {bad}$"):
                rs.DirectedGraph.from_edges(edges)
    graph = rs.DirectedGraph.from_edges([(-2**63, 2**63 - 1)])
    assert graph.original_ids == (-2**63, 2**63 - 1)
    # an (m, 2) integer array is taken as it is, and gives the same graph as its pairs
    arr = np.array([[5, 3], [3, 5], [5, 5], [5, 3], [-1, 3]], dtype=np.int32)
    a, b = rs.DirectedGraph.from_edges(arr), rs.DirectedGraph.from_edges(arr.tolist())
    assert (a.original_ids, a.edges()) == (b.original_ids, b.edges())
    assert a.original_ids == (-1, 3, 5) and a.edges() == [(0, 1), (1, 2), (2, 1)]
