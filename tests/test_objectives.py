import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsubmax as rs
from regsubmax.objectives import half_logdet
from conftest import (KINDS, ValueOnly, cover_add_reference, csr, make_instance,
                      random_digraph_dense, value_table, worst_monotonicity_violation,
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


def test_directed_graph_rejects_raw_csr_rows_with_a_loop_or_a_repeat():
    # a cover counts a row's heads as that many distinct other nodes; a repeat
    # or a loop made VertexCoverOracle.gains disagree with marginal
    bad = [csr(3, np.array([0, 0, 1]), np.array([1, 1, 1])),  # repeated head and a loop
           csr(3, np.array([0, 0]), np.array([2, 2])),  # repeated head
           csr(3, np.array([1]), np.array([1])),  # loop
           (np.array([0, 2, 2, 2]), np.array([2, 1]))]  # heads descending
    for out_csr in bad:
        with pytest.raises(ValueError, match=r"^out_csr rows must list their heads strictly"):
            rs.DirectedGraph(out_csr, (0, 1, 2))
    # ascending within each row; across rows the heads may fall
    graph = rs.DirectedGraph((np.array([0, 2, 3, 3]), np.array([1, 2, 0])), (0, 1, 2))
    assert graph.edges() == [(0, 1), (0, 2), (1, 0)]


def test_csr_takes_array_likes():
    # Python lists once repeated under ``src * n``: 12 heads under a ptr ending at 3
    ptr, heads = csr(3, [0, 0, 1], [1, 1, 1])
    assert ptr.tolist() == [0, 2, 3, 3] and heads.tolist() == [1, 1, 1]


@pytest.mark.parametrize("out_csr", [
    (np.array([0, 1, 2, 2]), np.array([1, 5])),  # a head past n failed deep in numpy
    (np.array([0, 1, 2, 2]), np.array([1, -1])),  # a negative head
    (np.array([1, 1, 2, 2]), np.array([1])),  # ptr not from 0
    (np.array([0, 2, 1, 2]), np.array([1, 2])),  # ptr falling
    (np.array([0, 1, 1, 1]), np.array([1, 2])),  # more heads than ptr[-1]
    (np.array([0, 1, 2, 3]), np.array([1, 2])),  # fewer
    (np.array([], dtype=np.intp), np.array([], dtype=np.intp)),  # no ptr at all
    (np.array([0, 1, 1, 1]), np.array([1.5])),  # a float head was kept as an edge to 1.5
    (np.array([0.0, 1.0, 1.0, 1.0]), np.array([1])),  # a float ptr failed in np.repeat
], ids=["head-past-n", "negative-head", "ptr-from-1", "ptr-falling", "extra-heads",
        "missing-heads", "empty-ptr", "float-heads", "float-ptr"])
def test_directed_graph_rejects_a_malformed_raw_csr(out_csr):
    # the cover oracle slices both CSRs with no bounds check of its own
    with pytest.raises(ValueError, match=r"^out_csr must have ptr rising from 0"):
        rs.DirectedGraph(out_csr, (0, 1, 2))


def test_directed_graph_needs_one_label_per_node():
    # two labels for a 3-node graph were accepted, to mislabel or fail far later
    out_csr = (np.array([0, 1, 1, 1]), np.array([1]))
    for labels in [(0, 1), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match=r"^original_ids must hold one label per node"):
            rs.DirectedGraph(out_csr, labels)
    assert rs.DirectedGraph(out_csr, (0, 1, 2)).edges() == [(0, 1)]


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
    # a kernel outside the PSD cone fails at construction; a singular one passes
    for M in (np.array([[-2.0]]), np.diag([1.0, -0.5])):
        with pytest.raises(ValueError, match="^kernel matrix must be positive semidefinite$"):
            rs.LogDetOracle(M, 1.0)
    assert rs.LogDetOracle(np.diag([1.0, 0.0])).value([0, 1]) == pytest.approx(math.log(2.0))
    # within the PSD rule's jitter, a large alpha still leaves I + alpha*M_S indefinite
    with pytest.raises(rs.DegenerateMatrixError):
        rs.LogDetOracle(np.diag([1.0, -1e-9]), 2e9).value([1])
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reservoir_estimate_is_facility_location_on_the_sampled_rows(seed):
    rng = np.random.default_rng(seed)
    n = 40
    M = rs.similarity_from_features(rng.normal(size=(n, 2)))
    for capacity in (1, 9, 31):
        est = rs.ReservoirEstimator(capacity, seed=seed)
        for i in rng.permutation(n):
            est.update(int(i))
        sampled = rs.FacilityLocationOracle(np.stack([M[i] for i in est.items]))
        for S in ([], [5], rng.choice(n, 6, replace=False).tolist()):
            assert rs.reservoir_facility_estimate(est, lambda i: M[i], S) == sampled.value(S)


@pytest.mark.parametrize("bad, rule", [(-0.5, "non-negative"), (np.nan, "finite")])
def test_reservoir_estimate_checks_the_sampled_rows(bad, rule):
    M = np.array([[1.0, 0.5], [bad, 1.0]])
    est = rs.ReservoirEstimator(2).update(0).update(1)
    with pytest.raises(ValueError, match=f"^similarity matrix must be {rule}"):
        rs.reservoir_facility_estimate(est, lambda i: M[i], [0])


@pytest.mark.parametrize("shape", [(5, 3), (2, 7), (1, 4)])
def test_facility_location_rows_are_clients_and_columns_facilities(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    M = rng.uniform(0.0, 1.0, shape)
    oracle = rs.FacilityLocationOracle(M)
    assert oracle.n == shape[1]

    def brute(S):  # mean over clients of the best similarity among S, 0 for S empty
        return sum(max([0.0] + [M[i, j] for j in S]) for i in range(shape[0])) / shape[0]

    for S in ([], [0], [shape[1] - 1, 0], list(range(shape[1]))):
        assert oracle.value(S) == pytest.approx(brute(S), rel=1e-12, abs=1e-15)
        for u in range(shape[1]):
            assert oracle.marginal(u, S) == pytest.approx(brute(S + [u]) - brute(S),
                                                          rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("shape", [(48, 48), (13, 13), (7, 30), (61, 5), (1, 3)])
def test_facility_location_sums_to_the_floats_of_numpy_mean(shape):
    # a sum and one division is how numpy's mean reduces, so no float moves
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    M = rng.uniform(0.0, 1.0, shape)
    oracle = rs.FacilityLocationOracle(M)
    for size in (0, 0, 1, 2, 3, 5):
        S = [int(x) for x in rng.choice(shape[1], min(size, shape[1]), replace=False)]
        best = M[:, S].max(axis=1, initial=0.0)
        assert oracle.value(S) == float(best.mean())
        for u in range(shape[1]):
            assert oracle.marginal(u, S) == float(np.maximum(M[:, u] - best, 0.0).mean())


def test_half_logdet_and_the_log_dets_built_on_it():
    assert half_logdet(np.zeros((0, 0))) == 0.0
    assert half_logdet(np.diag([4.0, 9.0])) == pytest.approx(math.log(6.0))
    for A in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 0.0]), -np.eye(1)):
        assert half_logdet(A) == -math.inf
    with pytest.raises(ValueError, match="^kernel matrix must be positive semidefinite$"):
        rs.LogDetOracle(np.diag([1.0, -2.0, 1.0]))
    oracle = rs.LogDetOracle(np.diag([1.0, -1e-9, 1.0]), 2e9)
    assert oracle.value([2, 0]) == pytest.approx(2.0 * math.log(1.0 + 2e9))
    with pytest.raises(rs.DegenerateMatrixError,
                       match=r"^I \+ alpha\*M_S not positive definite for S=\[0, 1\]$"):
        oracle.value([1, 0, 1])
    slc = rs.SlcInstance(np.diag([4.0, 1.0, 9.0]), 2)
    assert slc.log_density((2, 0)) == pytest.approx(math.log(6.0))
    assert slc.log_density((0, 1, 2)) == -math.inf


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
    near = M + M.T
    near[299, 0] += 1e-12  # not exactly symmetric, but allclose to its transpose
    for make in (rs.LogDetOracle, lambda K: rs.SlcInstance(K, 3)):
        with pytest.raises(ValueError, match="must be symmetric"):
            make(M)
        make(M + M.T)
        make(near)
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
    with pytest.raises(ValueError, match="^kernel matrix must be positive semidefinite$"):
        rs.LogDetOracle(np.array([[-2.0, 0.0], [0.0, 1.0]]))
    oracle = rs.LogDetOracle(np.diag([-1e-9, 1.0]), 2e9)  # inside the jitter
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
    # a uint64 array holds labels past int64: they fail as their pairs do
    for bad in (2**63, 2**63 + 5, 2**64 - 1):
        with pytest.raises(ValueError, match=rf"^edge label must be .*, got {bad}$"):
            rs.DirectedGraph.from_edges(np.array([[2, 1], [bad, 1]], np.uint64))
    top = rs.DirectedGraph.from_edges(np.array([[2**63 - 1, 1]], np.uint64))
    assert (top.original_ids, top.edges()) == ((1, 2**63 - 1), [(1, 0)])


def _reference_csr(n, rows):
    """CSR arrays of a reference adjacency: (ptr, heads), both intp."""
    ptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.intp)
    return ptr, np.array([v for r in rows for v in r], dtype=np.intp)


def _assert_reference_graph(g, pairs):
    """``g`` is the reference graph of ``pairs``: labels, and both CSRs as intp."""
    n, out, ids = reference_from_edges(pairs)
    ins = [[u for u in range(n) if v in out[u]] for v in range(n)]
    assert g.original_ids == ids and all(type(x) is int for x in g.original_ids)
    for got, want in zip(g.out_csr + g.in_csr, _reference_csr(n, out) + _reference_csr(n, ins)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [None, np.int32, np.int64], ids=["pairs", "int32", "int64"])
def test_from_edges_dedupes_many_repeats_like_the_reference(dtype):
    """Differential at scale: 20k edges over 200 labels, thousands of them
    repeats and some self-loops, labels spread over the whole dtype range;
    then no edges, and only self-loops, which both give the n = 0 graph."""
    rng = np.random.default_rng(29)
    info = np.iinfo(dtype or np.int64)
    labels = np.concatenate([[info.min, info.max, 0],
                             rng.integers(info.min, info.max, 197, endpoint=True)])
    arr = labels[rng.integers(0, labels.size, (20_000, 2))]
    assert len(set(map(tuple, arr.tolist()))) < 17_000
    for edges in (arr, arr[:0], np.repeat(labels[:9, None], 2, axis=1)):
        pairs = [tuple(e) for e in edges.tolist()]
        g = rs.DirectedGraph.from_edges(pairs if dtype is None else edges.astype(dtype))
        _assert_reference_graph(g, pairs)
    assert (g.n, [a.tolist() for a in g.out_csr + g.in_csr]) == (0, [[0], [], [0], []])


@pytest.mark.parametrize("dtype", [None, np.int32, np.int64, np.uint64],
                         ids=["pairs", "int32", "int64", "uint64"])
@pytest.mark.parametrize("extra, table", [(0, True), (1, False)], ids=["span-2x", "span-2x+1"])
def test_label_presence_table_matches_unique(monkeypatch, dtype, extra, table):
    """Labels spanning exactly twice their count (repeats counted) are
    compacted by a presence table, one more by ``np.unique``; both give the
    reference graph."""
    rng = np.random.default_rng(41 + extra)
    m = 150
    lo = 3 if dtype == np.uint64 else -37
    hi = lo + 4 * m - 1 + extra  # 2m labels over hi - lo + 1 values
    src, dst = rng.integers(lo, hi, m, endpoint=True), rng.integers(lo, hi, m, endpoint=True)
    src[:2], dst[:2] = (lo, hi), (hi, lo)
    dst[src == dst] = lo + (src[src == dst] == lo)  # no self-loop
    src[-5:], dst[-5:] = src[:5], dst[:5]  # repeats still count as labels
    pairs = list(zip(src.tolist(), dst.tolist()))
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    edges = pairs if dtype is None else np.stack([src, dst], 1).astype(dtype)
    g = rs.DirectedGraph.from_edges(edges)
    assert (not calls) == table
    _assert_reference_graph(g, pairs)


@pytest.mark.parametrize("dtype, lo, hi, m", [(np.int8, -100, 100, 60),
                                               (np.int16, -20_000, 20_000, 10_001)])
def test_presence_table_takes_narrow_labels_spanning_past_their_dtype(monkeypatch, dtype, lo, hi,
                                                                      m):
    """Labels whose span, hi - lo, exceeds the dtype's signed maximum still
    take the presence table, and must give the graph of their int64 copy."""
    rng = np.random.default_rng(43)
    src, dst = rng.integers(lo, hi, m, endpoint=True), rng.integers(lo, hi, m, endpoint=True)
    src[:2], dst[:2] = (lo, hi), (hi, lo)
    dst[src == dst] = lo + (src[src == dst] == lo)  # no self-loop
    assert hi - lo > np.iinfo(dtype).max and hi - lo < 4 * m
    edges = np.stack([src, dst], 1)
    want = rs.DirectedGraph.from_edges(edges)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    g = rs.DirectedGraph.from_edges(edges.astype(dtype))
    assert not calls and g.original_ids == want.original_ids
    for got, w in zip(g.out_csr + g.in_csr, want.out_csr + want.in_csr):
        assert got.dtype == np.intp and np.array_equal(got, w)


@pytest.mark.parametrize("n", [256, 257, 65536, 65537])
def test_in_csr_is_the_reference_transpose_where_the_head_dtype_narrows(n):
    """The reverse CSR sorts heads cast to the smallest type holding n - 1
    (uint8 to 256, uint16 to 65536); it must match the sorted-keys transpose."""
    rng = np.random.default_rng(n)
    src, dst = rng.integers(0, n, 3000), rng.integers(0, n - 1, 3000)
    dst += dst >= src
    src[:2], dst[:2] = (0, n - 1), (n - 1, 0)  # the largest head and tail
    keys = np.unique(src * n + dst)
    g = rs.DirectedGraph(rs.objectives.key_csr(n, keys), tuple(range(n)))
    want = csr(n, keys // n, keys % n) + csr(n, keys % n, keys // n)
    for got, w in zip(g.out_csr + g.in_csr, want):
        assert got.dtype == np.intp and np.array_equal(got, w)


@pytest.mark.parametrize("ptr_dtype, head_dtype", [(np.int32, np.uint8), (np.int64, np.uint64),
                                                   (np.uint32, np.int16), (np.intp, np.uint32),
                                                   (np.uint64, np.int32)])
def test_raw_csr_of_any_int_dtype_gets_the_old_reverse_arrays(ptr_dtype, head_dtype):
    # a uint64 ptr once failed in np.repeat with a cast error naming no input
    rng = np.random.default_rng(8)
    n = 90
    mask = rng.random((n, n)) < 0.1
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    ptr, heads = csr(n, src, dst)
    g = rs.DirectedGraph((ptr.astype(ptr_dtype), heads.astype(head_dtype)), tuple(range(n)))
    for got, want in zip(g.in_csr, csr(n, dst, src)):  # the reverse arrays as csr built them
        assert got.dtype == np.intp and np.array_equal(got, want)


def _cover_reference(graph, weights, S, u=None):
    """g(S), or u's marginal against S, from frozensets summed in ascending order."""
    ptr, heads = graph.out_csr
    cover = [frozenset([v, *heads[ptr[v]:ptr[v + 1]].tolist()]) for v in range(graph.n)]
    covered = frozenset().union(*[cover[v] for v in S])
    nodes = sorted(covered if u is None else cover[u] - covered)
    return float(weights[nodes].sum()) if nodes else 0.0


@pytest.mark.parametrize("n", [1, 7, 8, 9, 70, 130])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
def test_vertex_cover_masks_match_a_frozenset_reference(n, unit):
    rng = np.random.default_rng(n + 1000 * unit)
    graph = random_digraph_dense(rng, n, 0.15)
    weights = np.ones(n) if unit else rng.uniform(0.2, 1.5, n)
    oracle = rs.VertexCoverOracle(graph, None if unit else weights)
    for _ in range(60):
        # numpy ids, as a numpy stream passes them, past the 63 bits of an int64 mask
        S = [*rng.choice(n, int(rng.integers(0, min(n, 6) + 1)), replace=False)]
        assert oracle.value(S) == _cover_reference(graph, weights, S)
        for u in rng.choice(n, min(n, 5), replace=False):
            assert oracle.marginal(u, S) == _cover_reference(graph, weights, S, u)


def test_vertex_cover_oracle_memory_is_linear_in_the_graph():
    # no table of one n-bit mask per node: that would be 1.25 GB at n = 100k
    n = 100_000
    rng = np.random.default_rng(5)
    src, dst = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    # a raw CSR lists distinct heads other than the row itself
    pairs = np.unique(src[src != dst] * n + dst[src != dst])
    graph = rs.DirectedGraph(csr(n, pairs // n, pairs % n), tuple(range(n)))
    tracemalloc.start()
    try:
        oracle = rs.VertexCoverOracle(graph)
        state = oracle.node_state(None, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    u = int(src[0])
    assert oracle.node_gain(state, u, (0,)) == oracle.marginal(u, (0,)) == _cover_reference(
        graph, np.ones(n), (0,), u)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
def test_cover_greedy_state_matches_the_gather_reference_bit_for_bit(unit, seed):
    rng = np.random.default_rng(seed + 10 * unit)
    n = int(rng.integers(100, 400))
    src, dst = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    keep = (src != dst) & (rng.random(n) < 0.8)[dst]  # about a fifth of nodes: no in-edge
    pairs = np.unique(src[keep] * n + dst[keep])
    graph = rs.DirectedGraph(csr(n, pairs // n, pairs % n), tuple(range(n)))
    assert np.any(np.diff(graph.in_csr[0]) == 0)
    oracle = rs.VertexCoverOracle(graph, None if unit else rng.uniform(0.2, 1.5, n))
    got, want = oracle.empty(), oracle.empty()
    assert len(got) == (2 if unit else 3)
    if unit:  # the reference keeps each node's uncovered count
        want = (*want, (graph.out_degrees() + 1).astype(np.int32))
    members, seen = set(), set()
    for u in rng.integers(0, n, n // 2).tolist():
        seen.add("member" if u in members else "covered" if want[0][u] else "new")
        oracle.add(got, u)
        cover_add_reference(oracle, want, u)
        members.add(u)
        for a, b in zip(got, want):  # covered, gain, and left unless unit
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if unit:  # a unit gain is the uncovered count of the node's cover
            assert np.array_equal(got[1], want[2].astype(float))
    assert seen == {"member", "covered", "new"}


FACILITY_FORMS = ("facility-rectangular", "facility-transposed-view", "facility-uint32")


def _facility_matrix(rng, form, n):
    """A rows x n M with ties and zeros: rectangular, a transposed (F-ordered)
    view, or with rows * n past 65536, so a state's offsets need 4 bytes."""
    rows = 65536 // n + 1 if form == "facility-uint32" else int(rng.integers(1, 80))
    shape = (n, rows) if form == "facility-transposed-view" else (rows, n)
    M = np.where(rng.random(shape) < 0.3, rng.integers(0, 3, shape) / 3.0, rng.random(shape))
    return M.T if form == "facility-transposed-view" else M


@pytest.mark.parametrize("kind", KINDS + ("unit-cover",) + FACILITY_FORMS)
def test_node_state_gains_match_marginals_bit_for_bit(kind):
    # along stream-grown paths, as the streaming ladder grows its sets
    rng = np.random.default_rng(KINDS.index(kind) if kind in KINDS else 99)
    for _ in range(6):
        n = int(rng.integers(3, 40))
        if kind == "unit-cover":
            oracle = rs.VertexCoverOracle(random_digraph_dense(rng, n, 0.2))
        elif kind in FACILITY_FORMS:
            M = _facility_matrix(rng, kind, n)
            assert M.flags.c_contiguous == (kind != "facility-transposed-view")
            oracle = rs.FacilityLocationOracle(M)
        else:
            oracle = make_instance(rng, kind, n, 3).oracle
        counter = rs.CountingOracle(oracle)
        for u in range(n):
            assert counter.node_gain(None, u, ()) == oracle.value((u,))
        path = [(None, ())]
        for u in (int(x) for x in rng.permutation(n)):
            state, S = path[-1]
            for v in range(n):
                assert counter.node_gain(state, v, S) == oracle.marginal(v, S)
            if len(S) < 6 and rng.random() < 0.5:
                path.append((counter.node_state(state, u), S + (u,)))
        # growing a child leaves its parent's state as it was
        for state, S in path:
            assert [counter.node_gain(state, v, S) for v in range(n)] == [
                oracle.marginal(v, S) for v in range(n)]
        if isinstance(oracle, rs.FacilityLocationOracle):
            # one offset per client, in the fewest bytes that hold rows * n - 1
            rows = oracle.M.shape[0]
            size = 1 if rows * n <= 2**8 else 2 if rows * n <= 2**16 else 4
            assert size == 4 or kind != "facility-uint32"
            assert all(type(state) is bytes and len(state) == rows * size for state, _ in path[1:])
        assert counter.value_calls == 0
        assert counter.marginal_calls == n + n * n + n * len(path)


@pytest.mark.parametrize("edges", [[(1, 2, 3), (4, 5, 6)], [(1, 2), (3,)], [(1, 2, 3), (4,)],
                                   [(1,)], [()], [1, 2], np.array([1, 2, 3, 4])])
def test_from_edges_rejects_rows_that_are_not_pairs(edges):
    # an even label count is not enough: (1, 2, 3), (4, 5, 6) must not read as 1->2, 3->4, 5->6;
    # nor is a flat list or array of labels
    with pytest.raises(ValueError, match=r"^edges must be \(src, dst\) pairs$"):
        rs.DirectedGraph.from_edges(edges)
    with pytest.raises(ValueError, match=r"^edges must be \(src, dst\) pairs$"):
        rs.DirectedGraph.from_edges(iter(edges))


@pytest.mark.parametrize("unit", [True, False])
def test_cover_value_is_the_weighed_node_state_bit_for_bit(unit):
    # value builds one bool mask from the CSR rows; the node states OR int masks
    rng = np.random.default_rng(21 + unit)
    for n in (1, 9, 70, 300):
        graph = random_digraph_dense(rng, n, rng.uniform(0.02, 0.3))
        oracle = rs.VertexCoverOracle(graph, None if unit else rng.uniform(0.0, 3.0, n))
        for _ in range(20):
            S = rng.integers(0, n, int(rng.integers(0, 12))).tolist()  # any order, repeats
            want = oracle._weigh(functools.reduce(oracle.node_state, S, 0))
            assert oracle.value(S) == want
            assert oracle.value(tuple(np.array(S, dtype=np.int32))) == want
