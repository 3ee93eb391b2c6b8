"""The greedy kernel against an eager reference loop, and its call counts."""

import numpy as np
import pytest

import regsubmax as rs
from conftest import eager_greedy
from regsubmax.core import greedy


def unit_cover_instance(rng, n, k):
    src = rng.integers(0, n, 4 * n)
    dst = rng.integers(0, n, 4 * n)
    graph = rs.DirectedGraph.from_edges(zip(src.tolist(), dst.tolist()))
    cost = rs.vertex_cover_cost(graph.out_degrees(), q=2)
    return rs.RegularizedInstance(rs.VertexCoverOracle(graph), cost, k)


def logdet_instance(rng, n, k):
    M = rs.similarity_from_features(rng.normal(size=(n, 3)))
    oracle = rs.LogDetOracle(M, alpha=rng.uniform(0.5, 2.0))
    return rs.RegularizedInstance(oracle, rs.ModularCost(rng.uniform(0, 0.4, n)), k)


def facility_instance(rng, n, k):
    M = rs.similarity_from_features(rng.normal(size=(n, 2)))
    oracle = rs.FacilityLocationOracle(M)
    return rs.RegularizedInstance(oracle, rs.ModularCost(rng.uniform(0, 0.05, n)), k)


BUILDERS = {"unit-cover": unit_cover_instance, "logdet": logdet_instance,
            "facility": facility_instance}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_kernel_matches_eager_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(8):
        n = int(rng.integers(10, 40))
        inst = BUILDERS[kind](rng, n, int(rng.integers(1, 9)))
        cands = [int(u) for u in rng.choice(n, size=n // 2, replace=False)]
        for c in (None, cands):
            assert greedy(inst, [1.0] * inst.k, c) == eager_greedy(inst, False, c)
            assert rs.distorted_greedy(inst, c) == eager_greedy(inst, True, c)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_counting_oracle_counts_one_call_per_candidate(kind):
    rng = np.random.default_rng(5)
    inst = BUILDERS[kind](rng, 30, 6)
    for algo, distorted in ((rs.vanilla_greedy, False), (rs.distorted_greedy, True)):
        kernel, kc = inst.counted()
        reference, rc = inst.counted()
        assert algo(kernel) == eager_greedy(reference, distorted)
        assert kc.marginal_calls == rc.marginal_calls > 0
        assert kc.value_calls == rc.value_calls == 0


def test_integer_array_candidates_in_any_order_pick_as_their_sorted_list():
    # a strictly ascending array in range skips the sort; any other takes set_ids' path
    rng = np.random.default_rng(17)
    inst = logdet_instance(rng, 20, 5)
    want = greedy(inst, [1.0] * 5, [2, 3, 7, 11, 19])
    for ids in (np.array([2, 3, 7, 11, 19]), np.array([19, 3, 11, 2, 7]),
                np.array([2, 3, 7, 11, 19], np.uint8), np.array([19, 11, 7, 3, 2], np.int32)):
        before = ids.copy()
        assert greedy(inst, [1.0] * 5, ids) == want
        assert np.array_equal(ids, before)  # the caller's array is never written


@pytest.mark.parametrize("ids, named", [
    ([4, 1, 4], "4 repeated"), ([1, 4, 4, 6], "4 repeated"), ([3, -1, 5], "-1 outside"),
    ([-2, 0, 1], "-2 outside"), ([0, 2, 20], "20 outside"), ([25, 3, 1], "25 outside")])
def test_bad_integer_array_candidates_raise_naming_the_id(ids, named):
    inst = logdet_instance(np.random.default_rng(18), 20, 3)
    for dtype in (np.int64, np.int32):
        with pytest.raises(ValueError, match=rf"^element id {named}"):
            greedy(inst, [1.0] * 3, np.array(ids, dtype=dtype))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_kernel_makes_no_add_after_the_last_weight_picks(kind):
    rng = np.random.default_rng(19 + len(kind))
    for _ in range(6):
        inst = BUILDERS[kind](rng, 30, int(rng.integers(1, 7)))
        counted, counter = inst.counted()
        adds, add = [], counter.add
        counter.add = lambda st, u: (adds.append(u), add(st, u))
        picks = greedy(counted, [1.0] * inst.k)
        assert picks == eager_greedy(inst, False)
        # plain greedy fills the budget only if its last weight picks
        assert adds == (picks[:-1] if len(picks) == inst.k else picks)
