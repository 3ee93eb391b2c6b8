import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsubmax as rs
from regsubmax.baselines import SieveLadder
from regsubmax.streaming import (FixedThreshold, SetNode, _fill, _step,
                                 geometric_index_range, threshold_index_range)
from conftest import (eager_threshold_reference, ladder_reference, make_instance,
                      sieve_reference, threshold_reference, KINDS)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_factor_closed_form_values():
    assert rs.approx_factor(1.0) == pytest.approx(GOLDEN ** -2, abs=1e-12)
    assert rs.approx_factor(1.0) == pytest.approx(0.3819660113, abs=1e-9)
    assert rs.approx_factor(0.0) == 0.0
    assert rs.approx_factor(0.75) == pytest.approx(0.3486122, abs=1e-7)
    with pytest.raises(ValueError):
        rs.approx_factor(-0.1)


def test_multiplier_closed_form_values():
    assert rs.cost_multiplier(1.0) == pytest.approx(GOLDEN ** 2, abs=1e-12)
    assert rs.cost_multiplier(0.0) == 1.0
    assert rs.cost_multiplier(0.75) == pytest.approx(2.1513878, abs=1e-7)
    with pytest.raises(ValueError):
        rs.cost_multiplier(-1e-9)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-6, max_value=10.0))
def test_factor_times_multiplier_is_r(r):
    assert rs.approx_factor(r) * rs.cost_multiplier(r) == pytest.approx(
        r, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0))
def test_factor_range_and_multiplier_floor(r):
    assert 0.0 <= rs.approx_factor(r) <= 0.5
    assert rs.cost_multiplier(r) >= 1.0


def test_factor_is_increasing():
    grid = np.linspace(0.0, 20.0, 500)
    vals = [rs.approx_factor(float(r)) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_surplus_identity():
    # r - factor(r) equals multiplier(r) - r - 1 (same closed form)
    for r in (0.1, 0.5, 1.0, 2.0, 7.0):
        lhs = r - rs.approx_factor(r)
        rhs = rs.cost_multiplier(r) - r - 1.0
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx((math.sqrt(4 * r * r + 1) - 1) / 2, abs=1e-12)


def test_threshold_state_derived_multiplier():
    bank = FixedThreshold(1.0, 2, 0.3)
    assert bank.multiplier == pytest.approx(GOLDEN ** 2, abs=1e-12)
    # one copy, open at the empty root from the first element
    assert bank.first == 0 and bank.copies == [bank.root]
    assert bank.live == {bank.root: [bank, 0, 1, 0.3]}
    assert bank.root.S == ()
    with pytest.raises(ValueError):
        FixedThreshold(1.0, 0, 0.3)


def test_threshold_accept_boundary(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    # marginal 3 minus multiplier(1)*1 = 0.381966...; tau inclusive at >=
    assert rs.threshold_streaming([0], inst, 1.0, 0.3).elements == (0,)
    assert rs.threshold_streaming([0], inst, 1.0, 0.5).elements == ()
    exact = rs.threshold_streaming([0], inst, 1.0, 3.0 - GOLDEN ** 2)
    assert exact.elements == (0,)  # ties accept


def test_threshold_budget_kills_state(three_node_cover):
    _, oracle, cost = three_node_cover
    counted, counter = rs.RegularizedInstance(oracle, cost, 1).counted()
    sol = rs.threshold_streaming([0, 1, 2], counted, 1.0, 0.3)
    assert sol.elements == (0,)
    assert counter.marginal_calls == 1  # the full copy is offered nothing


def test_threshold_finish_prefers_empty_on_negative_f():
    oracle = rs.ModularOracle([0.5])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.array([1.0])), 1)
    bank = FixedThreshold(1.0, 1, -10.0)
    bank.step(0, inst, 0.0)
    assert bank.copies[0].S == (0,)  # collected, at f = -0.5
    sol = rs.threshold_streaming([0], inst, 1.0, -10.0)
    assert sol.elements == ()
    assert sol.f_value == 0.0


def test_threshold_streaming_run(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    sol = rs.threshold_streaming([0, 1, 2], inst, 1.0, 0.3)
    assert sol.elements == (0,)
    assert sol.f_value == pytest.approx(2.0)
    assert sol.provenance == "threshold-streaming[r=1,tau=0.3][i=0]"


def test_threshold_streaming_matches_reference_loop():
    rng = np.random.default_rng(53)
    cases = []
    for t in range(60):
        n = int(rng.integers(4, 20))
        inst = make_instance(rng, KINDS[t % len(KINDS)], n, int(rng.integers(1, 5)))
        r = float(rng.choice([0.25, 1.0, 4.0]))
        tau = [float(rng.uniform(0.0, 0.6)), 0.0, -float(rng.uniform(0.0, 2.0))][t % 3]
        cases.append((inst, [int(x) for x in rng.permutation(n)], r, tau))
    # both accepted at surplus 1 - multiplier(1) >= -2, and f({0, 1}) = 0 =
    # f({}): the collected set wins the tie
    cases.append((rs.RegularizedInstance(rs.ModularOracle([1.0, 1.0]),
                                         rs.ModularCost(np.ones(2)), 2), [0, 1], 1.0, -2.0))
    for inst, stream, r, tau in cases:
        got_inst, got = inst.counted()
        ref_inst, ref = inst.counted()
        sol = rs.threshold_streaming(stream, got_inst, r, tau)
        want = threshold_reference(stream, ref_inst, r, tau)
        assert (sol.elements, sol.f_value) == (want.elements, want.f_value)
        assert got.marginal_calls == ref.marginal_calls
        assert got.value_calls <= ref.value_calls


def test_threshold_collected_surplus_invariant():
    # after any run, g(S) - multiplier*cost(S) >= |S| * tau
    rng = np.random.default_rng(11)
    for t in range(40):
        inst = make_instance(rng, KINDS[t % 5], 8, 3)
        r = float(rng.choice([0.25, 1.0, 4.0]))
        tau = float(rng.uniform(0.01, 0.5))
        bank = FixedThreshold(r, inst.k, tau)
        for u in range(8):
            bank.step(u, inst, 0.0)
        S = bank.copies[0].S
        lhs = inst.oracle.value(S) - rs.cost_multiplier(r) * inst.cost(S)
        assert lhs >= len(S) * tau - 1e-9


def test_geometric_index_range_basics():
    assert list(geometric_index_range(1.0, 8.0, 2.0)) == [0, 1, 2, 3]
    assert list(geometric_index_range(1.5, 1.4, 2.0)) == []
    assert list(geometric_index_range(0.0, 8.0, 2.0)) == []
    # snapping keeps exact powers at the boundary despite log noise
    assert list(geometric_index_range(0.001, 1000.0, 10.0)) == [-3, -2, -1, 0, 1, 2, 3]
    with pytest.raises(ValueError):
        geometric_index_range(1.0, 2.0, 1.0)


def test_threshold_index_range_examples():
    assert list(threshold_index_range(0.145898, 2, 1.0, 0.5)) == [-6, -5, -4, -3]
    assert list(threshold_index_range(1.0, 1, 1.0, 1.0)) == [0, 1]
    assert list(threshold_index_range(0.0, 2, 1.0, 0.5)) == []
    assert list(threshold_index_range(-3.0, 2, 1.0, 0.5)) == []


def test_bank_windows_equal_the_checked_index_ranges():
    # window() reads eps, r and the base as __init__ checked them, with no
    # check per rise; the checked free functions are its reference
    rng = np.random.default_rng(23)
    for _ in range(200):
        k, r = int(rng.integers(1, 40)), float(rng.choice([1e-3, 0.2, 1.0, 7.5]))
        eps = float(rng.choice([1e-6, 0.05, 0.1, 0.5, 1.0, 3.0]))
        bank, sieve = rs.ThresholdBank(r, k, eps), SieveLadder(k, eps)
        # exact powers of the base land on both ends of the window
        powers = [k * (1.0 + eps) ** i for i in rng.integers(-40, 40, 4)]
        anchors = [-math.inf, -1.0, 0.0, 5e-324, 1e300, math.inf, *powers,
                   *(1.0 + eps) ** rng.integers(-40, 40, 4), *10.0 ** rng.uniform(-300, 300, 8)]
        for anchor in anchors:
            bank.best_single = sieve.best_single = anchor
            assert bank.window() == threshold_index_range(anchor, k, r, eps)
            assert sieve.window() == geometric_index_range(anchor, 2.0 * k * anchor, 1.0 + eps)


def test_threshold_bank_rejects_non_positive_r():
    # r = 0 would open an empty ladder window and return the empty set
    inst = rs.RegularizedInstance(rs.ModularOracle([1.0]), rs.ModularCost(np.zeros(1)), 1)
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rs.ThresholdBank(r, 3, 0.1)
        with pytest.raises(ValueError, match="trade-off r"):
            rs.threshold_streaming([0], inst, r, 0.1)
    for eps in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            rs.ThresholdBank(1.0, 3, eps)
    # an eps lost in 1 + eps leaves no ladder: refused when the bank is made
    with pytest.raises(ValueError, match="base"):
        rs.ThresholdBank(1.0, 3, 1e-17)


def test_bank_ignores_nonpositive_scores(three_node_cover):
    _, oracle, _ = three_node_cover
    heavy = rs.RegularizedInstance(oracle, rs.ModularCost(10.0 * np.ones(3)), 2)
    bank = rs.ThresholdBank(1.0, 2, 0.5)
    bank.step(0, heavy, heavy.oracle.value((0,)))
    assert bank.best_single == -math.inf
    assert bank.copies == []
    sol = bank.finish(heavy)
    assert sol.elements == ()


def test_bank_window_tracks_anchor(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    bank = rs.ThresholdBank(1.0, 2, 0.5)
    for u in [0, 1, 2]:
        bank.step(u, inst, inst.oracle.value((u,)))
    # best singleton score is 3*factor(1) - 1
    assert bank.best_single == pytest.approx(3 * rs.approx_factor(1.0) - 1.0)
    assert bank.first == -6 and len(bank.copies) == 4
    sol = bank.finish(inst)
    assert sol.elements == (0,)
    assert sol.f_value == pytest.approx(2.0)


def test_bank_anchor_is_monotone_and_copies_bounded():
    rng = np.random.default_rng(23)
    for t in range(20):
        inst = make_instance(rng, KINDS[t % 5], 12, 4)
        eps = float(rng.choice([0.2, 0.5, 1.0]))
        r = float(rng.choice([0.25, 1.0, 4.0]))
        bank = rs.ThresholdBank(r, inst.k, eps)
        bound = 2.0 + math.log(inst.k * rs.cost_multiplier(r) / r) / math.log(1 + eps)
        prev = -math.inf
        for u in range(12):
            bank.step(u, inst, inst.oracle.value((u,)))
            assert bank.best_single >= prev
            prev = bank.best_single
            assert len(bank.copies) <= bound
            for state in bank.copies:
                assert len(state.S) <= inst.k


def test_lazy_bank_matches_eager_reference():
    rng = np.random.default_rng(31)
    for t in range(30):
        n = int(rng.integers(5, 25))
        k = int(rng.integers(1, 5))
        inst = make_instance(rng, KINDS[t % 5], n, k)
        r = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        eps = float(rng.choice([0.1, 0.2, 0.5]))
        stream = [int(x) for x in rng.permutation(n)]
        bank = rs.ThresholdBank(r, k, eps)
        for u in stream:
            bank.step(u, inst, inst.oracle.value((u,)))
        lazy = bank.finish(inst)
        eager = eager_threshold_reference(stream, inst, r, eps)
        assert set(lazy.elements) == set(eager.elements)


def test_bank_finish_keeps_lowest_exponent_among_equal_sets():
    # copies 1 and 2 both hold the best set [0]; 2 is not even evaluated,
    # and 1 wins as it did when every copy was evaluated
    inst, counter = rs.RegularizedInstance(
        rs.ModularOracle([3.0, 1.0]), rs.ModularCost(np.zeros(2)), 2).counted()
    bank = rs.ThresholdBank(1.0, 2, 0.5)
    bank.first = -1
    bank.copies = [SetNode(tuple(S), 0.0) for S in ([], [1], [0], [0])]
    sol = bank.finish(inst)
    assert (sol.elements, sol.provenance) == ((0,), "threshold-bank[i=1]")
    # the empty set, [1] and [0]: copy -1 repeats the empty set, 2 repeats 1
    assert counter.value_calls == 3


def test_bank_finish_evaluates_only_sets_near_the_best_running_f():
    # copies 0 and 1 have running f within rounding of each other, ranked
    # the other way round from scratch; copy 2 lies far below both
    weights = [1.0, 1.0 + 2e-12, 0.5]
    inst, counter = rs.RegularizedInstance(
        rs.ModularOracle(weights), rs.ModularCost(np.zeros(3)), 2).counted()
    bank = rs.ThresholdBank(1.0, 2, 0.5)
    bank.first = 0
    bank.copies = [SetNode(S, f) for S, f in (((0,), 1.0 + 1e-12), ((1,), 1.0), ((2,), 0.5))]
    every = rs.best_solution([rs.Solution.evaluate(inst, (), "threshold-bank[empty]")] + [
        rs.Solution.evaluate(inst, node.S, f"threshold-bank[i={i}]")
        for i, node in enumerate(bank.copies, bank.first)])
    counter.value_calls = 0
    sol = bank.finish(inst)
    assert (sol.elements, sol.provenance) == (every.elements, every.provenance) == (
        (1,), "threshold-bank[i=1]")
    # the empty set, [0] and [1]: [2] costs no value call
    assert counter.value_calls == 3
    # a running f far below the empty set's 0 is not evaluated either
    bank.copies = [SetNode((2,), -1.0)]
    assert bank.finish(inst).elements == ()
    assert counter.value_calls == 4


def test_streaming_singletons_are_marginals_against_the_root():
    # g({u}) is one marginal call per element plus g(()) once per pass;
    # the other value calls are the finish's
    rng = np.random.default_rng(59)
    inst = make_instance(rng, "vertex-cover", 40, 4)
    stream = [int(x) for x in rng.permutation(40)]
    counted, counter = inst.counted()
    diag = {}
    rs.distorted_streaming(stream, counted, 0.1, 0.2, diagnostics=diag)
    assert counter.marginal_calls == 40 + sum(diag["per_element_marginals"])
    assert counter.value_calls < 40
    counted, counter = inst.counted()
    rs.sieve_streaming(stream, counted, 0.1)
    assert counter.marginal_calls >= 40 and counter.value_calls < 40


def test_streaming_singletons_keep_a_nonzero_empty_value():
    # the surrogate keeps rho(()) > 0 as g(()), so g({u}) is not u's gain at the root
    rng = np.random.default_rng(61)
    w = rng.uniform(0.5, 2.0, 12)
    weak = rs.WeakSubmodularInstance(lambda S: 4.0 + math.log1p(float(w[list(S)].sum())),
                                     0.0, 12)
    inst = rs.surrogate_instance(weak, 4)
    assert inst.oracle.value(()) == 4.0
    stream = [int(x) for x in rng.permutation(12)]
    bank = rs.ThresholdBank(0.3, 4, 0.1)
    bank.run(stream, inst, "bank")
    anchor = max(bank._factor * inst.oracle.value((u,)) - bank.r * inst.cost[u] for u in stream)
    assert anchor > 0.0 and bank.best_single == pytest.approx(anchor, rel=1e-12, abs=0.0)
    got, want = rs.distorted_streaming(stream, inst, 0.1, 0.2), ladder_reference(
        stream, inst, 0.1, 0.2)
    assert (got.elements, got.f_value, got.provenance) == (
        want.elements, want.f_value, want.provenance)
    got, want = rs.sieve_streaming(stream, inst, 0.1), sieve_reference(stream, inst, 0.1)
    assert (got.elements, got.f_value, got.provenance) == (
        want.elements, want.f_value, want.provenance)


@pytest.mark.parametrize("eps,delta", [(0.1, 0.2), (0.2, 0.5), (0.05, 1.0)])
def test_distorted_streaming_matches_ladder_reference(eps, delta):
    rng = np.random.default_rng(int(100 * eps + 10 * delta))
    for t in range(30):
        n = int(rng.integers(4, 20))
        inst = make_instance(rng, KINDS[t % len(KINDS)], n, int(rng.integers(1, 6)))
        counted, _ = inst.counted()
        for _ in range(2):
            stream = [int(x) for x in rng.permutation(n)]
            want = ladder_reference(stream, inst, eps, delta)
            # Solution equality: same elements, f, g, ell and provenance
            assert rs.distorted_streaming(stream, inst, eps, delta) == want
            assert rs.distorted_streaming(stream, counted, eps, delta) == want
    # every singleton non-positive: no bank ever opens a window
    inst = rs.RegularizedInstance(rs.ModularOracle([0.2, 0.1, 0.0]),
                                  rs.ModularCost(np.array([1.0, 0.1, 0.0])), 2)
    got = rs.distorted_streaming([2, 0, 1], inst, eps, delta)
    assert got == ladder_reference([2, 0, 1], inst, eps, delta)
    assert got.provenance == "distorted-streaming[empty]"


def _offered_sets(bank, u):
    """Sets the bank's copies held when ``u`` was offered, full ones excluded."""
    held = (c.S[:-1] if c.S and c.S[-1] == u else c.S for c in bank.copies)
    return {tuple(S) for S in held if len(S) < bank.k}


def test_distorted_streaming_one_marginal_per_distinct_live_set():
    rng = np.random.default_rng(41)
    eps, delta = 0.1, 0.2
    for t in range(10):
        n = int(rng.integers(10, 30))
        inst = make_instance(rng, KINDS[t % len(KINDS)], n, int(rng.integers(1, 5)))
        stream = [int(x) for x in rng.permutation(n)]
        counted, _ = inst.counted()
        diag = {}
        rs.distorted_streaming(stream, counted, eps, delta, diagnostics=diag)
        banks = [rs.ThresholdBank(g.r, inst.k, eps) for g in rs.ratio_grid(eps, delta)]
        for u, calls in zip(stream, diag["per_element_marginals"]):
            for bank in banks:
                bank.step(u, inst, inst.oracle.value((u,)))
            assert calls == len(set().union(*(_offered_sets(b, u) for b in banks)))


def test_copies_holding_equal_sets_hold_one_node():
    # banks of one grid share a root, as in distorted_streaming, so a set
    # is one SetNode in whichever bank and copy holds it
    rng = np.random.default_rng(47)
    eps, delta = 0.1, 0.2
    within = across = 0
    for t in range(10):
        n = int(rng.integers(10, 30))
        inst = make_instance(rng, KINDS[t % len(KINDS)], n, int(rng.integers(2, 5)))
        banks = [rs.ThresholdBank(g.r, inst.k, eps) for g in rs.ratio_grid(eps, delta)]
        live = {}
        for u in (int(x) for x in rng.permutation(n)):
            _step(banks, live, u, inst, inst.oracle.value((u,)))
            owner = {}
            for j, bank in enumerate(banks):
                for node in bank.copies:
                    if node.S not in owner:
                        owner[node.S] = (node, j)
                        continue
                    first, first_bank = owner[node.S]
                    assert first is node
                    within += node.S != () and first_bank == j
                    across += node.S != () and first_bank != j
    assert within > 0 and across > 0


def test_live_table_holds_each_bank_as_contiguous_runs_of_its_open_copies():
    rng = np.random.default_rng(67)
    seen_runs = split = 0
    for t in range(45):
        n = int(rng.integers(6, 26))
        k = 1 + t % 5
        eps = (0.1, 0.2, 0.5)[t % 3]
        inst = make_instance(rng, KINDS[t % len(KINDS)], n, k)
        counted, counter = inst.counted()
        banks = [rs.ThresholdBank(g.r, k, eps) for g in rs.ratio_grid(eps, 0.2)]
        live = {}
        for u in (int(x) for x in rng.permutation(n)):
            before, nodes = counter.marginal_calls, list(live)
            anchors = [b.best_single for b in banks]
            computed = _step(banks, live, u, counted, inst.oracle.value((u,)))
            assert computed == counter.marginal_calls - before
            if anchors == [b.best_single for b in banks]:  # no refill: the table it walked
                assert computed == len(nodes)
                # a node that leaves the table leaves its state too
                assert all(node.state is None for node in nodes if node not in live)
            assert computed == len(set().union(*(_offered_sets(b, u) for b in banks)))
            held = {}
            for node, flat in live.items():
                assert len(node.S) < k
                runs = list(zip(flat[::4], flat[1::4], flat[2::4], flat[3::4]))
                assert 4 * len(runs) == len(flat)
                assert len({id(bank) for bank, _, _, _ in runs}) == len(runs)
                for bank, lo, hi, bar in runs:
                    window = bank.window()
                    assert bank.first == window.start
                    assert 0 <= lo < hi <= len(window) == len(bank.copies)
                    assert bar == bank.threshold(window[lo], node)
                    held.update({(id(bank), i): node for i in window[lo:hi]})
                seen_runs += len(runs)
                split += len(runs) > 1
            assert held == {(id(bank), i): node for bank in banks
                            for i, node in enumerate(bank.copies, bank.first) if len(node.S) < k}
            rebuilt = {}
            _fill(rebuilt, banks)
            assert rebuilt == live
    assert seen_runs > 0 and split > 0


class _ScriptedWindow(rs.ThresholdBank):
    """A bank whose window is whatever range ``scripted`` holds."""

    scripted = range(0)

    def window(self) -> range:
        return self.scripted


def test_rise_reindexes_every_kept_exponent_to_its_node():
    # an overlapping move up, a top-only extension, a disjoint jump and a
    # move down, which no shipped bank makes; between rises an element takes
    # the lower half of the window, so neighbouring copies hold other nodes
    windows = [range(-3, 2), range(-1, 4), range(-1, 6), range(10, 13), range(7, 11)]
    n = 2 * len(windows)
    weights = np.zeros(n)
    for t, w in enumerate(windows):
        weights[2 * t + 1] = 1.1 ** (w.start + len(w) / 2)
    inst = rs.RegularizedInstance(rs.ModularOracle(weights), rs.ModularCost(np.zeros(n)), n)
    bank = _ScriptedWindow(1.0, n, 0.1)
    kept = 0
    for t, w in enumerate(windows):
        before = dict(enumerate(bank.copies, bank.first))
        bank.scripted = w
        bank.step(2 * t, inst, t + 1.0)  # a rise; gain 0 is taken by no copy
        after = dict(enumerate(bank.copies, bank.first))
        assert bank.first == w.start and list(after) == list(w)
        for i in w:
            assert after[i] is before.get(i, bank.root)
            kept += i in before and before[i] is not bank.root
        rebuilt = {}
        _fill(rebuilt, [bank])
        assert rebuilt == bank.live
        bank.step(2 * t + 1, inst, 0.0)  # no rise
        rebuilt = {}
        _fill(rebuilt, [bank])
        assert rebuilt == bank.live
    assert kept >= 3


class _SizedStates(rs.SubmodularOracle):
    """Wraps an oracle so that each node state carries its set, and fails on a
    state made for a set of size k or a gain read against the wrong set."""

    def __init__(self, inner, k):
        self.inner, self.n, self.k = inner, inner.n, k
        self.made = 0

    def value(self, S):
        return self.inner.value(S)

    def marginal(self, u, S):
        return self.inner.marginal(u, S)

    def node_state(self, state, u):
        inner, S = state if state is not None else (None, ())
        assert len(S) + 1 < self.k, f"state made for the full set {S + (u,)}"
        self.made += 1
        return self.inner.node_state(inner, u), S + (u,)

    def node_gain(self, state, u, S):
        inner, held = state if state is not None else (None, ())
        assert held == S
        return self.inner.node_gain(inner, u, S)


@pytest.mark.parametrize("kind", KINDS)
def test_pass_makes_no_state_for_a_full_set_and_drops_every_state(kind):
    rng = np.random.default_rng(KINDS.index(kind) + 71)
    made = 0
    for t in range(12):
        n, k = int(rng.integers(6, 22)), 1 + t % 5
        inst = make_instance(rng, kind, n, k)
        sized = rs.RegularizedInstance(_SizedStates(inst.oracle, k), inst.cost, k)
        stream = [int(x) for x in rng.permutation(n)]
        eps = (0.1, 0.2, 0.5)[t % 3]
        for make in (lambda: rs.ThresholdBank(0.5, k, eps), lambda: SieveLadder(k, eps)):
            bank = make()
            got = bank.run(stream, sized, "bank")
            assert all(node.state is None for node in bank.copies)
            want = make().run(stream, inst, "bank")
            assert (got.elements, got.f_value, got.provenance) == (
                want.elements, want.f_value, want.provenance)
        assert rs.distorted_streaming(stream, sized, eps, 0.2) == rs.distorted_streaming(
            stream, inst, eps, 0.2)
        made += sized.oracle.made
    assert made > 0


def test_distorted_streaming_spends_nothing_once_every_copy_is_full():
    # element 0 has the best singleton score in every bank and a surplus at
    # the top of every window, so with k = 1 it fills every copy at once
    rng = np.random.default_rng(43)
    n = 30
    weights = np.concatenate([[5.0], rng.uniform(0.0, 1.0, n - 1)])
    costs = np.concatenate([[0.0], rng.uniform(0.0, 0.5, n - 1)])
    inst = rs.RegularizedInstance(rs.ModularOracle(weights), rs.ModularCost(costs), 1)
    counted, _ = inst.counted()
    diag = {}
    stream = [0] + [int(x) for x in rng.permutation(np.arange(1, n))]
    sol = rs.distorted_streaming(stream, counted, 0.1, 0.2, diagnostics=diag)
    assert sol.elements == (0,)
    assert diag["max_copies"] > 0
    assert diag["per_element_marginals"][0] > 0
    assert diag["per_element_marginals"][1:] == [0] * (n - 1)


def test_ratio_conversions_examples():
    assert rs.beta_for_ratio(0.25) == pytest.approx(4.0, abs=1e-12)
    assert rs.r_for_beta(4.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rs.approx_factor(2.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rs.r_for_beta(1.0) == pytest.approx(0.2886751, abs=1e-7)
    assert rs.ratio_for_beta(1.0) == pytest.approx((2 - math.sqrt(3)) / 2, abs=1e-12)
    for bad in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            rs.beta_for_ratio(bad)
    for fn in (rs.r_for_beta, rs.ratio_for_beta):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.011, max_value=0.489))
def test_ratio_beta_round_trip(zeta):
    assert rs.ratio_for_beta(rs.beta_for_ratio(zeta)) == pytest.approx(
        zeta, rel=1e-10)


def test_ratio_for_beta_small_beta_limit():
    # ratio ~ beta/4 as beta -> 0
    for beta in (1e-4, 1e-5):
        assert rs.ratio_for_beta(beta) == pytest.approx(beta / 4.0, rel=1e-3)


def test_ratio_grid_examples():
    grid = rs.ratio_grid(0.25, 1.0)
    assert len(grid) == 1
    assert grid[0].ratio == pytest.approx(0.25)
    assert grid[0].beta == pytest.approx(4.0)
    assert grid[0].r == pytest.approx(2.0 / 3.0)
    assert rs.ratio_grid(0.5, 1.0) == []
    with pytest.raises(ValueError):
        rs.ratio_grid(0.0, 1.0)
    with pytest.raises(ValueError):
        rs.ratio_grid(0.6, 1.0)
    with pytest.raises(ValueError):
        rs.ratio_grid(0.1, 0.0)


def test_ratio_grid_structure():
    for eps, delta in ((0.05, 0.1), (0.1, 0.1), (0.1, 0.5), (0.25, 1.0)):
        grid = rs.ratio_grid(eps, delta)
        assert grid[0].ratio == pytest.approx(eps)
        assert all(g.ratio < 0.5 for g in grid)
        assert all(g.r >= 2 * eps - 1e-12 for g in grid)
        ratios = [g.ratio for g in grid]
        assert ratios == sorted(ratios)
        for a, b in zip(ratios, ratios[1:]):
            assert b / a == pytest.approx(1 + delta, rel=1e-9)


def test_distorted_streaming_accepts_profitable_single_element():
    # one element whose utility dwarfs its cost: some guess must take it
    oracle = rs.ModularOracle([1.0, 0.0])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.array([0.1, 0.0])), 1)
    sol = rs.distorted_streaming([0], inst, 0.1, 0.2)
    assert sol.elements == (0,)
    assert sol.f_value == pytest.approx(0.9)


def test_distorted_streaming_empty_stream():
    oracle = rs.ModularOracle([1.0])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.zeros(1)), 1)
    sol = rs.distorted_streaming([], inst, 0.1, 0.1)
    assert sol.elements == ()
    assert sol.f_value == 0.0


@pytest.mark.parametrize("stream", [[], [0], [1, 0, 2]])
def test_distorted_streaming_empty_grid_streams_to_the_empty_set(stream):
    # eps = 1/2 leaves no ratio guess: no bank, so no singleton and no marginal
    inst, counter = rs.RegularizedInstance(
        rs.ModularOracle([3.0, 1.0, 2.0]), rs.ModularCost(np.full(3, 0.1)), 2).counted()
    assert rs.ratio_grid(0.5, 0.2) == []
    sol = rs.distorted_streaming(stream, inst, 0.5, 0.2)
    assert sol.elements == () and sol.f_value == 0.0
    assert (counter.value_calls, counter.marginal_calls) == (1, 0)
    with pytest.raises(ValueError, match="repeated"):
        rs.distorted_streaming([1, 0, 1], inst, 0.5, 0.2)


def test_distorted_streaming_single_pass_budget():
    rng = np.random.default_rng(7)
    inst = make_instance(rng, "modular", 60, 6)
    counted, counter = inst.counted()
    diag = {}
    rs.distorted_streaming(range(60), counted, 0.2, 0.2, diagnostics=diag)
    grid = diag["grid"]
    per_entry = [2.0 + math.log(counted.k * rs.cost_multiplier(g.r) / g.r)
                 / math.log(1.2) for g in grid]
    assert max(diag["per_element_marginals"]) <= sum(per_entry)
    assert diag["max_stored"] <= len(grid) * max(per_entry) * counted.k
    assert counter.calls > 0


def test_distorted_streaming_beats_ratio_bound_on_random_instances():
    rng = np.random.default_rng(17)
    checked = 0
    t = 0
    while checked < 25:
        t += 1
        n = int(rng.integers(4, 11))
        inst = make_instance(rng, KINDS[t % 5], n, int(rng.integers(1, 4)))
        opt_set, opt_val = rs.brute_force_opt(inst)
        ell_opt = inst.cost(opt_set)
        if opt_val <= 1e-9 or ell_opt <= 1e-9:
            continue
        checked += 1
        zeta = rs.ratio_for_beta(opt_val / ell_opt)
        bound = ((1 - 0.05) * zeta - 0.1 / (2 * zeta)) * opt_val
        sol = rs.distorted_streaming(range(n), inst, 0.1, 0.1)
        assert sol.f_value >= bound - 1e-9
