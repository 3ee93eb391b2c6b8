import itertools
import math

import numpy as np
import pytest

import regsubmax as rs
from conftest import make_instance, sieve_reference, KINDS
from regsubmax.baselines import brute_force_distorted


def test_vanilla_greedy_three_node(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    assert rs.vanilla_greedy(inst) == [0]
    assert inst.f([0]) == pytest.approx(2.0)


def test_vanilla_greedy_stops_at_nonpositive_gain():
    oracle = rs.ModularOracle([1.0, 0.2, 0.6])
    cost = rs.ModularCost(np.array([0.1, 0.5, 0.6]))
    inst = rs.RegularizedInstance(oracle, cost, 3)
    # gains: 0.9, -0.3, 0.0 -> only the first is strictly positive
    assert rs.vanilla_greedy(inst) == [0]


def test_vanilla_greedy_matches_brute_force_on_modular():
    # for modular f, greedy-by-gain is optimal: pick all positive-gain items
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        inst = make_instance(rng, "modular", n, n)
        _, opt = rs.brute_force_opt(inst)
        assert inst.f(rs.vanilla_greedy(inst)) == pytest.approx(opt, abs=1e-9)


def test_sieve_streaming_three_node(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    sol = rs.sieve_streaming([0, 1, 2], inst, 0.5)
    assert sol.elements == (0,)
    assert sol.f_value == pytest.approx(2.0)
    assert sol.provenance.startswith("sieve[i=")


def test_sieve_streaming_empty_when_nothing_positive():
    oracle = rs.ModularOracle([0.2, 0.1])
    cost = rs.ModularCost(np.array([1.0, 1.0]))
    inst = rs.RegularizedInstance(oracle, cost, 2)
    sol = rs.sieve_streaming([0, 1], inst, 0.5)
    assert sol.elements == ()
    assert sol.f_value == 0.0


def test_sieve_streaming_half_opt_on_nonnegative_modular():
    # with ell == 0 and modular g, the classic (1/2 - eps) OPT bound holds
    rng = np.random.default_rng(13)
    eps = 0.1
    for _ in range(25):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.0, 2.0, n)
        inst = rs.RegularizedInstance(rs.ModularOracle(w),
                                      rs.ModularCost(np.zeros(n)), k)
        opt = float(np.sort(w)[-k:].sum())
        stream = [int(x) for x in rng.permutation(n)]
        sol = rs.sieve_streaming(stream, inst, eps)
        assert sol.f_value >= (0.5 - eps) * opt - 1e-9


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_sieve_ladder_matches_reference_loop(eps):
    rng = np.random.default_rng(int(eps * 10))
    for t in range(30):
        n = int(rng.integers(4, 20))
        inst = make_instance(rng, KINDS[t % len(KINDS)], n, int(rng.integers(1, 6)))
        for _ in range(2):
            stream = [int(x) for x in rng.permutation(n)]
            # Solution equality: same elements, f, g, ell and provenance
            assert rs.sieve_streaming(stream, inst, eps) == sieve_reference(
                stream, inst, eps)
    # every singleton non-positive: the ladder never opens a window
    inst = rs.RegularizedInstance(rs.ModularOracle([0.2, 0.1, 0.0]),
                                  rs.ModularCost(np.array([1.0, 0.1, 0.0])), 2)
    got = rs.sieve_streaming([2, 0, 1], inst, eps)
    assert got == sieve_reference([2, 0, 1], inst, eps)
    assert got.provenance == "sieve[empty]"


def test_sieve_accepts_a_gain_equal_to_its_threshold():
    # eps = 1 makes the guesses 1 and 2 exact: guess 2 admits element 0 at
    # gain 1 = 2/2 and so is full when the better element 1 arrives
    inst = rs.RegularizedInstance(rs.ModularOracle([1.0, 1.5]),
                                  rs.ModularCost(np.zeros(2)), 1)
    got = rs.sieve_streaming([0, 1], inst, 1.0)
    assert got == sieve_reference([0, 1], inst, 1.0)
    assert (got.elements, got.provenance) == ((0,), "sieve[i=1]")


def test_brute_force_three_node(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    assert rs.brute_force_opt(inst) == ((0,), 2.0)


def test_brute_force_respects_budget():
    oracle = rs.ModularOracle([1.0, 1.0, 1.0])
    inst, counter = rs.RegularizedInstance(oracle, rs.ModularCost(np.zeros(3)), 2).counted()
    s, v = rs.brute_force_opt(inst)
    assert s == (0, 1)
    assert v == pytest.approx(2.0)
    # one value call per subset of size <= 2, the empty set included once
    assert counter.value_calls == 1 + 3 + 3


def test_brute_force_tie_is_lexicographically_smallest():
    oracle = rs.ModularOracle([1.0, 1.0])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.ones(2)), 1)
    # every set scores 0.0, including the empty set
    assert rs.brute_force_opt(inst) == ((), 0.0)


def test_brute_force_guard():
    n = rs.BRUTE_FORCE_LIMIT + 1
    oracle = rs.ModularOracle(np.ones(n))
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.zeros(n)), 2)
    with pytest.raises(ValueError):
        rs.brute_force_opt(inst)


def test_brute_force_matches_exhaustive_enumeration():
    rng = np.random.default_rng(19)
    for t in range(10):
        n, k = 6, 3
        inst = make_instance(rng, KINDS[t % 5], n, k)
        best = max(
            (inst.f(c) for r in range(k + 1)
             for c in itertools.combinations(range(n), r)),
            default=0.0)
        _, v = rs.brute_force_opt(inst)
        assert v == pytest.approx(best, abs=1e-12)


def test_brute_force_distorted_budget_validation(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    brute_force_distorted(inst, 1.0, 1.0, 0)  # k == 0 is allowed here
    with pytest.raises(ValueError):
        brute_force_distorted(inst, 1.0, 1.0, -1)


def test_brute_force_distorted_three_node(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    h = rs.approx_factor(1.0)
    s, v = brute_force_distorted(inst, a=h, b=1.0, k=1)
    assert s == (0,)
    assert v == pytest.approx(3 * h - 1.0, abs=1e-12)
    assert v == pytest.approx(0.145898034, abs=1e-9)


def test_brute_force_distorted_k_zero(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    s, v = brute_force_distorted(inst, 1.0, 1.0, 0)
    assert s == ()
    assert v == 0.0


def test_brute_force_tau_anchor_and_scaling(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 2)
    eps = 0.04  # small enough that (factor - eps) * g({0}) still beats cost
    tau, T, anchor = rs.brute_force_tau(inst, 1.0, eps)
    assert T == (0,)
    assert anchor == pytest.approx(3 * rs.approx_factor(1.0) - 1.0)
    assert tau == pytest.approx(anchor / ((1 + eps) * inst.k))
    # a steep eps wipes out every profitable set and anchors at the empty set
    tau0, T0, anchor0 = rs.brute_force_tau(inst, 1.0, 0.5)
    assert (tau0, T0, anchor0) == (0.0, (), 0.0)


def test_brute_force_upper_bounds_every_algorithm():
    rng = np.random.default_rng(23)
    for t in range(20):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        inst = make_instance(rng, KINDS[t % 5], n, k)
        _, opt = rs.brute_force_opt(inst)
        outputs = [
            inst.f(rs.vanilla_greedy(inst)),
            inst.f(rs.distorted_greedy(inst)),
            rs.sieve_streaming(range(n), inst, 0.2).f_value,
            rs.distorted_streaming(range(n), inst, 0.2, 0.5).f_value,
        ]
        for v in outputs:
            assert v <= opt + 1e-9
