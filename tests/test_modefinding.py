import itertools
import math

import numpy as np
import pytest

import regsubmax as rs
from regsubmax.modefinding import EXHAUSTIVE_LIMIT, lambda_value
from conftest import (ValueOnly, random_weak_instance, value_table,
                      worst_monotonicity_violation,
                      worst_submodularity_violation)


def table_instance(values: dict, gamma: float, n: int) -> rs.WeakSubmodularInstance:
    return rs.WeakSubmodularInstance(lambda S: values[frozenset(S)], gamma, n)


def two_point_instance() -> rs.WeakSubmodularInstance:
    # rho({}) = 0, rho({0}) = rho({1}) = 1, rho({0,1}) = 2.5: gamma 0.5 tight
    vals = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
            frozenset({0, 1}): 2.5}
    return table_instance(vals, 0.5, 2)


def test_weak_instance_validation():
    with pytest.raises(ValueError):
        rs.WeakSubmodularInstance(lambda S: 0.0, -0.1, 2)
    with pytest.raises(ValueError):
        rs.WeakSubmodularInstance(lambda S: 0.0, 0.0, 0)


def test_lambda_value_subtracts_quadratic_penalty():
    inst = two_point_instance()
    assert lambda_value(inst, ()) == 0.0
    assert lambda_value(inst, (0,)) == 1.0
    assert lambda_value(inst, (0, 1)) == pytest.approx(2.0)  # 2.5 - 0.5
    # duplicate ids collapse before sizing the penalty
    assert lambda_value(inst, (0, 0, 1)) == pytest.approx(2.0)


def test_derived_cost_examples():
    inst = two_point_instance()
    cost = rs.derived_cost(inst)
    # corrected(N - u) - corrected(N) = 1.0 - 2.0 < 0 -> clamps to zero
    assert list(cost.costs) == [0.0, 0.0]
    vals = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
            frozenset({0, 1}): 1.3}
    gentle = table_instance(vals, 0.5, 2)
    cost2 = rs.derived_cost(gentle)
    # corrected full value is 0.8; each leave-one-out scores 1.0
    assert np.allclose(cost2.costs, [0.2, 0.2])


def test_derived_cost_closed_form_agreement():
    # max(corrected(N-u) - corrected(N), 0) == max(rho(N-u) - rho(N)
    #                                              + gamma*(n-1), 0)
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        inst = random_weak_instance(rng, n)
        full = tuple(range(n))
        rho_full = inst.rho_of(full)
        if not math.isfinite(rho_full):
            continue
        cost = rs.derived_cost(inst)
        for u in range(n):
            rest = tuple(v for v in full if v != u)
            direct = max(inst.rho_of(rest) - rho_full + inst.gamma * (n - 1), 0.0)
            assert cost[u] == pytest.approx(direct, abs=1e-9)


def test_derived_cost_requires_finite_full_set():
    vals = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
            frozenset({0, 1}): -math.inf}
    inst = table_instance(vals, 0.0, 2)
    with pytest.raises(ValueError):
        rs.derived_cost(inst)


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_derived_cost_closed_form_matches_leave_one_out_loop(gamma):
    for t in range(10):
        n = 2 + t
        slc = rs.SlcInstance(rs.sample_slc_matrix(n, mu=-1.0, seed=400 + t), n)
        # any rho but a bound SlcInstance.log_density takes the loop
        loop = rs.WeakSubmodularInstance(lambda S: slc.log_density(S), gamma, n)
        closed = rs.derived_cost(slc.weak_instance(gamma)).costs
        assert np.any(closed > 0.0)
        assert np.allclose(closed, rs.derived_cost(loop).costs, rtol=0.0, atol=1e-9)


def test_derived_cost_closed_form_rejects_capped_and_singular_kernels():
    L = rs.sample_slc_matrix(4, seed=5)
    for slc in (rs.SlcInstance(L, 3), rs.SlcInstance(np.ones((3, 3)), 3)):
        for gamma in (0.0, 0.2):
            with pytest.raises(ValueError, match="finite at the full ground set"):
                rs.derived_cost(slc.weak_instance(gamma))


def test_surrogate_state_selects_as_the_fallback():
    # distorted greedy over the Cholesky state picks the set that
    # per-candidate value differences pick
    rng = np.random.default_rng(89)
    for t in range(30):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, n + 1))
        gamma = 0.0 if t % 2 else float(rng.uniform(0.0, 0.3))
        slc = rs.SlcInstance(rs.sample_slc_matrix(n, seed=500 + t), n)
        reg = rs.surrogate_instance(slc.weak_instance(gamma), k)
        assert len(reg.oracle.empty()) == 3  # the Cholesky state, not a plain list
        hidden = rs.RegularizedInstance(ValueOnly(reg.oracle), reg.cost, k)
        assert rs.distorted_greedy(reg) == rs.distorted_greedy(hidden)
        # the same density as an arbitrary rho callable takes the fallback
        arbitrary = rs.surrogate_instance(
            rs.WeakSubmodularInstance(lambda S: slc.log_density(S), gamma, n), k)
        assert isinstance(arbitrary.oracle.empty(), list)
        assert rs.distorted_greedy(arbitrary) == rs.distorted_greedy(reg)


def test_surrogate_oracle_examples():
    vals = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
            frozenset({0, 1}): 1.3}
    inst = table_instance(vals, 0.5, 2)
    oracle = rs.SurrogateOracle(inst)
    assert oracle.offset == 0.0
    assert oracle.value(()) == 0.0
    assert oracle.value((0,)) == pytest.approx(1.2)  # 1.0 + cost 0.2
    assert oracle.value((0, 1)) == pytest.approx(1.2)  # 0.8 + 0.4


def test_surrogate_offset_branch_keeps_f_unshifted_in_argmax():
    vals = {frozenset(): -0.7, frozenset({0}): 0.1, frozenset({1}): -0.2,
            frozenset({0, 1}): 0.3}
    inst = table_instance(vals, 0.2, 2)
    oracle = rs.SurrogateOracle(inst)
    assert oracle.offset == pytest.approx(0.7)
    reg = rs.surrogate_instance(inst, 2)
    # f(S) = corrected(S) + offset, so argmax over S is argmax of corrected
    f_by_set = {S: reg.f(S) for S in [(), (0,), (1,), (0, 1)]}
    lam_by_set = {S: lambda_value(inst, S) for S in f_by_set}
    assert max(f_by_set, key=f_by_set.get) == max(lam_by_set, key=lam_by_set.get)
    for S in f_by_set:
        assert f_by_set[S] == pytest.approx(lam_by_set[S] + oracle.offset)


def test_surrogate_is_monotone_and_submodular():
    rng = np.random.default_rng(67)
    done = 0
    while done < 25:
        n = int(rng.integers(2, 7))
        inst = random_weak_instance(rng, n)
        if not math.isfinite(inst.rho_of(tuple(range(n)))):
            continue
        done += 1
        oracle = rs.SurrogateOracle(inst)
        table = value_table(oracle.value, n)
        assert worst_monotonicity_violation(table, n) <= 1e-9
        assert worst_submodularity_violation(table, n) <= 1e-9
        assert oracle.value(()) == pytest.approx(0.0, abs=1e-12)


def test_check_gamma_weak_examples():
    inst = two_point_instance()
    ok, worst = rs.check_gamma_weak(inst)
    assert ok and worst == pytest.approx(0.0, abs=1e-12)
    tight = rs.WeakSubmodularInstance(inst.rho, 0.4, 2)
    ok, worst = rs.check_gamma_weak(tight)
    assert not ok
    assert worst == pytest.approx(0.1)
    # one element leaves no (S, u, v) triple: a vacuous pass
    assert rs.check_gamma_weak(rs.WeakSubmodularInstance(lambda S: 0.0, 0.0, 1)) == (True, 0.0)


def test_check_gamma_weak_handles_minus_inf():
    vals = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
            frozenset({0, 1}): -math.inf}
    inst = table_instance(vals, 0.0, 2)
    ok, worst = rs.check_gamma_weak(inst)
    assert ok and worst <= 0.0
    # a -inf singleton with finite pair value breaks the inequality
    vals2 = {frozenset(): 0.0, frozenset({0}): -math.inf, frozenset({1}): 1.0,
             frozenset({0, 1}): 1.0}
    ok2, worst2 = rs.check_gamma_weak(table_instance(vals2, 0.0, 2))
    assert not ok2
    assert worst2 == math.inf


def test_check_gamma_weak_guard_and_modes():
    inst = rs.WeakSubmodularInstance(lambda S: 0.0, 0.0, EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(ValueError):
        rs.check_gamma_weak(inst)


def test_slc_instance_validation():
    with pytest.raises(ValueError):
        rs.SlcInstance(np.array([[1.0, 2.0]]), 1)
    with pytest.raises(ValueError):
        rs.SlcInstance(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError, match="^L must be positive semidefinite$"):
        rs.SlcInstance(np.array([[-1.0]]), 1)
    # singular PSD kernels pass, and so does an eigenvalue of -1e-9
    for L in (np.diag([1.0, 0.0]), np.zeros((3, 3)), np.diag([1.0, -1e-9])):
        rs.SlcInstance(L, 2)
    with pytest.raises(ValueError):
        rs.SlcInstance(np.eye(2), -1)


def test_slc_log_density_values():
    inst = rs.SlcInstance(np.array([[4.0]]), 1)
    assert inst.log_density(()) == 0.0
    assert inst.log_density((0,)) == pytest.approx(math.log(2.0))
    # cap exceeded and singular minors both score -inf
    capped = rs.SlcInstance(np.eye(3), 2)
    assert capped.log_density((0, 1, 2)) == -math.inf
    singular = rs.SlcInstance(np.ones((2, 2)), 2)
    assert singular.log_density((0, 1)) == -math.inf
    ident = rs.SlcInstance(np.eye(3), 3)
    assert ident.log_density((0, 2)) == pytest.approx(0.0)


def test_slc_log_density_is_half_logdet():
    L = rs.sample_slc_matrix(6, seed=9)
    inst = rs.SlcInstance(L, 6)
    for S in [(0,), (1, 3), (0, 2, 4), tuple(range(6))]:
        sub = L[np.ix_(S, S)]
        expect = 0.5 * math.log(np.linalg.det(sub))
        assert inst.log_density(S) == pytest.approx(expect, rel=1e-9)


def test_sample_slc_matrix_spectrum_matches_draws():
    n, seed = 8, 42
    L = rs.sample_slc_matrix(n, mu=0.5, sigma=0.8, seed=seed)
    assert np.allclose(L, L.T)
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.lognormal(mean=0.5, sigma=0.8, size=n))
    got = np.sort(np.linalg.eigvalsh(L))
    assert np.allclose(got, eigs, rtol=1e-9)
    with pytest.raises(ValueError):
        rs.sample_slc_matrix(0)


def test_slc_weak_instance_round_trip():
    L = rs.sample_slc_matrix(5, seed=4)
    inst = rs.SlcInstance(L, 5)
    weak = inst.weak_instance(0.3)
    assert weak.n == 5
    assert weak.gamma == 0.3
    assert weak.rho_of((1, 0)) == inst.log_density((0, 1))


def test_density_bound_with_quadratic_correction():
    # rho of the greedy pick is bounded below by the density optimum minus
    # the derived cost and a gamma-sized quadratic correction
    rng = np.random.default_rng(79)
    for t in range(15):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(4, n + 1)))
        L = rs.sample_slc_matrix(n, seed=200 + t)
        slc = rs.SlcInstance(L, n)
        _, worst = rs.check_gamma_weak(slc.weak_instance(0.0))
        gamma = max(0.0, worst)
        weak = slc.weak_instance(gamma)
        reg = rs.surrogate_instance(weak, k)
        picked = rs.distorted_greedy(reg)
        # the single-machine single-round run is the same algorithm
        assert tuple(picked) == rs.run_distributed(
            reg, rs.DistributedConfig(m=1, eps=1.0, seed=t)).elements
        opt_rho, opt_set = max(
            (slc.log_density(S), S) for size in range(k + 1)
            for S in itertools.combinations(range(n), size))
        cost_opt = reg.cost(opt_set)
        l = len(opt_set)
        shrink = 1.0 - math.exp(-1.0)
        correction = 0.5 * gamma * (shrink * l * (l - 1)
                                    - len(picked) * (len(picked) - 1))
        bound = shrink * opt_rho - math.exp(-1.0) * cost_opt - correction
        assert slc.log_density(picked) >= bound - 1e-9


def test_argmax_invariant_under_density_normalization():
    # dropping a normalization constant shifts every rho value equally, so
    # the surrogate argmax cannot move
    L = rs.sample_slc_matrix(6, seed=21)
    slc = rs.SlcInstance(L, 6)
    table = {frozenset(S): slc.log_density(S)
             for size in range(7) for S in itertools.combinations(range(6), size)}
    _, worst = rs.check_gamma_weak(slc.weak_instance(0.0))
    gamma = max(0.0, worst)
    picks = []
    for shift in (0.0, 2.5, -1.75):
        inst = rs.WeakSubmodularInstance(
            lambda S, c=shift: table[frozenset(S)] + c, gamma, 6)
        reg = rs.surrogate_instance(inst, 3)
        picks.append(rs.brute_force_opt(reg)[0])
    assert picks[0] == picks[1] == picks[2]


def test_mode_finding_pipeline_quality():
    # distorted greedy on the surrogate recovers a set whose corrected value
    # is within the (1 - 1/e) * corrected(OPT) - cost(OPT) guarantee
    rng = np.random.default_rng(73)
    for t in range(15):
        n = int(rng.integers(3, 7))
        L = rs.sample_slc_matrix(n, seed=100 + t)
        inst = rs.SlcInstance(L, n)
        weak = inst.weak_instance(0.0)
        ok, worst = rs.check_gamma_weak(weak)
        gamma = max(0.0, worst)
        weak = inst.weak_instance(gamma + 1e-12)
        reg = rs.surrogate_instance(weak, k=min(3, n))
        picked = rs.distorted_greedy(reg)
        opt_set, opt_val = rs.brute_force_opt(reg)
        oracle = reg.oracle
        target = ((1 - math.exp(-1)) * oracle.value(opt_set)
                  - reg.cost(opt_set))
        assert reg.f(picked) >= target - 1e-9
        # reported density never exceeds the exhaustive mode
        assert reg.f(picked) <= opt_val + 1e-9


def test_reduction_rejects_infinite_rho_where_it_needs_finite():
    # finite at the full set, -inf at the leave-one-out set {1, 2}
    loo = rs.WeakSubmodularInstance(
        lambda S: -math.inf if S == (1, 2) else float(len(S)), 0.0, 3)
    with pytest.raises(ValueError, match="rho must be finite at every leave-one-out set"):
        rs.derived_cost(loo)
    # finite everywhere but at the empty set
    empty = rs.WeakSubmodularInstance(lambda S: float(len(S)) if S else -math.inf, 0.0, 3)
    rs.derived_cost(empty)
    with pytest.raises(ValueError, match="rho must be finite at the empty set"):
        rs.SurrogateOracle(empty)


def test_surrogate_gains_read_zero_for_members():
    rng = np.random.default_rng(13)
    for gamma in (0.0, 0.2):
        reg = rs.surrogate_instance(rs.SlcInstance(rs.sample_slc_matrix(12, seed=4), 12)
                                    .weak_instance(gamma), 6)
        oracle, S = reg.oracle, []
        st = oracle.empty()
        for u in rng.choice(12, size=5, replace=False).tolist():
            oracle.add(st, u)
            S.append(u)
            gains = oracle.gains(st, np.arange(12))
            assert gains[S].tolist() == [0.0] * len(S)
            outside = [v for v in range(12) if v not in S]
            assert gains[outside] == pytest.approx([oracle.marginal(v, S) for v in outside])
