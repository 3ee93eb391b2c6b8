import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import regsubmax as rs
import regsubmax.datasets as ds
from conftest import make_instance
from regsubmax.core import checked_scalar
from regsubmax.experiments import ExperimentConfig
from regsubmax.streaming import geometric_index_range


def test_modular_cost_basics():
    cost = rs.ModularCost(np.array([1.0, 2.5, 0.0]))
    assert cost(()) == 0.0
    assert cost([0, 2]) == 1.0
    assert cost[1] == 2.5
    assert len(cost) == 3


def test_modular_cost_rejects_bad_vectors():
    with pytest.raises(ValueError):
        rs.ModularCost(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        rs.ModularCost(np.array([np.inf, 1.0]))
    with pytest.raises(ValueError):
        rs.ModularCost(np.eye(2))


def test_instance_validation():
    oracle = rs.ModularOracle([1.0, 2.0])
    cost = rs.ModularCost(np.zeros(2))
    for k in (0, np.nan, np.inf, 2.5, True):
        with pytest.raises(ValueError):
            rs.RegularizedInstance(oracle, cost, k)
    with pytest.raises(ValueError):
        rs.RegularizedInstance(oracle, rs.ModularCost(np.zeros(3)), 1)
    inst = rs.RegularizedInstance(oracle, cost, 2)
    assert inst.f([0, 1]) == 3.0


def test_checked_scalar_rule():
    assert checked_scalar(np.int64(3), "k", int, "[1, inf)") == 3
    assert checked_scalar(1, "r", float, "(0, 1]") == 1
    for x in (0.0, 1.0):
        assert checked_scalar(x, "p", float, "[0, 1]") == x
        with pytest.raises(ValueError, match=r"^p must be a finite float in \(0, 1\), got"):
            checked_scalar(x, "p", float, "(0, 1)")
    for x in (np.nan, np.inf, -np.inf, "1", None, np.float64(np.nan)):
        with pytest.raises(ValueError, match="^x must be a finite float"):
            checked_scalar(x, "x", float, "(-inf, inf)")
    for x in (3.0, np.float64(3.0), True, np.bool_(True)):
        with pytest.raises(ValueError, match="^k must be a finite int"):
            checked_scalar(x, "k", int, "[1, inf)")


_INST = rs.RegularizedInstance(rs.ModularOracle([3.0, 1.0]), rs.ModularCost([0.5, 0.5]), 2)

# (entry point called with the value under test, pattern of the name its
# message starts with, kind, a valid value).  A config's annotation check
# names the key before ``validate`` sees the value.
SCALAR_ENTRY_POINTS = {
    "approx_factor-r": (rs.approx_factor, "trade-off r", float, 1.0),
    "cost_multiplier-r": (rs.cost_multiplier, "trade-off r", float, 0.0),
    "geometric_index_range-base":
        (lambda x: geometric_index_range(1.0, 8.0, x), "base", float, 2.0),
    "threshold_index_range-eps":
        (lambda x: rs.threshold_index_range(1.0, 2, 1.0, x), "eps", float, 0.5),
    "ThresholdBank-k": (lambda x: rs.ThresholdBank(1.0, x, 0.1), "budget k", int, 3),
    "threshold_streaming-tau":
        (lambda x: rs.threshold_streaming([0, 1], _INST, 1.0, x), "tau", float, -10.0),
    "beta_for_ratio-ratio": (rs.beta_for_ratio, "target ratio", float, 0.25),
    "r_for_beta-beta": (rs.r_for_beta, "beta", float, 1.0),
    "ratio_for_beta-beta": (rs.ratio_for_beta, "beta", float, 1.0),
    "ratio_grid-eps": (lambda x: rs.ratio_grid(x, 0.1), "eps", float, 0.5),
    "ratio_grid-delta": (lambda x: rs.ratio_grid(0.1, x), "delta", float, 0.1),
    "RoundAssignment.draw-m":
        (lambda x: rs.RoundAssignment.draw(5, x, 0, 1), "machine count", int, 1),
    "LogDetOracle-alpha": (lambda x: rs.LogDetOracle(np.eye(2), x), "alpha", float, 1.0),
    "ReservoirEstimator-capacity": (rs.ReservoirEstimator, "capacity", int, 0),
    "SaturatingCoverageOracle-score":
        (lambda x: rs.SaturatingCoverageOracle([(0, 1, x)], 2),
         "score of word 0, element 1", float, 0.0),
    "WeakSubmodularInstance-gamma":
        (lambda x: rs.WeakSubmodularInstance(len, x, 2), "gamma", float, 0.0),
    "WeakSubmodularInstance-n":
        (lambda x: rs.WeakSubmodularInstance(len, 0.0, x), "ground set size n", int, 1),
    "SlcInstance-d": (lambda x: rs.SlcInstance(np.eye(2), x), "support cap d", int, 0),
    "sample_slc_matrix-n": (rs.sample_slc_matrix, "n", int, 1),
    "sample_slc_matrix-mu": (lambda x: rs.sample_slc_matrix(3, x), "mu", float, -2.0),
    "sample_slc_matrix-sigma":
        (lambda x: rs.sample_slc_matrix(3, 1.0, x), "sigma", float, 0.0),
    "random_digraph-n": (lambda x: ds.random_digraph(x, 0.5), "n", int, 1),
    "random_digraph-p": (lambda x: ds.random_digraph(4, x), "edge probability p", float, 1.0),
    "brute_force_distorted-k":
        (lambda x: rs.brute_force_distorted(_INST, 1.0, 1.0, x), "budget k", int, 0),
    "brute_force_tau-eps": (lambda x: rs.brute_force_tau(_INST, 1.0, x), "eps", float, 0.0),
    "brute_force_tau-c": (lambda x: rs.brute_force_tau(_INST, 1.0, 0.1, x), "c", float, 1.0),
    "check_gamma_weak-samples":
        (lambda x: rs.check_gamma_weak(rs.WeakSubmodularInstance(len, 0.0, 3), "sampled", x),
         "samples", int, 1),
    "ExperimentConfig-eps": (lambda x: ExperimentConfig(eps=x), "(config 'eps'|eps)", float, 0.1),
    "ExperimentConfig.validate-ks":
        (lambda x: ExperimentConfig(dataset="d", ks=(3, x)).validate(),
         "(config 'ks'|budget k)", int, 1),
    "ExperimentConfig.validate-seeds":
        (lambda x: ExperimentConfig(dataset="d", seeds=(0, x)).validate(),
         "(config 'seeds'|seed)", int, 0),
    "random_digraph-seed": (lambda x: ds.random_digraph(4, 0.5, x), "seed", int, 0),
    "resolve_stream_order-seed":
        (lambda x: ds.resolve_stream_order("shuffled", 4, x), "seed", int, 0),
    "check_gamma_weak-seed":
        (lambda x: rs.check_gamma_weak(rs.WeakSubmodularInstance(len, 0.0, 3), "sampled", 1, x),
         "seed", int, 0),
    "sample_slc_matrix-seed": (lambda x: rs.sample_slc_matrix(3, 1.0, 1.0, x), "seed", int, 0),
    "ExperimentConfig.validate-machines":
        (lambda x: ExperimentConfig(dataset="d", machines=x).validate(),
         "(config 'machines'|machine count)", int, 1),
}


@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_scalar_parameters_reject_non_finite_and_wrong_kind(entry):
    call, name, kind, valid = SCALAR_ENTRY_POINTS[entry]
    call(valid)
    for x in [np.nan, np.inf, -np.inf, True] + ([2.5, 3.0] if kind is int else []):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(x)


def test_instance_f_is_g_minus_cost():
    rng = np.random.default_rng(0)
    oracle = rs.ModularOracle(rng.uniform(0, 3, 6))
    cost = rs.ModularCost(rng.uniform(0, 2, 6))
    inst = rs.RegularizedInstance(oracle, cost, 3)
    for S in ([], [2], [0, 4], [1, 3, 5]):
        assert inst.f(S) == pytest.approx(oracle.value(S) - cost(S), abs=1e-12)


def test_counting_oracle_counts_each_surface():
    counter = rs.CountingOracle(rs.ModularOracle([1.0, 2.0, 3.0]))
    assert counter.calls == 0
    counter.value([0, 1])
    counter.value(())
    counter.marginal(2, [0])
    assert counter.value_calls == 2
    assert counter.marginal_calls == 1
    assert counter.calls == 3


def test_counting_does_not_charge_inner_work():
    # default marginal on the inner oracle costs two inner value calls, but
    # the wrapper only sees the one marginal invocation
    class Slow(rs.SubmodularOracle):
        def __init__(self):
            self.n = 3

        def value(self, S):
            return float(len(list(S)))

    counter = rs.CountingOracle(Slow())
    counter.marginal(0, [1])
    assert counter.calls == 1


def test_solution_evaluate_and_best():
    oracle = rs.ModularOracle([2.0, 1.0])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.array([0.5, 0.0])), 2)
    a = rs.Solution.evaluate(inst, (0,), "a")
    b = rs.Solution.evaluate(inst, (1,), "b")
    assert a.f_value == pytest.approx(1.5)
    assert a.g_value == pytest.approx(2.0)
    assert a.ell_value == pytest.approx(0.5)
    assert rs.best_solution([a, b]).provenance == "a"
    # ties keep the first candidate
    c = rs.Solution.evaluate(inst, (0,), "c")
    assert rs.best_solution([a, c]).provenance == "a"
    with pytest.raises(ValueError):
        rs.best_solution([])


@pytest.mark.parametrize("score", ["f", "evaluate"])
def test_set_scores_reject_repeated_and_outside_ids(score):
    # the cost would count a repeated id twice while g reads a set
    inst = rs.RegularizedInstance(rs.ModularOracle([3.0, 1.0]),
                                  rs.ModularCost(np.array([1.0, 0.5])), 2)
    run = {"f": inst.f, "evaluate": lambda S: rs.Solution.evaluate(inst, S).f_value}[score]
    assert run([0]) == 2.0
    with pytest.raises(ValueError, match="repeated"):
        run([0, 0])
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="outside ground set"):
            run([bad])


def _stream_order_file(inst, ids):
    # the ids as a stream-order file, replayed through resolve_stream_order
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "order.txt"
        path.write_text("".join(f"{u}\n" for u in ids))
        return rs.sieve_streaming(ds.resolve_stream_order(f"file:{path}", inst.n), inst, 0.1)


ENTRY_POINTS = {
    "greedy": ("logdet", lambda inst, ids: rs.vanilla_greedy(inst, candidates=ids)),
    "distorted-greedy": ("facility",
                         lambda inst, ids: rs.distorted_greedy(inst, candidates=ids)),
    "sieve": ("vertex-cover", lambda inst, ids: rs.sieve_streaming(ids, inst, 0.1)),
    "distorted-streaming": ("vertex-cover",
                            lambda inst, ids: rs.distorted_streaming(ids, inst, 0.1, 0.2)),
    "threshold-streaming": ("vertex-cover",
                            lambda inst, ids: rs.threshold_streaming(ids, inst, 1.0, 0.01)),
    "f": ("facility", lambda inst, ids: inst.f(ids)),
    "evaluate": ("logdet", lambda inst, ids: rs.Solution.evaluate(inst, ids)),
    "reservoir": ("facility", lambda inst, ids: rs.reservoir_facility_estimate(
        rs.ReservoirEstimator(2).update(0).update(5), lambda i: np.eye(inst.n)[i], ids)),
    "stream-order-file": ("vertex-cover", _stream_order_file),
}


@pytest.mark.parametrize("algo", sorted(ENTRY_POINTS))
def test_entry_points_reject_ids_outside_ground_set(algo):
    kind, run = ENTRY_POINTS[algo]
    inst = make_instance(np.random.default_rng(3), kind, 8, 3)
    run(inst, [0, 7])
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="outside ground set"):
            run(inst, [0, bad])
    # an id is never rounded: a float or a bool names no element, not even 1.0
    # or True; a stream-order file rejects such a line as a non-integer id
    for bad in (1.5, 1.0, True, np.float64(2.0), np.bool_(False)):
        with pytest.raises(ValueError, match=rf"id .*{re.escape(str(bad))}"):
            run(inst, [0, bad])
    # any iterable of ints is an id set, and its form does not change the answer
    for ids in ([], {0, 7}, range(8), np.arange(8), np.array([7, 0], dtype=np.int32)):
        assert run(inst, ids) == run(inst, [int(u) for u in ids])


@pytest.mark.parametrize("algo", sorted(ENTRY_POINTS))
def test_stream_entry_points_reject_repeated_ids(algo):
    # a repeated id would be offered (or charged) twice and could be selected twice
    kind, run = ENTRY_POINTS[algo]
    inst = make_instance(np.random.default_rng(3), kind, 8, 3)
    with pytest.raises(ValueError, match="repeated"):
        run(inst, [0, 0])
    with pytest.raises(ValueError, match="repeated"):
        run(inst, [3, 0, 5, 0])
    with pytest.raises(ValueError, match=r"element id \S*5\S* repeated"):
        run(inst, np.array([5, 1, 5]))
