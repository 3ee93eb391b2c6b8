import numpy as np
import pytest

import regsubmax as rs
from conftest import make_instance


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
    with pytest.raises(ValueError):
        rs.RegularizedInstance(oracle, cost, 0)
    with pytest.raises(ValueError):
        rs.RegularizedInstance(oracle, rs.ModularCost(np.zeros(3)), 1)
    inst = rs.RegularizedInstance(oracle, cost, 2)
    assert inst.f([0, 1]) == 3.0


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


ENTRY_POINTS = {
    "greedy": ("logdet", lambda inst, ids: rs.vanilla_greedy(inst, candidates=ids)),
    "distorted-greedy": ("facility",
                         lambda inst, ids: rs.distorted_greedy(inst, candidates=ids)),
    "sieve": ("vertex-cover", lambda inst, ids: rs.sieve_streaming(ids, inst, 0.1)),
    "distorted-streaming": ("vertex-cover",
                            lambda inst, ids: rs.distorted_streaming(ids, inst, 0.1, 0.2)),
    "threshold-streaming": ("vertex-cover",
                            lambda inst, ids: rs.threshold_streaming(ids, inst, 1.0, 0.01)),
}


@pytest.mark.parametrize("algo", sorted(ENTRY_POINTS))
def test_entry_points_reject_ids_outside_ground_set(algo):
    kind, run = ENTRY_POINTS[algo]
    inst = make_instance(np.random.default_rng(3), kind, 8, 3)
    run(inst, [0, 7])
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="outside ground set"):
            run(inst, [0, bad])


@pytest.mark.parametrize("algo", ["sieve", "distorted-streaming", "threshold-streaming"])
def test_stream_entry_points_reject_repeated_ids(algo):
    # a repeated id would be offered twice and could be selected twice
    kind, run = ENTRY_POINTS[algo]
    inst = make_instance(np.random.default_rng(3), kind, 8, 3)
    with pytest.raises(ValueError, match="repeated"):
        run(inst, [0, 0])
    with pytest.raises(ValueError, match="repeated"):
        run(inst, [3, 0, 5, 0])
