import math
from collections import Counter

import numpy as np
import pytest

import regsubmax as rs
from conftest import (distributed_reference, machine_of, make_instance, random_digraph_dense,
                      KINDS)


def test_distorted_greedy_three_node(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 1)
    assert rs.distorted_greedy(inst) == [0]
    assert inst.f([0]) == pytest.approx(2.0)


def test_distorted_greedy_skips_unprofitable_rounds():
    # second pick has distorted score <= 0 and must be skipped, not forced
    oracle = rs.ModularOracle([2.0, 0.3])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.array([0.1, 0.5])), 2)
    assert rs.distorted_greedy(inst) == [0]


def test_distorted_greedy_candidate_restriction(three_node_cover):
    _, oracle, cost = three_node_cover
    inst = rs.RegularizedInstance(oracle, cost, 1)
    assert rs.distorted_greedy(inst, candidates=[1, 2]) == [1]
    assert rs.distorted_greedy(inst, candidates=[2]) == []  # score ties 0, skip


def test_distorted_greedy_prefers_small_id_on_ties():
    oracle = rs.ModularOracle([1.0, 1.0, 1.0])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.zeros(3)), 2)
    assert rs.distorted_greedy(inst) == [0, 1]


def test_distorted_greedy_k_equals_one():
    oracle = rs.ModularOracle([0.4, 0.9])
    inst = rs.RegularizedInstance(oracle, rs.ModularCost(np.array([0.0, 0.1])), 1)
    assert rs.distorted_greedy(inst) == [1]


def test_distorted_greedy_guarantee_random():
    # f(R) >= (1 - 1/e) g(OPT) - cost(OPT) on exhaustively solvable instances
    rng = np.random.default_rng(3)
    for t in range(60):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        inst = make_instance(rng, KINDS[t % 5], n, k)
        opt_set, _ = rs.brute_force_opt(inst)
        target = (1 - math.exp(-1)) * inst.oracle.value(opt_set) - inst.cost(opt_set)
        assert inst.f(rs.distorted_greedy(inst)) >= target - 1e-9


def test_machine_assignment_range_and_determinism():
    a = [machine_of(9, 2, e, 5) for e in range(200)]
    b = [machine_of(9, 2, e, 5) for e in range(200)]
    assert a == b
    assert all(0 <= x < 5 for x in a)
    # different rounds reshuffle elements
    c = [machine_of(9, 3, e, 5) for e in range(200)]
    assert a != c


def test_machine_assignment_is_roughly_uniform():
    m = 4
    counts = Counter(machine_of(123, 0, e, m) for e in range(40000))
    expect = 40000 / m
    sigma = math.sqrt(40000 * (1 / m) * (1 - 1 / m))
    for i in range(m):
        assert abs(counts[i] - expect) < 5 * sigma


@pytest.mark.parametrize("seed,round_index,m", [
    (0, 1, 1), (5, 1, 3), (9, 2, 8), (2**63 + 5, 7, 5), (2**64 - 1, 2**40, 1000),
    (-3, 1, 2), (2**70 + 11, 3, 2**33 + 1)])
def test_round_assignment_matches_scalar_machine_of(seed, round_index, m):
    asg = rs.RoundAssignment.draw(n=300, m=m, seed=seed, round_index=round_index)
    assert asg.machines.tolist() == [machine_of(seed, round_index, u, m)
                                     for u in range(300)]
    assert asg.shard(1).tolist() == [u for u in range(300) if asg.machines[u] == 1]


def test_round_assignment_partitions_ground_set():
    asg = rs.RoundAssignment.draw(n=50, m=3, seed=5, round_index=1)
    shards = [asg.shard(i) for i in range(3)]
    merged = sorted(u for s in shards for u in s)
    assert merged == list(range(50))


def test_config_round_count():
    assert rs.DistributedConfig(m=2, eps=1.0).rounds == 1
    assert rs.DistributedConfig(m=2, eps=0.5).rounds == 2
    assert rs.DistributedConfig(m=2, eps=0.3).rounds == 4
    assert rs.DistributedConfig(m=2, eps=0.26).rounds == 4
    assert rs.DistributedConfig(m=2, eps=2.0).rounds == 1
    for m in (0, 2.5):
        with pytest.raises(ValueError):
            rs.DistributedConfig(m=m, eps=0.5)
    for eps in (0.0, math.inf):
        with pytest.raises(ValueError):
            rs.DistributedConfig(m=2, eps=eps)
    with pytest.raises(ValueError, match="machine count"):
        rs.RoundAssignment.draw(5, 0, 0, 1)


def test_single_machine_single_round_matches_serial():
    rng = np.random.default_rng(29)
    for t in range(20):
        n = int(rng.integers(4, 12))
        inst = make_instance(rng, KINDS[t % 5], n, int(rng.integers(1, 4)))
        dist = rs.run_distributed(inst, rs.DistributedConfig(m=1, eps=1.0, seed=t))
        serial = rs.distorted_greedy(inst)
        assert list(dist.elements) == serial
        assert dist.f_value == pytest.approx(inst.f(serial))


def test_distributed_is_deterministic_given_seed():
    rng = np.random.default_rng(41)
    inst = make_instance(rng, "facility", 20, 4)
    cfg = rs.DistributedConfig(m=3, eps=0.5, seed=7)
    a = rs.run_distributed(inst, cfg)
    b = rs.run_distributed(inst, cfg)
    assert a.elements == b.elements
    assert a.f_value == b.f_value
    other = rs.run_distributed(inst, rs.DistributedConfig(m=3, eps=0.5, seed=8))
    assert other.f_value >= 0.0


def test_distributed_pool_grows_and_metrics_recorded():
    rng = np.random.default_rng(43)
    inst = make_instance(rng, "vertex-cover", 30, 4)
    cfg = rs.DistributedConfig(m=3, eps=0.34, seed=1)  # 3 rounds
    counted, counter = inst.counted()
    pool = []
    sol = rs.run_distributed(counted, cfg, pool_out=pool)
    assert cfg.rounds == 3
    assert [note["round"] for note in counter.notes] == [1, 2, 3]
    assert [note["pool_sets"] for note in counter.notes] == [0, 3, 6]
    # pool_out keeps every produced (round, machine, set): machine 1 alone
    # runs the final round
    assert len(pool) == 7
    assert [(rd, i) for rd, i, _ in pool] == [(rd, i) for rd in (1, 2)
                                              for i in (1, 2, 3)] + [(3, 1)]
    assert [len(note["candidates"]) for note in counter.notes] == [3, 3, 1]
    calls = [0] + [note["calls"] for note in counter.notes]
    assert calls == sorted(calls)  # cumulative
    for note in counter.notes:
        assert len(note["shard_sizes"]) == 3
        assert sum(note["shard_sizes"]) == 30
    assert sol.f_value >= 0.0  # never worse than the empty set


def test_round_metrics_count_calls_with_and_without_a_counting_oracle():
    graph = rs.DirectedGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    inst = rs.RegularizedInstance(rs.VertexCoverOracle(graph),
                                  rs.vertex_cover_cost(graph.out_degrees(), 1), 2)
    counted, counter = inst.counted()
    cfg = rs.DistributedConfig(m=2, eps=0.5)
    # a plain oracle drops the notes and picks the same winner
    assert rs.run_distributed(inst, cfg) == rs.run_distributed(counted, cfg)
    assert [note["calls"] for note in counter.notes] == [8, 8 + 6]
    # the counter sees every call: both machines in round 1, machine 1 in
    # round 2, then one value call per produced set evaluated
    assert counter.calls == 8 + 6 + 3


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
def test_run_distributed_matches_a_union_and_eager_reference(unit, m, eps):
    # pins the candidate set each machine receives: its shard plus every pooled id
    rng = np.random.default_rng(m + 10 * unit + int(100 * eps))
    for seed in range(3):
        n = int(rng.integers(20, 70))
        graph = random_digraph_dense(rng, n, rng.uniform(0.04, 0.15))
        oracle = rs.VertexCoverOracle(graph, None if unit else rng.uniform(0.2, 1.5, n))
        inst = rs.RegularizedInstance(oracle, rs.vertex_cover_cost(graph.out_degrees(), 2),
                                      int(rng.integers(1, 6)))
        cfg = rs.DistributedConfig(m=m, eps=eps, seed=seed)
        counted, counter = inst.counted()
        pool = []
        sol = rs.run_distributed(counted, cfg, pool_out=pool)
        want_pool, want_sol, want_notes = distributed_reference(inst, cfg)
        assert pool == want_pool
        assert sol == want_sol
        assert counter.notes == want_notes
        # running machines 2..m in the final round too changes no winner, no
        # pooled set and no note, apart from the final round's calls and the
        # candidate counts of the machines that now run
        all_pool, all_sol, all_notes = distributed_reference(inst, cfg, all_machines=True)
        assert sol == all_sol
        assert pool == [(rd, i, s) for rd, i, s in all_pool if rd < cfg.rounds or i == 1]
        assert len(all_pool) == cfg.rounds * m
        last, all_last = counter.notes[-1], all_notes[-1]
        assert counter.notes[:-1] == all_notes[:-1]
        assert last["calls"] <= all_last["calls"]
        assert ({**last, "calls": 0} ==
                {**all_last, "calls": 0, "candidates": all_last["candidates"][:1]})


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
def test_round_candidates_are_at_most_the_shard_plus_the_earlier_pools(unit, m):
    # a machine holds its shard and the m * k-bounded sets of each earlier round
    rng = np.random.default_rng(m + 10 * unit)
    for seed, eps in enumerate([0.25, 0.34, 0.5, 1.0] * 2):
        n = int(rng.integers(20, 90))
        graph = random_digraph_dense(rng, n, rng.uniform(0.04, 0.15))
        oracle = rs.VertexCoverOracle(graph, None if unit else rng.uniform(0.2, 1.5, n))
        k = int(rng.integers(1, 6))
        counted, counter = rs.RegularizedInstance(
            oracle, rs.vertex_cover_cost(graph.out_degrees(), 2), k).counted()
        cfg = rs.DistributedConfig(m=m, eps=eps, seed=seed)
        rs.run_distributed(counted, cfg)
        assert [len(note["candidates"]) for note in counter.notes] == (
            [m] * (cfg.rounds - 1) + [1])
        for note in counter.notes:
            for shard, count in zip(note["shard_sizes"], note["candidates"]):
                assert shard <= count <= shard + (note["round"] - 1) * m * k


def test_distributed_winner_at_least_any_earlier_round_set():
    rng = np.random.default_rng(47)
    inst = make_instance(rng, "coverage", 25, 3)
    pool = []
    sol = rs.run_distributed(inst, rs.DistributedConfig(m=2, eps=0.5, seed=3),
                             pool_out=pool)
    rounds = max(rd for rd, _, _ in pool)
    for rd, i, s in pool:
        if rd < rounds or i == 1:
            assert sol.f_value >= inst.f(s) - 1e-12


def test_distributed_mean_meets_guarantee_small():
    # quick statistical check; the acceptance suite runs the larger version
    rng = np.random.default_rng(53)
    inst = make_instance(rng, "modular", 12, 3)
    opt_set, _ = rs.brute_force_opt(inst)
    eps = 0.5
    bound = (1 - eps) * ((1 - math.exp(-1)) * inst.oracle.value(opt_set)
                         - inst.cost(opt_set))
    vals = [rs.run_distributed(inst, rs.DistributedConfig(m=3, eps=eps, seed=s)).f_value
            for s in range(120)]
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert mean >= bound - 3 * sem - 1e-9
