"""Tests of the benchmark's own correctness gate and tracer.

    python3 -m pytest perfbench/test_gate.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import regsubmax as rs  # noqa: E402
from regsubmax import core, distributed  # noqa: E402
from loop import peak_solve_kb  # noqa: E402
from tracer import TracedOracle, Tracer  # noqa: E402
from workloads import Solve, _digraph  # noqa: E402


def _cover(seed=3, n=60, k=5):
    rng = np.random.default_rng(seed)
    src, dst = _digraph(rng, n, 4.0)
    graph = rs.DirectedGraph.from_edges(zip(src.tolist(), dst.tolist()))
    oracle = rs.VertexCoverOracle(graph)
    inst = rs.RegularizedInstance(oracle, rs.vertex_cover_cost(graph.out_degrees(), 2), k)
    return inst, gate.CoverRef(n, src, dst, 2)


def _reported(inst, S):
    sol = core.Solution.evaluate(inst, S)
    return sol.f_value, sol.g_value, sol.ell_value


def test_accepts_a_library_solution_and_its_golden():
    inst, ref = _cover()
    S = rs.distorted_greedy(inst)
    assert gate.check(S, inst.k, ref, _reported(inst, S), gate.fingerprint(S)) == []


@pytest.mark.parametrize("perturb", ["swap", "over-budget", "duplicate", "out-of-range"])
def test_rejects_a_perturbed_selection(perturb):
    inst, ref = _cover()
    S = rs.distorted_greedy(inst)
    reported = _reported(inst, S)
    outside = next(u for u in range(inst.n) if u not in S)
    bad = {"swap": S[:-1] + [outside],
           "over-budget": S + [outside] * (inst.k + 1 - len(S)),
           "duplicate": S[:-1] + [S[0]],
           "out-of-range": S[:-1] + [inst.n]}[perturb]
    assert gate.check(bad, inst.k, ref, reported, gate.fingerprint(S))


def test_rejects_a_different_selection_with_honest_scores():
    inst, ref = _cover()
    S = rs.distorted_greedy(inst)
    other = S[:-1] + [next(u for u in range(inst.n) if u not in S)]
    problems = gate.check(other, inst.k, ref, _reported(inst, other), gate.fingerprint(S))
    assert problems and "golden" in problems[0]


def test_rejects_misreported_values():
    inst, ref = _cover()
    S = rs.distorted_greedy(inst)
    f, g, ell = _reported(inst, S)
    assert gate.check(S, inst.k, ref, (f + 1e-3, g, ell))


@pytest.mark.parametrize("kind", ["facility", "logdet", "surrogate"])
def test_references_agree_with_library_oracles(kind):
    rng = np.random.default_rng(5)
    n = 12
    X = rng.standard_normal((n, 3))
    costs = rng.uniform(0, 0.1, n)
    if kind == "facility":
        oracle = rs.FacilityLocationOracle(rs.similarity_from_features(X))
        inst, ref = rs.RegularizedInstance(oracle, rs.ModularCost(costs), 4), gate.FacilityRef(X, costs)
    elif kind == "logdet":
        oracle = rs.LogDetOracle(rs.similarity_from_features(X), 0.7)
        inst, ref = (rs.RegularizedInstance(oracle, rs.ModularCost(costs), 4),
                     gate.LogDetRef(X, 0.7, costs))
    else:
        L = rs.sample_slc_matrix(n, seed=2)
        inst = rs.surrogate_instance(rs.SlcInstance(L, d=n).weak_instance(0.0), 4)
        ref = gate.SurrogateRef(L)
    for size in range(5):
        S = [int(u) for u in rng.choice(n, size, replace=False)]
        assert gate.check(S, inst.k, ref, _reported(inst, S)) == []


def test_tracer_restores_entry_points_and_counts_calls():
    inst, _ = _cover()
    originals = (distributed.distorted_greedy, core.Solution.__dict__["evaluate"])
    tracer = Tracer()
    traced = rs.RegularizedInstance(TracedOracle(inst.oracle, tracer), inst.cost, inst.k)
    with tracer.installed():
        S = distributed.distorted_greedy(traced)
    assert (distributed.distorted_greedy, core.Solution.__dict__["evaluate"]) == originals
    assert S == rs.distorted_greedy(inst)
    (span,) = tracer.spans
    assert span["name"] == "distributed.distorted_greedy"
    assert span["marginal_calls"] == traced.oracle.totals[1] > 0


def test_peak_solve_kb_runs_only_marked_solves():
    inst, ref = _cover()
    marked = Solve("greedy", inst, ref, lambda instance, stream, diag:
                   rs.distorted_greedy(instance), mem=True)
    unmarked = Solve("big", inst, ref, lambda instance, stream, diag: bytearray(8 << 20))
    kb = peak_solve_kb([marked, unmarked])
    assert 0 < kb < 1024


def test_composite_prefixes_labels_and_finds_the_runner_part(tmp_path):
    from workloads import Composite, DistributedCover, StreamCover
    cover, dist = StreamCover(), DistributedCover()
    cover.parts, cover.n, dist.parts, dist.n = 1, 40, 2, 40
    workload = Composite("mixed", cover, dist)
    inputs = workload.generate(3, tmp_path)
    labels = [s.label for s in workload.solves(inputs, workload.setup(inputs))]
    assert len(labels) == len(set(labels)) == 2 * len(cover.ks) + dist.parts
    assert {label.split("/")[0] for label in labels} == {cover.name, dist.name}
    member, part = workload.runner_part(inputs)
    assert member is dist and part is inputs[1][0]
