"""The traced run: per-layer metrics from spans and the wrapper oracle.

Order of a traced run: untraced set-up and iterations for half the time
(the baseline for ``trace.overhead_frac``); traced set-up; one counting
iteration that also tracks distinct marginal queries and passes the
algorithms' own diagnostics (peak copies and stored elements); then timed
traced iterations for the other half.  Counts come from the counting
iteration and repeat exactly; times are medians over the timed traced
iterations, in wall seconds.  ``trace.overhead_frac`` alone compares
calibrated sums (calibrate.py), since its two halves run at different
times and the host's speed drifts between them.  A metric whose layer the
workload never calls reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from regsubmax import experiments, modefinding
from regsubmax.core import RegularizedInstance

from calibrate import Calibrator
from loop import SETUP_SHARE, closed_loop, measure_setup, perf, run_iteration
from tracer import TracedOracle, Tracer
from workloads import _distorted_streaming

MIN_TRACED_ITERATIONS = 2
RUNNER_REPS = 3

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json's order."""
    return [(m["name"], m["unit"]) for m in json.loads(BENCHMARK.read_text())["per_layer"]]


def by_layer(spans: list[dict]) -> dict:
    """Per span name: summed wall, driver (wall minus oracle inside), self
    time, marginal calls inside, picks and call count."""
    ids = {s["id"] for s in spans}
    oracle = {s["id"]: s["oracle_s"] for s in spans}
    marginal = {s["id"]: s["marginal_calls"] for s in spans}
    child_s = defaultdict(float)
    for s in reversed(spans):  # children open after, so appear after, parents
        p = s["parent"]
        if p in ids:
            oracle[p] += oracle[s["id"]]
            marginal[p] += marginal[s["id"]]
            child_s[p] += s["end"] - s["start"]
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dur = s["end"] - s["start"]
        row = out[s["name"]]
        row["wall"] += dur
        row["driver"] += dur - oracle[s["id"]]
        row["self"] += dur - child_s[s["id"]] - s["oracle_s"]
        row["marginal"] += marginal[s["id"]]
        row["picked"] += s.get("picked", 0)
        row["calls"] += 1
    return out


def _median(rows: list[dict], key) -> float:
    return statistics.median(key(r) for r in rows)


def _group(oracle: TracedOracle) -> str:
    return ("surrogate" if isinstance(oracle.inner, modefinding.SurrogateOracle)
            else "objectives")


def traced_run(workload, inp, ledger, seconds: float, report, trace_path) -> None:
    per_layer = per_layer_metrics()
    values = {name: 0.0 for name, _ in per_layer}
    notes: dict[str, str] = {}

    setup_budget = SETUP_SHARE * seconds / 2
    loop_seconds = (1 - SETUP_SHARE) * seconds / 2
    calibrator = Calibrator()
    _, ready = measure_setup(workload, inp, setup_budget)
    solves = workload.solves(inp, ready)
    base = closed_loop(solves, ledger, loop_seconds, MIN_TRACED_ITERATIONS, calibrator)
    base_solve = statistics.median(sum(it["scaled"].values()) for it in base)

    tracer = Tracer()
    wrapped: dict[int, TracedOracle] = {}
    for s in solves:
        wrapped.setdefault(id(s.instance.oracle), TracedOracle(s.instance.oracle, tracer))
    instances = {s.label: RegularizedInstance(wrapped[id(s.instance.oracle)],
                                              s.instance.cost, s.instance.k)
                 for s in solves}
    ds_labels = {s.label for s in solves if s.algo is _distorted_streaming}

    def traced_iteration(diag=None) -> dict:
        """One iteration on the traced instances; per-group oracle deltas
        are [value calls, marginal calls, seconds]."""
        first = len(tracer.spans)
        before = {id(w): list(w.totals) for w in wrapped.values()}
        it = run_iteration(solves, ledger, tracer=tracer, diag=diag, instances=instances,
                           calibrator=calibrator)
        oracle = {"objectives": [0, 0, 0.0], "surrogate": [0, 0, 0.0]}
        for w in wrapped.values():
            for i, (a, b) in enumerate(zip(w.totals, before[id(w)])):
                oracle[_group(w)][i] += a - b
        spans = tracer.spans[first:]
        return {"wall": it["wall"], "scaled": sum(it["scaled"].values()),
                "spans": spans, "layers": by_layer(spans),
                "oracle": oracle,
                "finish": sum(v for k, v in it["finish"].items() if k in ds_labels)}

    with tracer.installed():
        first = len(tracer.spans)
        measure_setup(workload, inp, setup_budget, tracer)
        setup_rows = _per_root(tracer.spans[first:], "bench.setup")
        for layer in ("objectives.similarity_from_features",
                      "modefinding.surrogate_instance", "datasets.load_edge_list"):
            values[f"{layer}_s"] = _median(setup_rows, lambda r: r[layer]["wall"])

        # Counting iteration: exact counts, distinct queries, diagnostics.
        tracer.track_queries, tracer.distinct_queries = True, 0
        diag: dict = {}
        counted = traced_iteration(diag)
        tracer.track_queries = False

        rows = []
        start = perf()
        while len(rows) < MIN_TRACED_ITERATIONS or perf() - start < loop_seconds:
            rows.append(traced_iteration())
    tracer.dump(trace_path)

    obj = counted["oracle"]["objectives"]
    values["objectives.oracle.value_calls"] = obj[0]
    values["objectives.oracle.marginal_calls"] = obj[1]
    all_marginal = obj[1] + counted["oracle"]["surrogate"][1]
    values["objectives.oracle.distinct_query_frac"] = (
        tracer.distinct_queries / all_marginal if all_marginal else 0.0)
    _count_metrics(values, counted, solves, diag)

    def layer(name, field):
        return _median(rows, lambda r: r["layers"][name][field]
                       if name in r["layers"] else 0.0)

    for name in ("streaming.distorted_streaming", "baselines.sieve_streaming",
                 "baselines.vanilla_greedy", "distributed.distorted_greedy"):
        values[f"{name}.wall_s"] = layer(name, "wall")
        values[f"{name}.driver_s"] = layer(name, "driver")
    values["streaming.distorted_streaming.finish_s"] = _median(rows, lambda r: r["finish"])
    values["distributed.RoundAssignment.draw_s"] = layer("distributed.RoundAssignment.draw", "wall")
    values["distributed.RoundAssignment.shard_s"] = layer("distributed.RoundAssignment.shard", "wall")
    values["distributed.run_distributed.merge_s"] = layer("distributed.run_distributed", "self")
    values["core.Solution.evaluate_s"] = layer("core.Solution.evaluate", "wall")
    for group, prefix in (("objectives", "objectives.oracle"),
                          ("surrogate", "modefinding.SurrogateOracle")):
        values[f"{prefix}.busy_s"] = _median(rows, lambda r: r["oracle"][group][2])
        values[f"{prefix}.us_per_call"] = _median(
            rows, lambda r: 1e6 * r["oracle"][group][2] / max(sum(r["oracle"][group][:2]), 1))
    traced_solve = _median(rows, lambda r: r["wall"])
    values["trace.solve_s"] = traced_solve
    notes["trace.solve_s"] = f"median of {len(rows)} traced iterations"
    values["trace.overhead_frac"] = _median(rows, lambda r: r["scaled"]) / base_solve - 1.0
    values["trace.accounted_frac"] = _median(rows, _accounted)

    runner = workload.runner_part(inp)
    if runner is not None:
        values["experiments.run_experiment.overhead_s"] = _runner_overhead(
            *runner, ledger)
        notes["experiments.run_experiment.overhead_s"] = (
            f"median of {RUNNER_REPS} runner cells minus direct set-up and solve")

    unknown = set(values) - {name for name, _ in per_layer}
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for name, unit in per_layer:
        report(name, values[name], unit, notes.get(name, ""))


def _per_root(spans: list[dict], root: str) -> list[dict]:
    """Split spans into one by_layer table per ``root`` span."""
    out, chunk = [], []
    for s in spans:
        if s["name"] == root and chunk:
            out.append(by_layer(chunk))
            chunk = []
        chunk.append(s)
    if chunk:
        out.append(by_layer(chunk))
    return out


def _accounted(row: dict) -> float:
    """(oracle busy + self time of every library span) / iteration wall.

    Every solve runs inside a wrapped library entry point, so this is 1 up
    to the time spent outside the library's spans (the ``bench.solve``
    wrapper and the timestamping stream): a check that the named layers
    and the oracle leave no solve time unaccounted, not an independent
    measurement.
    """
    busy = sum(v[2] for v in row["oracle"].values())
    self_s = sum(r["self"] for name, r in row["layers"].items()
                 if not name.startswith("bench."))
    return (busy + self_s) / row["wall"]


def _count_metrics(values: dict, counted: dict, solves, diag: dict) -> None:
    """Exact per-layer counts from the counting iteration."""
    layers, spans = counted["layers"], counted["spans"]
    ds = layers.get("streaming.distorted_streaming")
    if ds:
        elements = sum(len(s.order) for s in solves if s.algo is _distorted_streaming)
        values["streaming.distorted_streaming.marginals_per_element"] = ds["marginal"] / elements
        stats = [d for d in diag.values() if d and "max_copies" in d]
        values["streaming.distorted_streaming.peak_copies"] = max(d["max_copies"] for d in stats)
        values["streaming.distorted_streaming.peak_stored"] = max(d["max_stored"] for d in stats)
    for name in ("baselines.vanilla_greedy", "distributed.distorted_greedy"):
        if name in layers:
            values[f"{name}.marginals_per_pick"] = (
                layers[name]["marginal"] / max(layers[name]["picked"], 1))
    rounds = defaultdict(list)
    for s in spans:
        if s["name"] == "distributed.RoundAssignment.shard":
            rounds[(s["parent"], s["round"])].append(s["size"])
    if rounds:
        values["distributed.run_distributed.shard_skew"] = max(
            max(sizes) / (sum(sizes) / len(sizes)) for sizes in rounds.values())
    for d in diag.values():
        if d and "pool_out" in d:
            last = max(rd for rd, _, _ in d["pool_out"])
            pooled = {u for rd, _, S in d["pool_out"] if rd < last for u in S}
            values["distributed.run_distributed.pool_elements"] = max(
                values["distributed.run_distributed.pool_elements"], len(pooled))


def _runner_overhead(workload, part, ledger) -> float:
    """One part's cell through the experiment runner minus the same set-up
    and solve called directly; median over RUNNER_REPS alternations."""
    diffs = []
    for _ in range(RUNNER_REPS):
        ledger.attempted += 1
        t0 = perf()
        (solve,) = workload.solves([part], workload.setup([part]))
        direct = solve.algo(solve.instance, None, None)
        t1 = perf()
        rows, _ = experiments.run_experiment(workload.runner_config(part))
        t2 = perf()
        f = direct.f_value
        if len(rows) != 1 or abs(rows[0].f_value - f) > 1e-9 * max(1.0, abs(f)):
            ledger.fail("run_experiment", f"runner f {rows[0].f_value if rows else None} "
                                          f"!= direct f {f}")
        diffs.append((t2 - t1) - (t1 - t0))
    return statistics.median(diffs)
