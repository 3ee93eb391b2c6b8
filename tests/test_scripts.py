"""Smoke runs of the example scripts, the bench file assembly, and a check of
the public name list."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import regsubmax as rs

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_vertex_cover.py", ["--n", "40", "--ks", "2,3", "--out", "{tmp}/cover.csv"]),
    ("run_mode_finding.py", ["--n", "6", "--k", "2", "--seed", "1"]),
])
def test_script_runs(tmp_path, script, args):
    # TMPDIR keeps the generated edge list of run_vertex_cover.py in tmp_path.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_once():
    assert len(rs.__all__) == len(set(rs.__all__))
    for name in rs.__all__:
        assert hasattr(rs, name), name
    for gone in ("vertex_cover_value", "facility_location_value", "logdet_value",
                 "saturating_coverage_value", "slc_log_density", "reservoir_update",
                 "ThresholdParams", "RatioGuess", "RoundMetrics", "machine_of",
                 "lambda_value", "threshold_index_range", "brute_force_distorted"):
        assert gone not in rs.__all__
        assert not hasattr(rs, gone)


@pytest.mark.parametrize("module,name", [
    ("regsubmax.streaming", "RatioGuess"),
    ("regsubmax.modefinding", "lambda_value"),
    ("regsubmax.streaming", "threshold_index_range"),
    ("regsubmax.baselines", "brute_force_distorted"),
    ("conftest", "machine_of")])  # the test reference for RoundAssignment.draw
def test_names_off_the_package_root_import_from_their_module(module, name):
    assert hasattr(importlib.import_module(module), name)


def _bench_script():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs_script(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # pairs.py imports bench.py
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_summary_pairs_up_sides_and_counts_lower_runs(monkeypatch):
    pairs = _pairs_script(monkeypatch)

    def line(side, seed, pair, solve_s, f=7.0, set_=1):
        return {"side": side, "workload": "offline", "seed": seed, "set": set_, "pair": pair,
                "first": "parent", "seconds": 20,
                "result": {"correct": True, "attempted": 9, "failed": 0, "metrics": {
                    "solve_s": {"value": solve_s, "unit": "s"},
                    "f_value_sum": {"value": f, "unit": "score"}}}}

    lines = [line("parent", 0, 1, 4.0, 1.0), line("change", 0, 1, 3.0, 6.0),
             line("change", 0, 2, 2.0, 6.0), line("parent", 0, 2, 1.0, 2.0),
             line("parent", 0, 3, 2.0, 3.0), line("change", 0, 3, 1.0, 6.0),
             line("parent", 0, 4, 3.0, 4.0), line("change", 0, 4, 4.0, 6.0),
             line("parent", 0, 5, 9.0),  # no change run: not a pair
             line("parent", 7919, 1, 5.0, 10.0), line("change", 7919, 1, 5.0, 8.0),
             line("parent", 0, 1, 8.0, 5.0, set_=2), line("change", 0, 1, 0.5, 6.0, set_=2)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # solve_s is lower-is-better with bound 0.25, f_value_sum higher-is-better with 0.15
    assert pairs.summarize(lines, spec) == [
        # the parent's spread (2 on a median of 3) is wider than the bound
        ("offline", 0, "solve_s", (2.0, 3.0, 4.0), (1.0, 2.0, 3.0), 3, 5, "unresolved"),
        # as wide, but every change run is higher than every parent run
        ("offline", 0, "f_value_sum", (2.0, 3.0, 4.0), (6.0, 6.0, 6.0), 5, 5, "held"),
        ("offline", 7919, "solve_s", (5.0, 5.0, 5.0), (5.0, 5.0, 5.0), 0, 1, "held"),
        # 20% lower where higher is better
        ("offline", 7919, "f_value_sum", (10.0, 10.0, 10.0), (8.0, 8.0, 8.0), 0, 1, "worse")]


@pytest.mark.parametrize("change_solve_s, status", [(1.0, 0), (1.2, 0), (1.3, 1)])
def test_pairs_exits_1_when_a_metric_reads_worse(monkeypatch, tmp_path, change_solve_s, status):
    # solve_s may worsen by its bound, 0.25 of the parent's median, and no more
    pairs = _pairs_script(monkeypatch)

    def run_once(run, workload, seed, trace, root):
        solve_s = 1.0 if root == tmp_path.resolve() else change_solve_s
        return {"correct": True, "attempted": 9, "failed": 0,
                "metrics": {"solve_s": {"value": solve_s, "unit": "s"}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    out = tmp_path / "pairs.jsonl"
    argv = ["--root", str(tmp_path), "--out", str(out), "--seeds", "0", "--pairs", "3"]
    assert pairs.main(argv) == status
    assert len(out.read_text().splitlines()) == 6


def test_bench_assembles_canned_result_lines():
    bench = _bench_script()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def line(trace, attempted, failed=0):
        declared = spec["end_to_end" if trace == 0 else "per_layer"]
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in declared}}

    results = {(w["name"], seed, trace): line(trace, 10 + trace, failed=trace)
               for w in spec["workloads"] for seed in bench.SEEDS for trace in (0, 1)}
    out = bench.assemble(spec, results, "canned")
    assert out["label"] == "canned" and out["run_seconds"] == spec["run_seconds"]
    assert set(out["host"]) == {"python", "numpy", "cpu_count"}
    assert set(out["workloads"]) == {w["name"] for w in spec["workloads"]}
    for per_seed in out["workloads"].values():
        assert set(per_seed) == {"0", "7919"}
        for entry in per_seed.values():
            assert (entry["attempted"], entry["failed"]) == (21, 1)
            assert len(entry["metrics"]) == len(spec["end_to_end"]) + len(spec["per_layer"])
    json.dumps(out)

    key = (spec["workloads"][0]["name"], 0, 1)
    for broken, message in (("unknown", "unknown metrics ['x.y']"),
                            ("missing", "missing ['trace.solve_s']"),
                            ("unit", "wrong units ['trace.solve_s (ms, declared s)']")):
        bad = dict(results)
        bad[key] = line(1, 10)
        if broken == "unknown":
            bad[key]["metrics"]["x.y"] = {"value": 0.0, "unit": "s"}
        elif broken == "missing":
            del bad[key]["metrics"]["trace.solve_s"]
        else:
            bad[key]["metrics"]["trace.solve_s"]["unit"] = "ms"
        with pytest.raises(ValueError, match=re.escape(message)):
            bench.assemble(spec, bad, "canned")


@pytest.mark.parametrize("code, status", [
    ("print('{\\\"partial'); sys.exit(0)", 0),
    ("sys.exit(3)", 3)], ids=["malformed-line", "exit-3"])
def test_bench_run_failure_names_command_status_and_stderr(code, status):
    bench = _bench_script()
    stand_in = [sys.executable, "-c",
                f"import sys; sys.stderr.write('early\\n' * 30 + 'solve blew up\\n'); {code}"]
    with pytest.raises(RuntimeError) as info:
        bench.run_once({"command": stand_in, "run_seconds": 1}, "stream", 0, 0)
    message = str(info.value)
    assert message.startswith(f"{' '.join(stand_in)} --workload stream --seed 0 ")
    assert f"exit status {status}," in message
    # the last 20 stderr lines, not all 31
    assert message.endswith(":\n" + "early\n" * 19 + "solve blew up")


def test_cold_peaks_prints_each_marked_solve_per_seed(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cold_peaks.py"), "--seeds", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[:2] for line in lines] == [["0", "cover/distorted-streaming-k10-p0"],
                                            ["0", "facility/distorted-streaming-p0"]]
    assert all(float(line[2]) > 0 for line in lines)
