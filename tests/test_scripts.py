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
                 "ThresholdParams"):
        assert gone not in rs.__all__
        assert not hasattr(rs, gone)


def _bench_script():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
