"""Run the declared benchmark at both seeds and write BENCH_<LABEL>.json.

    python3 scripts/bench.py LABEL

For every workload in BENCHMARK.json, at seeds 0 and 7919, this runs the
benchmark command once untraced (the end-to-end metrics) and once traced
(the per-layer metrics), each for the declared ``run_seconds``, and reads
the last JSON line each run prints.  BENCH_<LABEL>.json, at the repository
root, holds per workload and seed the solves attempted and failed over both
runs and every metric with its unit, plus the Python and numpy versions and
the CPU count of the host.  A metric name or unit that BENCHMARK.json does
not declare, or a declared metric a run leaves out, is an error.  The eight
runs take about eight minutes at ``run_seconds`` 50.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7919)
TRACES = {0: "end_to_end", 1: "per_layer"}


def check_metrics(spec: dict, trace: int, metrics: dict, where: str) -> None:
    """ValueError unless ``metrics`` has exactly the declared names and units."""
    want = {m["name"]: m["unit"] for m in spec[TRACES[trace]]}
    got = {name: m["unit"] for name, m in metrics.items()}
    unknown = sorted(set(got) - set(want))
    missing = sorted(set(want) - set(got))
    units = sorted(f"{n} ({got[n]}, declared {want[n]})"
                   for n in set(got) & set(want) if got[n] != want[n])
    if unknown or missing or units:
        raise ValueError(f"{where}: unknown metrics {unknown}, missing {missing}, "
                         f"wrong units {units}")


def assemble(spec: dict, results: dict, label: str) -> dict:
    """The BENCH file's contents.

    ``results`` maps (workload, seed, trace) to the parsed last line of that
    run: ``{"attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
    """
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            entry = {"attempted": 0, "failed": 0, "metrics": {}}
            for trace in TRACES:
                line = results[(workload, seed, trace)]
                check_metrics(spec, trace, line["metrics"],
                              f"{workload} seed {seed} trace {trace}")
                entry["attempted"] += line["attempted"]
                entry["failed"] += line["failed"]
                entry["metrics"].update(line["metrics"])
            workloads.setdefault(workload, {})[str(seed)] = entry
    return {"label": label, "run_seconds": spec["run_seconds"],
            "host": {"python": platform.python_version(), "numpy": np.__version__,
                     "cpu_count": os.cpu_count()},
            "workloads": workloads}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The parsed last stdout line of one run; RuntimeError, naming the command
    and its exit status and quoting the tail of its stderr, if the run fails
    or that line is not JSON."""
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    command = " ".join(argv)
    print(command, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode == 0:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            pass
    tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
    raise RuntimeError(f"{command}: exit status {proc.returncode}, last stdout line not a "
                       f"JSON result; stderr ends with:\n{tail}")


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {(w["name"], seed, trace): run_once(spec, w["name"], seed, trace)
               for w in spec["workloads"] for seed in SEEDS for trace in TRACES}
    out = ROOT / f"BENCH_{args[0]}.json"
    out.write_text(json.dumps(assemble(spec, results, args[0]), indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
