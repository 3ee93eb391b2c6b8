"""regsubmax benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload stream --seed 0 --seconds 50 --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
same checkout, single-threaded (BLAS pinned to one thread below, before
numpy loads).  Inputs are drawn from ``--seed``; set-up is repeated from
scratch for a tenth of ``--seconds`` and its median reported; a few solves
run once under tracemalloc for their peak memory; then the workload's
solves run back to back for the rest of ``--seconds`` and every output
passes the correctness gate (gate.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
timed with no instrumentation and rescaled to a reference host speed by
the calibration kernel of calibrate.py, timed next to every set-up and
solve.  With ``--trace 1`` it carries the per-layer
metrics: half the time runs untraced as the overhead baseline, then one
counting iteration and timed traced iterations run with the wrappers of
tracer.py installed; spans are written to ``perfbench/out/`` as JSON lines.
Metric definitions and the per-workload predictions are in README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
MIN_ITERATIONS = 3


def import_library():
    """Import regsubmax from this checkout's src/, and nothing else."""
    init = SRC / "regsubmax" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: library source not found at {init}")
    sys.path.insert(0, str(SRC))
    import regsubmax
    if Path(regsubmax.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported {regsubmax.__file__}, not {init}")


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def medians(iterations, solves, key: str) -> dict[str, float]:
    """Each solve's median time across the iterations, from ``it[key]``."""
    return {s.label: statistics.median([it[key][s.label] for it in iterations
                                        if s.label in it[key]] or [0.0])
            for s in solves}


def timed_run(workload, inp, ledger, seconds: float, report) -> None:
    from calibrate import REF_S, Calibrator
    from loop import SETUP_SHARE, closed_loop, measure_setup, peak_solve_kb, perf
    from workloads import _distorted_streaming
    calibrator = Calibrator()
    setup, ready = measure_setup(workload, inp, SETUP_SHARE * seconds,
                                 calibrator=calibrator)
    solves = workload.solves(inp, ready)
    t0 = perf()
    peak_kb = peak_solve_kb(solves)
    loop_seconds = (1 - SETUP_SHARE) * seconds - (perf() - t0)
    iterations = closed_loop(solves, ledger, loop_seconds, MIN_ITERATIONS, calibrator)
    scaled, walls = medians(iterations, solves, "scaled"), medians(iterations, solves, "walls")
    # Latency is distorted_streaming's, pooled over the iteration's streams:
    # sieve's elements cost an order of magnitude less, and pooling both
    # puts the median in the gap between the two algorithms, where it jumps
    # from run to run.  Each iteration gives its percentiles and the run
    # reports their median.  An offline solve has no elements to time from
    # outside; its one sample is its median time per ground-set element.
    stream = [v for v in ([x for s in solves if s.algo is _distorted_streaming
                           for x in it["elements"].get(s.label, ())]
                          for it in iterations) if v]
    if stream:
        p50, p95 = (statistics.median(percentile(v, q) for v in stream) for q in (50, 95))
        samples = f"median over {len(stream)} iterations of {len(stream[0])} samples"
    else:
        offline = [1e3 * scaled[s.label] / s.instance.n for s in solves]
        p50, p95 = percentile(offline, 50), percentile(offline, 95)
        samples = f"{len(offline)} samples, one per solve"
    kernel = statistics.median(calibrator.times)
    print(f"  calibration kernel median {1e3 * kernel:.4g} ms over "
          f"{len(calibrator.times)} runs (reference {1e3 * REF_S:.4g} ms); "
          f"uncalibrated solve_s {sum(walls.values()):.6g} s")
    report("setup_s", statistics.median(setup), "s", f"median of {len(setup)} set-ups")
    report("solve_s", sum(scaled.values()), "s",
           f"sum of {len(solves)} solves' medians over {len(iterations)} iterations")
    report("element_ms_p50", p50, "ms", samples)
    report("element_ms_p95", p95, "ms", samples)
    report("f_value_sum", iterations[0]["f_sum"], "score", f"{len(solves)} solves")
    report("peak_solve_kb", peak_kb, "KiB",
           f"largest of {sum(s.mem for s in solves)} solves under tracemalloc")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import gate
    from loop import Ledger
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    golden = gate.load_golden().get(workload.name, {}).get(str(args.seed), {})
    ledger = Ledger(golden)
    metrics: dict[str, dict] = {}

    def report(name, value, unit, note=""):
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=outdir))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"golden {'yes' if golden else 'no'}")
    try:
        inp = workload.generate(args.seed, workdir)
        if args.trace:
            from traced import traced_run
            trace_path = outdir / f"trace-{workload.name}-seed{args.seed}.jsonl"
            traced_run(workload, inp, ledger, args.seconds, report, trace_path)
        else:
            timed_run(workload, inp, ledger, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  ops_failed_frac {ledger.failed / max(ledger.attempted, 1):.6g} "
          f"({ledger.failed} of ops_total {ledger.attempted} solves)")
    print(json.dumps({"correct": ledger.failed == 0 and ledger.attempted > 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
