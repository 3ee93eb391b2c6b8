"""Cold peak memory of each solve that a workload's ``peak_solve_kb`` measures.

    python3 scripts/cold_peaks.py [--workload stream] [--seeds 0-23,7919] [--root DIR]

For every seed, a fresh Python process imports the library from ``DIR/src``
and the benchmark's ``workloads.py`` and ``loop.py`` from ``DIR/perfbench``
(``DIR`` defaults to this checkout, so another commit can be measured by
pointing at a copy of it).  It draws the workload's inputs from the seed,
sets them up five times with ``loop.measure_setup``, as a benchmark run does
before it measures, and then runs each ``mem`` solve once, alone, under
``loop.peak_solve_kb``.  Each line printed is ``seed label KiB``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """``"0-23,7919"`` as the seeds 0 to 23 and 7919."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def measure(root: Path, workload: str, seed: int) -> None:
    """Print the cold peak of each ``mem`` solve; runs in its own process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from loop import measure_setup, peak_solve_kb
    from workloads import WORKLOADS
    w = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        inp = w.generate(seed, Path(workdir))
        _, ready = measure_setup(w, inp, 0.0)
        for solve in w.solves(inp, ready):
            if solve.mem:
                print(f"{seed} {solve.label} {peak_solve_kb([solve]):.2f}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="stream")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-23,7919"))
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--one-seed", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one_seed is not None:
        measure(args.root.resolve(), args.workload, args.one_seed)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for seed in args.seeds:
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--root", str(args.root), "--one-seed", str(seed)],
                       check=True, env=env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
