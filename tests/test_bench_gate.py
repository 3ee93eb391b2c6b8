"""The benchmark's correctness gate as a test: golden selections on both seeds.

Each case runs ``perfbench/run.py`` for two seconds in a subprocess and
checks its last JSON line: every solve passed the gate (feasible, scores
recomputed from scratch, selections equal to ``perfbench/golden.json``).
Timings are not checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("workload", ["stream", "offline"])
def test_benchmark_gate_passes(workload, seed):
    before = set(OUT.iterdir()) if OUT.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert set(OUT.iterdir()) == before
