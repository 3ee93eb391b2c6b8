"""Rewrite golden.json: the selection fingerprints the gate compares against.

    python3 perfbench/record_golden.py

Runs one iteration of every workload on the default and the held-out seed
and records each solve's fingerprint.  Every solve must already pass the
rest of the gate.  Re-record only when a change is meant to alter the
selected sets, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED, HERE, import_library


def main() -> int:
    import_library()
    import gate
    from loop import Ledger, run_iteration
    from workloads import WORKLOADS
    golden: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, workload in WORKLOADS.items():
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                inp = workload.generate(seed, Path(tmp))
                ledger = Ledger({})
                run_iteration(workload.solves(inp, workload.setup(inp)), ledger)
                if ledger.failed:
                    print(f"{name} seed {seed}: gate failed", file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[str(seed)] = ledger.selections
                print(name, seed, ledger.selections)
    gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
