"""Alternating pairs of benchmark runs: a parent checkout against this one.

    python3 scripts/pairs.py --root PARENT --out PAIRS.jsonl [--workload offline]
                             [--seeds 0,7919] [--pairs 10] [--seconds 20]

For each seed, ``--pairs`` times, this runs the benchmark command of
BENCHMARK.json untraced for ``--seconds`` once in ``PARENT`` and once in this
checkout, each in a fresh process with its checkout as working directory.
The parent goes first in odd pairs and this checkout in even ones, so a slow
spell of the host does not always fall on the same side.  Each run appends
one JSON line to ``--out``: ``side`` ("parent" or "change"), ``workload``,
``seed``, ``set`` (one more than the highest set already in the file),
``pair``, ``first``, ``seconds`` and ``result``, the run's own last line.
Then it prints, per seed and metric, each side's median and quartiles over
this set's runs, in how many pairs the change read better (lower or higher,
as the metric's ``better`` in BENCHMARK.json says), and a verdict against
the metric's ``bound``: "worse" when the change's median is worse than the
parent's by more than the bound (a fraction of the parent's median),
"unresolved" when the parent's quartile spread is wider than that unless
every change run beats every parent run, else "held".  It exits with status 1
when any metric's verdict is "worse", else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from bench import ROOT, run_once

SIDES = ("parent", "change")


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """"worse", "unresolved" or "held" (see the module docstring), for runs
    of a metric where lower is better (a higher-is-better one negated)."""
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    if np.median(change) - median > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and max(change) >= min(parent):
        return "unresolved"
    return "held"


def summarize(lines: list[dict], spec: dict) -> list[tuple]:
    """Per (workload, seed, metric), in first-seen order:
    ``(workload, seed, metric, parent (q1, median, q3), change (q1, median, q3),
    pairs where the change is better, pairs, verdict)``, ``better`` and
    ``bound`` taken from the metric's entry in ``spec`` (BENCHMARK.json).
    Lines pair up by workload, seed, set and pair; ties count as not better."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[tuple, dict[str, dict]] = {}
    for line in lines:
        key = (line["workload"], line["seed"], line["set"], line["pair"])
        runs.setdefault(key, {})[line["side"]] = line["result"]["metrics"]
    rows: dict[tuple, dict[str, list[float]]] = {}
    for (workload, seed, _, _), sides in runs.items():
        if set(sides) == set(SIDES):
            for metric in sides["parent"]:
                values = rows.setdefault((workload, seed, metric), {s: [] for s in SIDES})
                for side in SIDES:
                    values[side].append(sides[side][metric]["value"])
    out = []
    for key, v in rows.items():
        metric = declared[key[2]]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent, change = ([sign * x for x in v[side]] for side in SIDES)
        out.append((*key, *(tuple(np.percentile(v[side], [25, 50, 75]).tolist())
                            for side in SIDES),
                    sum(c < p for p, c in zip(parent, change)), len(parent),
                    verdict(parent, change, metric["bound"]) if "bound" in metric else ""))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON lines file to append to")
    parser.add_argument("--workload", default="offline")
    parser.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")],
                        default=[0, 7919])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = {"command": spec["command"], "run_seconds": args.seconds}
    roots = {"parent": args.root.resolve(), "change": ROOT}
    old = ([json.loads(line) for line in args.out.read_text().splitlines() if line.strip()]
           if args.out.exists() else [])
    number = 1 + max((line["set"] for line in old), default=0)
    lines = []
    for seed in args.seeds:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_once(run, args.workload, seed, 0, roots[side])
                if not result["correct"]:
                    print(f"  {side}: {result['failed']} of {result['attempted']} solves failed")
                lines.append({"side": side, "workload": args.workload, "seed": seed,
                              "set": number, "pair": pair, "first": order[0],
                              "seconds": args.seconds, "result": result})
                with args.out.open("a") as fh:
                    fh.write(json.dumps(lines[-1]) + "\n")
    rows = summarize(lines, spec)
    for workload, seed, metric, parent, change, better, pairs, held in rows:
        print(f"{workload} seed {seed} {metric}: parent {parent[1]:.6g} [{parent[0]:.6g}, "
              f"{parent[2]:.6g}]  change {change[1]:.6g} [{change[0]:.6g}, {change[2]:.6g}]  "
              f"{change[1] / parent[1] - 1:+.1%}  better in {better}/{pairs}  {held}")
    return int(any(row[-1] == "worse" for row in rows))


if __name__ == "__main__":
    sys.exit(main())
