"""Command-line front end.

Three subcommands: ``run`` executes an experiment grid and writes the result
CSV, ``validate`` spot-checks that a dataset's oracle behaves like a
normalized monotone submodular function, and ``gen`` produces synthetic
datasets (seeded, with their parameters recorded for replay).

``run`` and ``validate`` read a flat JSON config file whose keys are the
ExperimentConfig fields; a flag whose ``dest`` names a field overrides it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import datasets, modefinding
from .core import RegularizedInstance, checked_scalar
from .experiments import ALGORITHMS, OBJECTIVES, ExperimentConfig, run_experiment


def _comma_list(item: type):
    def parse(text: str) -> tuple:
        return tuple(item(x) for x in text.split(",") if x)
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--dataset", help="input data file")
    p.add_argument("--objective", choices=sorted(OBJECTIVES),
                   help="objective built from the dataset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsubmax",
        description="Streaming/distributed maximization of g(S) - cost(S) "
                    "under a cardinality budget.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid, write CSV")
    _add_common_flags(run_p)
    run_p.add_argument("--algo", dest="algos", type=_comma_list(str),
                       help="comma-separated algorithm ids "
                            f"(known: {', '.join(sorted(ALGORITHMS))})")
    run_p.add_argument("--k", dest="ks", type=_comma_list(int),
                       help="comma-separated budgets")
    run_p.add_argument("--eps", type=float)
    run_p.add_argument("--delta", type=float)
    run_p.add_argument("--machines", type=int)
    run_p.add_argument("--seed", dest="seeds", type=_comma_list(int),
                       help="comma-separated seeds")
    run_p.add_argument("--stream-order", dest="stream_order",
                       help="natural | shuffled | file:PATH")
    run_p.add_argument("--out", help="result CSV path")

    val_p = sub.add_parser("validate",
                           help="spot-check oracle normalization/monotonicity/"
                                "submodularity on a dataset")
    _add_common_flags(val_p)
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--triples", type=int, default=500)

    gen_p = sub.add_parser("gen", help="generate synthetic datasets")
    gen_p.add_argument("kind", choices=["digraph", "slc"])
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--p", type=float, default=0.02,
                       help="edge probability (digraph)")
    gen_p.add_argument("--mu", type=float, default=1.0,
                       help="log-normal location (slc)")
    gen_p.add_argument("--sigma", type=float, default=1.0,
                       help="log-normal scale (slc)")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config file's values, overridden by every given field flag, checked."""
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    cfg = cfg.override(**{f.name: getattr(args, f.name, None)
                          for f in fields(ExperimentConfig)})
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    rows, _ = run_experiment(cfg)
    if cfg.out:
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        for row in rows:
            print(f"{row.algorithm} k={row.k} seed={row.seed} "
                  f"f={row.f_value:.9g} calls={row.oracle_calls}")
    return 0


def cmd_validate(args) -> int:
    cfg = _config_from_args(args)
    oracle, cost = OBJECTIVES[cfg.objective](cfg)
    RegularizedInstance(oracle, cost, 1)  # ValueError unless the costs fit the ground set
    rng = np.random.default_rng(checked_scalar(args.seed, "seed", int, "[0, inf)"))
    n = oracle.n
    if n < 2:
        raise ValueError(f"validate needs at least two elements to sample, got {n}")
    worst_mono = 0.0
    worst_sub = 0.0
    worst_marg = 0.0
    for _ in range(checked_scalar(args.triples, "triples", int, "[1, inf)")):
        # |S| <= n - 2 leaves two elements outside S for u and v.
        size = int(rng.integers(0, min(n - 1, 8)))
        S = sorted(int(x) for x in rng.choice(n, size=size, replace=False))
        rest = [u for u in range(n) if u not in S]
        u, v = (int(x) for x in rng.choice(rest, size=2, replace=False))
        base = oracle.value(S)
        with_u = oracle.value(S + [u])
        with_v = oracle.value(S + [v])
        with_uv = oracle.value(sorted(S + [u, v]))
        worst_mono = max(worst_mono, base - with_u)
        worst_sub = max(worst_sub, base + with_uv - with_u - with_v)
        worst_marg = max(worst_marg, abs(oracle.marginal(u, S) - (with_u - base)))
    checks = [
        ("value(empty) == 0", abs(oracle.value(())) == 0.0, ""),
        ("costs non-negative", bool(np.all(cost.costs >= 0)), ""),
        ("monotone on sampled chains", worst_mono <= 1e-9,
         f"worst violation {worst_mono:.3g}"),
        ("submodular on sampled triples", worst_sub <= 1e-9,
         f"worst violation {worst_sub:.3g}"),
        ("marginal consistent with value", worst_marg <= 1e-9,
         f"worst gap {worst_marg:.3g}")]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_gen(args) -> int:
    if args.kind == "digraph":
        graph = datasets.random_digraph(args.n, args.p, args.seed)
        datasets.write_edge_list(
            graph, args.out,
            comment=f"random digraph n={args.n} p={args.p} seed={args.seed}")
        print(f"wrote {graph.out_csr[1].size} edges to {args.out}")
    else:
        L = modefinding.sample_slc_matrix(args.n, args.mu, args.sigma, args.seed)
        datasets.save_generated_matrix(
            L, args.out,
            meta={"kind": "slc", "n": args.n, "mu": args.mu,
                  "sigma": args.sigma, "seed": args.seed})
        print(f"wrote {args.n}x{args.n} kernel to {args.out}")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; bad input prints one error line and returns 2."""
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "validate": cmd_validate, "gen": cmd_gen}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"regsubmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
