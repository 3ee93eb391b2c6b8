"""Experiment configuration, algorithm registry, and CSV result emission.

A run is a grid over (algorithm, k, seed) cells on one dataset/objective.
Cells execute sequentially in sorted order and each produces exactly one
result row, so repeated runs emit identical CSV bodies (modulo the
informational wall_ms column).
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, datasets, distributed, modefinding, objectives, streaming
from .core import ModularCost, RegularizedInstance, Solution, checked_scalar, of_kind

ROUND_FIELDS = ("dataset", "algorithm", "k", "eps", "m", "seed", "round",
                "pool_sets", "pool_elements", "shard_sizes", "oracle_calls")


@dataclass(frozen=True)
class ResultRow:
    """One result CSV row; the fields, in order, are the CSV's columns."""

    dataset: str
    algorithm: str
    k: int
    eps: float
    delta: float
    m: int
    seed: int
    f_value: float
    g_value: float
    ell_value: float
    oracle_calls: int
    wall_ms: float
    provenance: str


RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))


def _fits(value, hint) -> bool:
    """Whether ``value`` has the type a config field's annotation names."""
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # X | None
        return any(_fits(value, h) for h in get_args(hint))
    return of_kind(value, hint)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat run description; every key can come from a config file or a flag.

    Construction checks every value against its field's annotation: integers
    and reals by ``numbers`` kind (numpy scalars fit, reals must be finite),
    ``bool`` only where a field asks for it, tuples item by item.
    """

    dataset: str = ""
    objective: str = "vertex-cover"
    algos: tuple[str, ...] = ("greedy",)
    ks: tuple[int, ...] = (5,)
    eps: float = 0.1
    delta: float = 0.1
    machines: int = 2
    seeds: tuple[int, ...] = (0,)
    stream_order: str = "natural"
    out: str | None = None
    q: int = 6
    alpha: float = 1.0
    r: float = 1.0
    gamma: float = 0.0
    costs: str | None = None
    header: bool = False

    def __post_init__(self):
        hints = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, hints[f.name]):
                raise ValueError(f"config {f.name!r} must be {f.type}, got {value!r}")
            if hints[f.name] is float:
                checked_scalar(value, f.name, float, "(-inf, inf)")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a flat JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        return cls(**{key: tuple(val) if isinstance(val, list) else val
                      for key, val in raw.items()})

    def override(self, **updates) -> "ExperimentConfig":
        """CLI flags win over file values; None updates are ignored."""
        real = {k: v for k, v in updates.items() if v is not None}
        return replace(self, **real)

    def validate(self) -> None:
        """Check the values a run needs; the types were checked on construction."""
        if not self.dataset:
            raise ValueError("no dataset given")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; "
                             f"known: {sorted(OBJECTIVES)}")
        if not self.algos:
            raise ValueError("need at least one algorithm")
        for a in self.algos:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; known: {sorted(ALGORITHMS)}")
        if not self.ks:
            raise ValueError("need at least one budget k")
        for k in self.ks:
            checked_scalar(k, "budget k", int, "[1, inf)")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            checked_scalar(seed, "seed", int, "[0, inf)")
        checked_scalar(self.machines, "machine count", int, "[1, inf)")


def _build_vertex_cover(cfg: ExperimentConfig):
    graph = datasets.load_edge_list(cfg.dataset)
    oracle = objectives.VertexCoverOracle(graph)
    return oracle, _cost(cfg, objectives.vertex_cover_cost(graph.out_degrees(), cfg.q))


def _similarity(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.dataset.endswith(".sim.csv"):
        return datasets.load_similarity_matrix(cfg.dataset, header=cfg.header)
    X = datasets.load_matrix_csv(cfg.dataset, header=cfg.header)
    return objectives.similarity_from_features(X)


def _cost(cfg: ExperimentConfig, default: ModularCost) -> ModularCost:
    return ModularCost(datasets.load_cost_vector(cfg.costs)) if cfg.costs else default


def _build_facility(cfg: ExperimentConfig):
    M = _similarity(cfg)
    oracle = objectives.FacilityLocationOracle(M)
    return oracle, _cost(cfg, ModularCost(np.zeros(oracle.n)))


def _build_logdet(cfg: ExperimentConfig):
    M = _similarity(cfg)
    oracle = objectives.LogDetOracle(M, alpha=cfg.alpha)
    return oracle, _cost(cfg, ModularCost(np.zeros(oracle.n)))


def _build_coverage(cfg: ExperimentConfig):
    triples = datasets.load_score_table(cfg.dataset)
    if not triples:
        raise ValueError(f"{cfg.dataset}: empty score table")
    oracle = objectives.SaturatingCoverageOracle(triples, 1 + max(e for _, e, _ in triples))
    return oracle, _cost(cfg, ModularCost(np.zeros(oracle.n)))


def _build_slc_mode(cfg: ExperimentConfig):
    if cfg.costs:
        raise ValueError("config 'costs' does not apply to slc-mode: its cost is the kernel's")
    L = datasets.load_similarity_matrix(cfg.dataset, header=cfg.header)
    slc = modefinding.SlcInstance(L, d=L.shape[0])
    weak = slc.weak_instance(cfg.gamma)
    oracle = modefinding.SurrogateOracle(weak)
    return oracle, oracle.cost


OBJECTIVES = {
    "vertex-cover": _build_vertex_cover,
    "facility-location": _build_facility,
    "log-det": _build_logdet,
    "saturating-coverage": _build_coverage,
    "slc-mode": _build_slc_mode,
}


# (instance, cfg, seed, stream) -> a Solution, or picked ids that run_experiment evaluates.
ALGORITHMS = {
    "greedy": lambda inst, cfg, seed, stream: baselines.vanilla_greedy(inst),
    "distorted-greedy": lambda inst, cfg, seed, stream: distributed.distorted_greedy(inst),
    "sieve": lambda inst, cfg, seed, stream: baselines.sieve_streaming(stream, inst, cfg.eps),
    "threshold-streaming": lambda inst, cfg, seed, stream: streaming.ThresholdBank(
        cfg.r, inst.k, cfg.eps).run(stream, inst, f"threshold-streaming[r={cfg.r:.6g}]"),
    "distorted-streaming": lambda inst, cfg, seed, stream: streaming.distorted_streaming(
        stream, inst, cfg.eps, cfg.delta),
    "distributed": lambda inst, cfg, seed, stream: distributed.run_distributed(
        inst, distributed.DistributedConfig(cfg.machines, cfg.eps, seed)),
    "brute-force": lambda inst, cfg, seed, stream: baselines.brute_force_opt(inst)[0],
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    if isinstance(x, list):
        return ";".join(map(str, x))
    return str(x)


def run_experiment(cfg: ExperimentConfig):
    """Run all (algorithm, k, seed) cells; returns (rows, round rows from notes)."""
    cfg.validate()
    oracle, cost = OBJECTIVES[cfg.objective](cfg)
    label = os.path.basename(cfg.dataset)
    rows: list[ResultRow] = []
    round_rows: list[tuple] = []
    cells = sorted((a, k, s) for a in set(cfg.algos) for k in set(cfg.ks)
                   for s in set(cfg.seeds))
    for algo, k, seed in cells:
        instance, counter = RegularizedInstance(oracle, cost, k).counted()
        stream = datasets.resolve_stream_order(cfg.stream_order, oracle.n, seed)
        start = time.perf_counter()
        sol = ALGORITHMS[algo](instance, cfg, seed, stream)
        if not isinstance(sol, Solution):
            sol = Solution.evaluate(instance, sol, algo)
        wall_ms = (time.perf_counter() - start) * 1000.0
        rows.append(ResultRow(label, algo, k, cfg.eps, cfg.delta, cfg.machines,
                              seed, sol.f_value, sol.g_value, sol.ell_value,
                              counter.calls, wall_ms, sol.provenance))
        noted = [0] + [note["calls"] for note in counter.notes]  # cumulative
        round_rows += [(label, algo, k, cfg.eps, cfg.machines, seed, note["round"],
                        note["pool_sets"], note["pool_elements"], note["shard_sizes"], b - a)
                       for note, a, b in zip(counter.notes, noted, noted[1:])]
    if cfg.out:
        emit_results(rows, cfg.out)
        if round_rows:
            _write_csv(cfg.out + ".rounds.csv", ROUND_FIELDS, round_rows)
    return rows, round_rows


def _write_csv(path, header, rows) -> None:
    """Write header and rows (floats to 9 significant digits) atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(x) for x in row] for row in rows)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_results(rows, path) -> None:
    """Write the result CSV (fixed header, 9 significant digits, atomic)."""
    _write_csv(path, RESULT_FIELDS, map(astuple, rows))


def parse_results(path) -> list[ResultRow]:
    """Read back an emitted result CSV into typed rows."""
    types = get_type_hints(ResultRow)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RESULT_FIELDS:
            raise ValueError(f"{path}: unexpected header {header}")
        return [ResultRow(*(types[name](x) for name, x in zip(RESULT_FIELDS, rec)))
                for rec in reader]
