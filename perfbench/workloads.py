"""Seeded inputs, instance set-up and solve lists for each workload.

A workload is three steps.  ``generate(seed, workdir)`` draws every input
from the seed with the benchmark's own code; the library sees only the
resulting arrays or edge-list files.  ``setup(inputs)`` turns them into
ready instances and is what ``setup_s`` times.  ``solves(inputs, ready)``
lists the algorithm calls that make up one iteration of the closed loop.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from regsubmax import (baselines, datasets, distributed, modefinding,
                       objectives, streaming)
from regsubmax.core import ModularCost, RegularizedInstance
from regsubmax.experiments import ExperimentConfig

import gate

STREAM_EPS, STREAM_DELTA = 0.1, 0.2


@dataclass
class Solve:
    """One algorithm call of an iteration.

    ``algo(instance, stream, diag)`` runs it; ``stream`` is an iterator over
    ``order`` for streaming solves and None otherwise, and ``diag`` is a dict
    to fill with the algorithm's own diagnostics, or None.  ``mem`` marks
    the few solves whose peak memory ``peak_solve_kb`` takes, since tracing
    allocations slows a solve about fourfold.
    """

    label: str
    instance: RegularizedInstance
    ref: object
    algo: Callable
    order: list[int] | None = None
    mem: bool = False


def _digraph(rng, n: int, mean_out: float):
    """Random digraph as (src, dst) arrays; every node has an out-edge."""
    deg = 1 + rng.poisson(mean_out - 1.0, n)
    src = np.repeat(np.arange(n), deg)
    dst = rng.integers(0, n - 1, src.size)
    dst += dst >= src
    return src, dst


def _distorted_streaming(instance, stream, diag):
    return streaming.distorted_streaming(stream, instance, STREAM_EPS,
                                         STREAM_DELTA, diagnostics=diag)


def _sieve(instance, stream, diag):
    return baselines.sieve_streaming(stream, instance, STREAM_EPS)


def _distorted_greedy(instance, stream, diag):
    return distributed.distorted_greedy(instance)


def _vanilla_greedy(instance, stream, diag):
    return baselines.vanilla_greedy(instance)


class StreamFacility:
    name = "facility"
    parts, n, dim, k = 4, 48, 8, 8

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [{"X": rng.standard_normal((self.n, self.dim)),
                 "costs": rng.uniform(0.0, 0.02, self.n),
                 "order": [int(u) for u in rng.permutation(self.n)]}
                for _ in range(self.parts)]

    def setup(self, parts: list[dict]):
        out = []
        for p in parts:
            M = objectives.similarity_from_features(p["X"])
            oracle = objectives.FacilityLocationOracle(M)
            out.append(RegularizedInstance(oracle, ModularCost(p["costs"]), self.k))
        return out

    def solves(self, parts: list[dict], instances) -> list[Solve]:
        return [Solve(f"distorted-streaming-p{i}", inst,
                      gate.FacilityRef(p["X"], p["costs"]),
                      _distorted_streaming, p["order"], mem=i == 0)
                for i, (p, inst) in enumerate(zip(parts, instances))]


class StreamCover:
    name = "cover"
    parts, n, mean_out, q, ks = 8, 300, 10.0, 6, (5, 10)

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.parts):
            src, dst = _digraph(rng, self.n, self.mean_out)
            out.append({"src": src, "dst": dst,
                        "order": [int(u) for u in rng.permutation(self.n)]})
        return out

    def setup(self, parts: list[dict]):
        out = []
        for p in parts:
            graph = objectives.DirectedGraph.from_edges(
                zip(p["src"].tolist(), p["dst"].tolist()))
            oracle = objectives.VertexCoverOracle(graph)
            cost = objectives.vertex_cover_cost(graph.out_degrees(), self.q)
            out.append([RegularizedInstance(oracle, cost, k) for k in self.ks])
        return out

    def solves(self, parts: list[dict], instances) -> list[Solve]:
        out = []
        for i, (p, insts) in enumerate(zip(parts, instances)):
            ref = gate.CoverRef(self.n, p["src"], p["dst"], self.q)
            for k, inst in zip(self.ks, insts):
                out.append(Solve(f"distorted-streaming-k{k}-p{i}", inst, ref,
                                 _distorted_streaming, p["order"],
                                 mem=i == 0 and k == max(self.ks)))
                out.append(Solve(f"sieve-k{k}-p{i}", inst, ref, _sieve, p["order"]))
        return out


class OfflineLogdet:
    name = "logdet"
    n, dim, k, alpha = 400, 8, 20, 1.0
    slc_n, slc_k = 200, 15

    def generate(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((self.n, self.dim))
        costs = rng.uniform(0.0, 0.5, self.n)
        # Symmetric PD kernel with a log-normal spectrum in a Haar basis.
        eigs = rng.lognormal(1.0, 1.0, self.slc_n)
        Q, R = np.linalg.qr(rng.standard_normal((self.slc_n, self.slc_n)))
        Q = Q * np.sign(np.diag(R))
        L = (Q * eigs) @ Q.T
        return {"X": X, "costs": costs, "L": 0.5 * (L + L.T)}

    def setup(self, inp: dict):
        K = objectives.similarity_from_features(inp["X"])
        logdet = RegularizedInstance(objectives.LogDetOracle(K, self.alpha),
                                     ModularCost(inp["costs"]), self.k)
        slc = modefinding.SlcInstance(inp["L"], d=self.slc_n)
        surrogate = modefinding.surrogate_instance(slc.weak_instance(0.0),
                                                   self.slc_k)
        return logdet, surrogate

    def solves(self, inp: dict, ready) -> list[Solve]:
        logdet, surrogate = ready
        ref = gate.LogDetRef(inp["X"], self.alpha, inp["costs"])
        return [Solve("distorted-greedy", logdet, ref, _distorted_greedy, mem=True),
                Solve("vanilla-greedy", logdet, ref, _vanilla_greedy, mem=True),
                Solve("surrogate-distorted-greedy", surrogate,
                      gate.SurrogateRef(inp["L"]), _distorted_greedy)]


class DistributedCover:
    name = "distributed"
    parts, n, mean_out, q, k, m, eps = 4, 2500, 8.0, 6, 10, 8, 0.5

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = np.random.default_rng(seed)
        out = []
        for i in range(self.parts):
            src, dst = _digraph(rng, self.n, self.mean_out)
            path = workdir / f"{self.name}-{seed}-p{i}.edges"
            with open(path, "w") as fh:
                fh.write("# generated digraph\n")
                fh.write("".join(f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist())))
            out.append({"src": src, "dst": dst, "path": path,
                        "seed": int(rng.integers(2**31))})
        return out

    def setup(self, parts: list[dict]):
        out = []
        for p in parts:
            graph = datasets.load_edge_list(p["path"])
            oracle = objectives.VertexCoverOracle(graph)
            cost = objectives.vertex_cover_cost(graph.out_degrees(), self.q)
            out.append(RegularizedInstance(oracle, cost, self.k))
        return out

    def solves(self, parts: list[dict], instances) -> list[Solve]:
        out = []
        for i, (p, inst) in enumerate(zip(parts, instances)):
            config = distributed.DistributedConfig(self.m, self.eps, p["seed"])

            def run(instance, stream, diag, config=config):
                pool_out = [] if diag is not None else None
                sol = distributed.run_distributed(instance, config, pool_out=pool_out)
                if diag is not None:
                    diag["pool_out"] = pool_out
                return sol

            ref = gate.CoverRef(self.n, p["src"], p["dst"], self.q)
            out.append(Solve(f"distributed-p{i}", inst, ref, run, mem=i == 0))
        return out

    def runner_config(self, part: dict):
        """One part's solve expressed as a cell of the experiment runner."""
        return ExperimentConfig(dataset=str(part["path"]), objective="vertex-cover",
                                algos=("distributed",), ks=(self.k,), eps=self.eps,
                                machines=self.m, seeds=(part["seed"],), q=self.q)


class Composite:
    """Several workloads' solves run as one closed loop.

    Each member draws its inputs from the same seed and is set up in turn,
    so ``setup_s`` is the sum of the members' set-ups; solve labels carry
    the member's name.
    """

    def __init__(self, name: str, *members):
        self.name, self.members = name, members

    def generate(self, seed: int, workdir: Path) -> list:
        return [w.generate(seed, workdir) for w in self.members]

    def setup(self, inputs: list) -> list:
        return [w.setup(inp) for w, inp in zip(self.members, inputs)]

    def solves(self, inputs: list, ready: list) -> list[Solve]:
        return [replace(s, label=f"{w.name}/{s.label}")
                for w, inp, r in zip(self.members, inputs, ready)
                for s in w.solves(inp, r)]

    def runner_part(self, inputs: list):
        """(member, part) whose solve the experiment runner can express."""
        return next(((w, inp[0]) for w, inp in zip(self.members, inputs)
                     if hasattr(w, "runner_config")), None)


WORKLOADS = {w.name: w for w in (
    Composite("stream", StreamCover(), StreamFacility()),
    Composite("offline", OfflineLogdet(), DistributedCover()))}
