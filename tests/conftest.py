"""Shared instance generators and exhaustive reference checks."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

import regsubmax as rs
from regsubmax.streaming import geometric_index_range

KINDS = ("vertex-cover", "facility", "logdet", "coverage", "modular")


def random_digraph_dense(rng, n, p):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return rs.DirectedGraph(rs.objectives.csr(n, *np.nonzero(mask)), tuple(range(n)))


def make_instance(rng, kind, n, k) -> rs.RegularizedInstance:
    """Random instance with a monotone submodular g and random modular cost."""
    if kind == "vertex-cover":
        graph = random_digraph_dense(rng, n, rng.uniform(0.1, 0.45))
        oracle = rs.VertexCoverOracle(graph, rng.uniform(0.2, 1.5, n))
        cost = rs.ModularCost(rng.uniform(0.1, 1.2, n))
    elif kind == "facility":
        X = rng.normal(size=(n, 2))
        oracle = rs.FacilityLocationOracle(rs.similarity_from_features(X))
        cost = rs.ModularCost(rng.uniform(0.0, 0.35, n))
    elif kind == "logdet":
        X = rng.normal(size=(n, 2))
        oracle = rs.LogDetOracle(rs.similarity_from_features(X),
                                 alpha=rng.uniform(0.5, 2.0))
        cost = rs.ModularCost(rng.uniform(0.0, 0.5, n))
    elif kind == "coverage":
        triples = []
        for w in range(int(rng.integers(2, 6))):
            for e in range(n):
                if rng.random() < 0.5:
                    triples.append((w, int(e), float(rng.uniform(0, 3))))
        oracle = rs.SaturatingCoverageOracle(triples, n)
        cost = rs.ModularCost(rng.uniform(0.0, 0.6, n))
    elif kind == "modular":
        oracle = rs.ModularOracle(rng.uniform(0, 2, n))
        cost = rs.ModularCost(rng.uniform(0.0, 0.9, n))
    else:
        raise ValueError(kind)
    return rs.RegularizedInstance(oracle, cost, k)


def value_table(valuefn, n) -> dict[frozenset, float]:
    """All 2**n values of a set function, keyed by frozenset."""
    table = {}
    for size in range(n + 1):
        for S in combinations(range(n), size):
            table[frozenset(S)] = valuefn(S)
    return table


def worst_monotonicity_violation(table, n) -> float:
    worst = 0.0
    for S, base in table.items():
        for u in range(n):
            if u not in S:
                worst = max(worst, base - table[S | {u}])
    return worst


def worst_submodularity_violation(table, n) -> float:
    """max over (S, u, v) of g(S) + g(S+u+v) - g(S+u) - g(S+v)."""
    worst = -math.inf
    for S in table:
        rest = [u for u in range(n) if u not in S]
        for u, v in combinations(rest, 2):
            worst = max(worst,
                        table[S] + table[S | {u, v}]
                        - table[S | {u}] - table[S | {v}])
    return worst if worst > -math.inf else 0.0


def random_weak_instance(rng, n) -> rs.WeakSubmodularInstance:
    """Random set function tagged with its exact weakness parameter.

    Mixes arbitrary bounded tables with log-density tables; gamma is the
    measured worst submodularity violation (clamped at 0), sometimes padded.
    """
    if rng.random() < 0.5:
        table = {frozenset(): float(rng.uniform(-0.5, 0.5)) if rng.random() < 0.3 else 0.0}
        for size in range(1, n + 1):
            for S in combinations(range(n), size):
                table[frozenset(S)] = float(rng.uniform(0.0, 3.0))
    else:
        L = rs.sample_slc_matrix(n, mu=0.4, sigma=0.6,
                                 seed=int(rng.integers(0, 2 ** 31)))
        slc = rs.SlcInstance(L, d=n)
        table = value_table(slc.log_density, n)
    gamma = max(0.0, worst_submodularity_violation(table, n))
    if rng.random() < 0.5:
        gamma += float(rng.uniform(0.0, 0.5))
    return rs.WeakSubmodularInstance(lambda S: table[frozenset(S)], gamma, n)


def eager_threshold_reference(stream, instance, r, eps) -> rs.Solution:
    """Two-pass reference: final guess window instantiated from the start."""
    factor = rs.approx_factor(r)
    best = -math.inf
    for u in stream:
        score = factor * instance.oracle.value((u,)) - r * instance.cost[u]
        if score > 0 and score > best:
            best = score
    window = rs.threshold_index_range(best, instance.k, r, eps)
    states = {i: rs.ThresholdState(r, (1.0 + eps) ** i, instance.k)
              for i in window}
    for u in stream:
        for i in sorted(states):
            states[i].offer(u, instance)
    sol = rs.Solution.evaluate(instance, (), "eager[empty]")
    for i in sorted(states):
        cand = rs.Solution.evaluate(instance, states[i].S, f"eager[i={i}]")
        if cand.f_value > sol.f_value:
            sol = cand
    return sol


def sieve_reference(stream, instance, eps, provenance="sieve") -> rs.Solution:
    """Sieve-Streaming as its own loop with per-guess dicts: the ladder's reference."""
    oracle, cost, k = instance.oracle, instance.cost, instance.k
    base = 1.0 + eps
    best_single = -math.inf
    sets: dict[int, list[int]] = {}
    fval: dict[int, float] = {}
    for u in stream:
        fu = oracle.value((u,)) - cost[u]
        if fu > best_single:
            best_single = fu
        if best_single > 0.0:
            window = geometric_index_range(best_single, 2.0 * k * best_single, base)
        else:
            window = range(0)
        for i in [i for i in sets if i not in window]:
            del sets[i]
            del fval[i]
        for i in window:
            if i not in sets:
                sets[i] = []
                fval[i] = 0.0
        for i in sorted(sets):
            S = sets[i]
            if len(S) >= k:
                continue
            gain = oracle.marginal(u, S) - cost[u]
            if gain >= (base ** i / 2.0 - fval[i]) / (k - len(S)):
                S.append(u)
                fval[i] += gain

    best = rs.Solution.evaluate(instance, (), f"{provenance}[empty]")
    for i in sorted(sets):
        sol = rs.Solution.evaluate(instance, sets[i], f"{provenance}[i={i}]")
        if sol.f_value > best.f_value:
            best = sol
    return best


def ladder_reference(stream, instance, eps, delta) -> rs.Solution:
    """Distorted-Streaming as the ladder's original loop: the reference.

    Every element recomputes each bank's window and is offered to every
    copy, full ones included, each live copy spending its own marginal
    call; finish evaluates every copy.
    """
    grid = rs.ratio_grid(eps, delta)
    k = instance.k
    factors = [rs.approx_factor(g.r) for g in grid]
    best_single = [-math.inf] * len(grid)
    banks: list[dict[int, rs.ThresholdState]] = [{} for _ in grid]
    for u in stream:
        singleton = instance.oracle.value((u,))
        for j, (g, copies) in enumerate(zip(grid, banks)):
            score = factors[j] * singleton - g.r * instance.cost[u]
            if score > 0.0 and score > best_single[j]:
                best_single[j] = score
            window = rs.threshold_index_range(best_single[j], k, g.r, eps)
            for i in [i for i in copies if i not in window]:
                del copies[i]
            for i in window:
                if i not in copies:
                    copies[i] = rs.ThresholdState(g.r, (1.0 + eps) ** i, k)
            for i in sorted(copies):
                copies[i].offer(u, instance)

    best = rs.Solution.evaluate(instance, (), "distorted-streaming[empty]")
    for g, copies in zip(grid, banks):
        label = f"distorted-streaming[ratio={g.ratio:.6g}]"
        bank_best = rs.Solution.evaluate(instance, (), f"{label}[empty]")
        for i in sorted(copies):
            sol = rs.Solution.evaluate(instance, copies[i].S, f"{label}[i={i}]")
            if sol.f_value > bank_best.f_value:
                bank_best = sol
        if bank_best.f_value > best.f_value:
            best = bank_best
    return best


@pytest.fixture
def three_node_cover():
    """Tiny digraph 1->2, 1->3, 2->3 with unit weights and unit costs."""
    graph = rs.DirectedGraph.from_edges([(1, 2), (1, 3), (2, 3)])
    oracle = rs.VertexCoverOracle(graph)
    cost = rs.vertex_cover_cost(graph.out_degrees(), 6)
    return graph, oracle, cost
