"""Shared instance generators and exhaustive reference checks."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

import regsubmax as rs
from regsubmax.distributed import _M64, _mix64, _round_key
from regsubmax.streaming import geometric_index_range, threshold_index_range

KINDS = ("vertex-cover", "facility", "logdet", "coverage", "modular")


def csr(n: int, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, idx) with the heads of u's edges, ascending, at idx[ptr[u]:ptr[u+1]].

    Repeated (src, dst) pairs are kept, so tests can build malformed rows."""
    src, dst = np.asarray(src, np.intp), np.asarray(dst, np.intp)
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return ptr, np.sort(src * n + dst) % n


def random_digraph_dense(rng, n, p):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return rs.DirectedGraph(csr(n, *np.nonzero(mask)), tuple(range(n)))


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
    elif kind in ("surrogate", "weak-surrogate"):
        # mode-finding surrogate of an SlcInstance density, at gamma 0 or > 0
        slc = rs.SlcInstance(rs.sample_slc_matrix(n, seed=int(rng.integers(2**31))), n)
        gamma = 0.0 if kind == "surrogate" else float(rng.uniform(0.05, 0.5))
        return rs.surrogate_instance(slc.weak_instance(gamma), k)
    else:
        raise ValueError(kind)
    return rs.RegularizedInstance(oracle, cost, k)


class ValueOnly(rs.SubmodularOracle):
    """Forwards ``value`` alone, so every other method is the base fallback."""

    def __init__(self, inner):
        self.inner, self.n = inner, inner.n

    def value(self, S):
        return self.inner.value(S)


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


def threshold_offer(S, u, instance, multiplier, tau) -> None:
    """The fixed-threshold accept rule: append u to S if S has room and
    marginal(u, S) - multiplier * cost(u) clears tau."""
    if (len(S) < instance.k
            and instance.oracle.marginal(u, S) - multiplier * instance.cost[u] >= tau):
        S.append(u)


def threshold_reference(stream, instance, r, tau) -> rs.Solution:
    """Fixed-threshold streaming as its own loop; the collected set wins a tie."""
    multiplier = rs.cost_multiplier(r)
    S: list[int] = []
    for u in stream:
        threshold_offer(S, u, instance, multiplier, tau)
    sol = rs.Solution.evaluate(instance, S, "reference")
    empty = rs.Solution.evaluate(instance, (), "reference[empty]")
    return empty if empty.f_value > sol.f_value else sol


def eager_threshold_reference(stream, instance, r, eps) -> rs.Solution:
    """Two-pass reference: final guess window instantiated from the start."""
    factor = rs.approx_factor(r)
    multiplier = rs.cost_multiplier(r)
    best = -math.inf
    for u in stream:
        score = factor * instance.oracle.value((u,)) - r * instance.cost[u]
        if score > 0 and score > best:
            best = score
    window = threshold_index_range(best, instance.k, r, eps)
    sets: dict[int, list[int]] = {i: [] for i in window}
    for u in stream:
        for i in sorted(sets):
            threshold_offer(sets[i], u, instance, multiplier, (1.0 + eps) ** i)
    sol = rs.Solution.evaluate(instance, (), "eager[empty]")
    for i in sorted(sets):
        cand = rs.Solution.evaluate(instance, sets[i], f"eager[i={i}]")
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
    multipliers = [rs.cost_multiplier(g.r) for g in grid]
    best_single = [-math.inf] * len(grid)
    banks: list[dict[int, list[int]]] = [{} for _ in grid]
    for u in stream:
        singleton = instance.oracle.value((u,))
        for j, (g, copies) in enumerate(zip(grid, banks)):
            score = factors[j] * singleton - g.r * instance.cost[u]
            if score > 0.0 and score > best_single[j]:
                best_single[j] = score
            window = threshold_index_range(best_single[j], k, g.r, eps)
            for i in [i for i in copies if i not in window]:
                del copies[i]
            for i in window:
                if i not in copies:
                    copies[i] = []
            for i in sorted(copies):
                threshold_offer(copies[i], u, instance, multipliers[j], (1.0 + eps) ** i)

    best = rs.Solution.evaluate(instance, (), "distorted-streaming[empty]")
    for g, copies in zip(grid, banks):
        label = f"distorted-streaming[ratio={g.ratio:.6g}]"
        bank_best = rs.Solution.evaluate(instance, (), f"{label}[empty]")
        for i in sorted(copies):
            sol = rs.Solution.evaluate(instance, copies[i], f"{label}[i={i}]")
            if sol.f_value > bank_best.f_value:
                bank_best = sol
        if bank_best.f_value > best.f_value:
            best = bank_best
    return best


def eager_greedy(instance, distorted, candidates=None):
    """Per-candidate ``marginal`` loop: the greedy kernel's reference."""
    oracle, cost, k = instance.oracle, instance.cost, instance.k
    cands = sorted(range(oracle.n) if candidates is None else set(candidates))
    S = []
    for i in range(k):
        weight = (1.0 - 1.0 / k) ** (k - i - 1) if distorted else 1.0
        best_u, best = None, 0.0
        for u in cands:
            if u in S:
                continue
            score = weight * oracle.marginal(u, S) - cost[u]
            if score > best:
                best_u, best = u, score
        if best_u is not None:
            S.append(best_u)
        elif not distorted:
            break
    return S


def cover_add_reference(oracle, st, u) -> None:
    """``VertexCoverOracle.add`` with a cumsum-and-repeat gather of the reverse
    CSR: the reference for its slices, subtracting in the same order."""
    covered, gain, left = st
    ptr, heads = oracle.graph.out_csr
    new = np.append(heads[ptr[u]:ptr[u + 1]], u)
    new = new[~covered[new]]
    covered[new] = True
    rptr, ridx = oracle.graph.in_csr
    lens = rptr[new + 1] - rptr[new]
    pos = np.repeat(rptr[new] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    row, ins = np.repeat(np.arange(new.size), lens), ridx[pos]
    hit = np.concatenate([new, ins])
    np.subtract.at(gain, hit, oracle.weights[np.concatenate([new, new[row]])])
    np.subtract.at(left, hit, 1)
    gain[hit[left[hit] == 0]] = 0.0


def distributed_reference(instance, config, all_machines=False):
    """``run_distributed`` with each machine's candidates as the sorted union of
    its shard and the pooled ids, and ``eager_greedy`` on every machine that
    runs: (pool, winner, the notes a CountingOracle keeps, with cumulative
    calls).  ``all_machines`` runs every machine in the final round too,
    though only machine 1's final set can win."""
    counted, counter = instance.counted()
    pool, notes = [], []
    for rd in range(1, config.rounds + 1):
        pooled = np.unique(np.array([u for _, _, s in pool for u in s], dtype=np.intp))
        machines = [machine_of(config.seed, rd, u, config.m) for u in range(instance.n)]
        pool_sets, counts = len(pool), []
        for i in range(config.m if all_machines or rd < config.rounds else 1):
            shard = [u for u, mu in enumerate(machines) if mu == i]
            cands = np.union1d(np.array(shard, dtype=np.intp), pooled).tolist()
            counts.append(len(cands))
            pool.append((rd, i + 1, tuple(eager_greedy(counted, True, cands))))
        notes.append({"round": rd, "pool_sets": pool_sets, "pool_elements": len(pooled),
                      "shard_sizes": [machines.count(i) for i in range(config.m)],
                      "candidates": counts, "calls": counter.calls})
    winner = None
    for rd, i, s in pool:
        if rd < config.rounds or i == 1:
            sol = rs.Solution.evaluate(instance, s, f"distributed[round={rd},machine={i}]")
            if winner is None or sol.f_value > winner.f_value:
                winner = sol
    return pool, winner, notes


def machine_of(seed: int, round_index: int, element: int, m: int) -> int:
    """One element's machine in Python ints: the reference for RoundAssignment.draw."""
    x = _mix64(_round_key(seed, round_index) ^ ((element & _M64) + 0x8CB92BA72F3D8DD7))
    return x % m


@pytest.fixture
def three_node_cover():
    """Tiny digraph 1->2, 1->3, 2->3 with unit weights and unit costs."""
    graph = rs.DirectedGraph.from_edges([(1, 2), (1, 3), (2, 3)])
    oracle = rs.VertexCoverOracle(graph)
    cost = rs.vertex_cover_cost(graph.out_degrees(), 6)
    return graph, oracle, cost
