"""Reference algorithms: plain greedy, sieve streaming, exhaustive search.

The exhaustive searches are the ground-truth oracles the test suite measures
everything else against; they are guarded to small ground sets on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core import RegularizedInstance, Solution, greedy
from .streaming import approx_factor, geometric_index_range

BRUTE_FORCE_LIMIT = 20


def vanilla_greedy(instance: RegularizedInstance,
                   candidates=None) -> list[int]:
    """Iteratively add the element with the best positive f-gain.

    The best f-gain is non-increasing as the set grows (submodular marginal
    minus a fixed cost), so stopping at the first non-positive round is
    exact.  Ties go to the smallest id.
    """
    return greedy(instance, [1.0] * instance.k, candidates, stop=True)


def sieve_streaming(stream, instance: RegularizedInstance, eps: float,
                    provenance: str = "sieve") -> Solution:
    """Threshold streaming against geometric guesses of the optimal f-value.

    Guess v keeps a set that admits u when the f-marginal is at least
    (v/2 - f(S)) / (k - |S|).  Guesses live in [m, 2*k*m] for the running
    max singleton f-value m; only positive singletons open the window, since
    a non-positive optimum is dominated by the empty set anyway.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
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

    best = Solution.evaluate(instance, (), f"{provenance}[empty]")
    for i in sorted(sets):
        sol = Solution.evaluate(instance, sets[i], f"{provenance}[i={i}]")
        if sol.f_value > best.f_value:
            best = sol
    return best


def _feasible_subsets(n: int, k: int):
    for size in range(k + 1):
        yield from combinations(range(n), size)


def brute_force_opt(instance: RegularizedInstance,
                    k: int | None = None) -> tuple[tuple[int, ...], float]:
    """Exact argmax of f over all subsets within the budget.

    Exponential; refuses ground sets above BRUTE_FORCE_LIMIT.  Among ties it
    returns the lexicographically smallest tuple (the empty set counts as
    smallest), so the output is deterministic.
    """
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"ground set of size {n} exceeds brute-force limit "
                         f"{BRUTE_FORCE_LIMIT}")
    kk = instance.k if k is None else k
    if kk < 0:
        raise ValueError("budget must be >= 0")
    best_set: tuple[int, ...] = ()
    best_val = instance.f(())
    for cand in _feasible_subsets(n, kk):
        v = instance.f(cand)
        if v > best_val or (v == best_val and cand < best_set):
            best_set, best_val = cand, v
    return best_set, best_val


@dataclass(frozen=True)
class BenchmarkTarget:
    """Weighted benchmark a*g(T) - b*ell(T) maximized over |T| <= k."""

    a: float
    b: float
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("budget must be >= 0")


def brute_force_distorted(instance: RegularizedInstance,
                          target: BenchmarkTarget) -> tuple[tuple[int, ...], float]:
    """Exact argmax of the weighted benchmark; same guard and tie rule as above."""
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"ground set of size {n} exceeds brute-force limit "
                         f"{BRUTE_FORCE_LIMIT}")
    best_set: tuple[int, ...] = ()
    best_val = target.a * instance.oracle.value(()) - target.b * instance.cost(())
    for cand in _feasible_subsets(n, target.k):
        v = target.a * instance.oracle.value(cand) - target.b * instance.cost(cand)
        if v > best_val or (v == best_val and cand < best_set):
            best_set, best_val = cand, v
    return best_set, best_val


def brute_force_tau(instance: RegularizedInstance, r: float, eps: float,
                    c: float | None = None) -> tuple[float, tuple[int, ...], float]:
    """Offline threshold pick for a fixed-threshold streaming run.

    Finds the benchmark set T maximizing (factor - eps)*g - r*ell, anchors
    at v = factor*g(T) - r*ell(T), and returns tau = c*v/k together with T
    and v.  Any c in [1/(1+eps), 1] keeps k*tau <= v <= (1+eps)*k*tau; the
    default is the low end.
    """
    if c is None:
        c = 1.0 / (1.0 + eps)
    if not 1.0 / (1.0 + eps) - 1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError("c must lie in [1/(1+eps), 1]")
    factor = approx_factor(r)
    T, _ = brute_force_distorted(instance,
                                 BenchmarkTarget(factor - eps, r, instance.k))
    anchor = factor * instance.oracle.value(T) - r * instance.cost(T)
    tau = c * anchor / instance.k
    return tau, T, anchor
