"""Reduction from additively weak submodular maximization to g - ell form.

A set function rho is gamma-additively weak submodular when

    rho(S) + rho(S + u + v) <= gamma + rho(S + u) + rho(S + v)

for all S and distinct u, v outside S.  Subtracting the quadratic penalty
gamma/2 * |S| * (|S|-1) from rho yields a submodular corrected function;
adding per-element costs derived from its shape at the full ground set then
yields a monotone submodular part, so the whole streaming/greedy toolbox
applies.  Log-densities of strongly log-concave distributions are the
motivating example: maximizing the density (mode finding) becomes a
regularized submodular problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (ElementSet, ModularCost, RegularizedInstance, SubmodularOracle,
                   checked_array)

EXHAUSTIVE_LIMIT = 10
VIOLATION_TOL = 1e-9  # largest violation ``check_gamma_weak`` forgives


@dataclass(frozen=True)
class WeakSubmodularInstance:
    """A set function with its weakness parameter gamma (user supplied)."""

    rho: Callable[[tuple[int, ...]], float]
    gamma: float
    n: int

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.n < 1:
            raise ValueError("ground set must be non-empty")

    def rho_of(self, S: ElementSet) -> float:
        return float(self.rho(tuple(sorted(set(S)))))


def lambda_value(inst: WeakSubmodularInstance, S: ElementSet) -> float:
    """Quadratically corrected value rho(S) - gamma/2 * |S| * (|S|-1)."""
    members = tuple(sorted(set(S)))
    s = len(members)
    return inst.rho_of(members) - 0.5 * inst.gamma * s * (s - 1)


def derived_cost(inst: WeakSubmodularInstance) -> ModularCost:
    """Per-element costs making the corrected function's monotone completion.

    cost(u) = max(corrected(N - u) - corrected(N), 0)
            = max(rho(N - u) - rho(N) + gamma * (n - 1), 0).

    Needs rho finite at the full set and all its n leave-one-out sets.
    """
    full = tuple(range(inst.n))
    lam_full = lambda_value(inst, full)
    if not math.isfinite(lam_full):
        raise ValueError("rho must be finite at the full ground set; "
                         "support-capped densities do not reduce")
    costs = np.empty(inst.n)
    for u in range(inst.n):
        rest = tuple(v for v in full if v != u)
        lam_rest = lambda_value(inst, rest)
        if not math.isfinite(lam_rest):
            raise ValueError("rho must be finite at every leave-one-out set")
        costs[u] = max(lam_rest - lam_full, 0.0)
    return ModularCost(costs)


class SurrogateOracle(SubmodularOracle):
    """Monotone submodular part g = corrected + derived cost.

    If rho(()) < 0 the whole function is shifted up by -rho(()) so g stays
    non-negative; the shift is recorded in ``offset`` and cancels out of all
    argmax comparisons, so reported rho values stay un-shifted.
    """

    def __init__(self, inst: WeakSubmodularInstance):
        self.inst = inst
        self.n = inst.n
        self.cost = derived_cost(inst)
        empty = inst.rho_of(())
        if not math.isfinite(empty):
            raise ValueError("rho must be finite at the empty set")
        self.offset = -empty if empty < 0 else 0.0

    def value(self, S: ElementSet) -> float:
        members = tuple(sorted(set(S)))
        return lambda_value(self.inst, members) + self.offset + self.cost(members)


def surrogate_instance(inst: WeakSubmodularInstance, k: int) -> RegularizedInstance:
    """Regularized instance whose f(S) equals the corrected function (+shift)."""
    oracle = SurrogateOracle(inst)
    return RegularizedInstance(oracle, oracle.cost, k)


def check_gamma_weak(inst: WeakSubmodularInstance, mode: str = "exhaustive",
                     samples: int = 2000, seed: int = 0) -> tuple[bool, float]:
    """Verify the weak-submodularity inequality; returns (ok, max violation).

    Exhaustive mode enumerates every (S, u, v) triple and is guarded to
    small n; sampled mode draws random triples.  -inf values are handled by
    direct comparison (the inequality holds whenever the left side is -inf).
    """
    n, gamma = inst.n, inst.gamma

    def violation(S: tuple[int, ...], u: int, v: int) -> float:
        lhs = inst.rho_of(S) + inst.rho_of(S + (u, v))
        rhs = gamma + inst.rho_of(S + (u,)) + inst.rho_of(S + (v,))
        if lhs == -math.inf:
            return 0.0 if rhs == -math.inf else -math.inf
        if rhs == -math.inf:
            return math.inf
        return lhs - rhs

    worst = -math.inf
    if mode == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive check limited to n <= {EXHAUSTIVE_LIMIT}")
        universe = range(n)
        for size in range(n - 1):
            for S in itertools.combinations(universe, size):
                rest = [x for x in universe if x not in S]
                for u, v in itertools.combinations(rest, 2):
                    worst = max(worst, violation(S, u, v))
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            u, v = map(int, rng.choice(n, size=2, replace=False))
            mask = rng.random(n) < rng.random()
            mask[u] = mask[v] = False
            S = tuple(int(x) for x in np.flatnonzero(mask))
            worst = max(worst, violation(S, u, v))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if worst == -math.inf:
        worst = 0.0
    return worst <= VIOLATION_TOL, worst


@dataclass(frozen=True)
class SlcInstance:
    """Log-density 1/2 * log det(L_S) with a support-size cap.

    L must be symmetric PSD; sets larger than the cap or hitting a singular
    principal minor score -inf.
    """

    L: np.ndarray
    d: int

    def __post_init__(self):
        L = checked_array(self.L, "L", "square", nonneg=False)
        if not np.allclose(L, L.T, atol=1e-8):
            raise ValueError("L must be symmetric")
        if self.d < 0:
            raise ValueError("support cap must be >= 0")
        if np.linalg.eigvalsh(L).min() < -1e-9:
            raise ValueError("L must be positive semidefinite")
        object.__setattr__(self, "L", L)

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def log_density(self, S: ElementSet) -> float:
        idx = sorted(set(S))
        if len(idx) > self.d:
            return -math.inf
        if not idx:
            return 0.0
        sub = self.L[np.ix_(idx, idx)]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            return -math.inf
        return float(np.log(np.diag(chol)).sum())

    def weak_instance(self, gamma: float) -> WeakSubmodularInstance:
        return WeakSubmodularInstance(self.log_density, gamma, self.n)


def sample_slc_matrix(n: int, mu: float = 1.0, sigma: float = 1.0,
                      seed: int = 0) -> np.ndarray:
    """Random symmetric PSD kernel with log-normal spectrum.

    Eigenvalues are drawn log-normal(mu, sigma); the eigenbasis is Haar
    orthogonal (QR of a Gaussian matrix with the sign fix), so the result is
    exactly symmetric with the drawn spectrum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    eigs = rng.lognormal(mean=mu, sigma=sigma, size=n)
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    L = (Q * eigs) @ Q.T
    return 0.5 * (L + L.T)
