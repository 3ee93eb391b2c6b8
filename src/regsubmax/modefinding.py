"""Reduction from additively weak submodular maximization to g - ell form.

A set function rho is gamma-additively weak submodular when

    rho(S) + rho(S + u + v) <= gamma + rho(S + u) + rho(S + v)

for all S and distinct u, v outside S.  Subtracting the quadratic penalty
gamma/2 * |S| * (|S|-1) from rho yields a submodular corrected function;
adding per-element costs derived from its shape at the full ground set then
yields a monotone submodular part, so the whole streaming/greedy toolbox
applies.  Log-densities of strongly log-concave distributions are the
motivating example: maximizing the density (mode finding) becomes a
regularized submodular problem.  For an ``SlcInstance`` density the derived
costs come from one inverse of L, and the surrogate's greedy state grows a
Cholesky of L by one row per pick.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (ElementSet, ModularCost, RegularizedInstance, SubmodularOracle,
                   checked_array, checked_scalar)
from .objectives import grow_cholesky, half_logdet

EXHAUSTIVE_LIMIT = 10
VIOLATION_TOL = 1e-9  # largest violation ``check_gamma_weak`` forgives


@dataclass(frozen=True)
class WeakSubmodularInstance:
    """A set function with its weakness parameter gamma (user supplied)."""

    rho: Callable[[tuple[int, ...]], float]
    gamma: float
    n: int

    def __post_init__(self):
        checked_scalar(self.gamma, "gamma", float, "[0, inf)")
        checked_scalar(self.n, "ground set size n", int, "[1, inf)")

    def rho_of(self, S: ElementSet) -> float:
        return float(self.rho(tuple(sorted(set(S)))))


def lambda_value(inst: WeakSubmodularInstance, S: ElementSet) -> float:
    """Quadratically corrected value rho(S) - gamma/2 * |S| * (|S|-1)."""
    members = tuple(sorted(set(S)))
    s = len(members)
    return inst.rho_of(members) - 0.5 * inst.gamma * s * (s - 1)


def _slc_kernel(inst: WeakSubmodularInstance) -> np.ndarray | None:
    """L if rho is a bound ``SlcInstance.log_density``: the closed forms' switch."""
    slc = getattr(inst.rho, "__self__", None)
    return slc.L if (isinstance(slc, SlcInstance) and slc.n == inst.n and
                     inst.rho.__func__ is SlcInstance.log_density) else None


def derived_cost(inst: WeakSubmodularInstance) -> ModularCost:
    """Per-element costs making the corrected function's monotone completion.

    cost(u) = max(corrected(N - u) - corrected(N), 0)
            = max(rho(N - u) - rho(N) + gamma * (n - 1), 0).

    Needs rho finite at the full set and all its n leave-one-out sets.  For
    an ``SlcInstance`` density one inverse gives all n, since rho(N - u) -
    rho(N) = 1/2 log (L^-1)_uu (the adjugate identity).
    """
    full = tuple(range(inst.n))
    lam_full = lambda_value(inst, full)
    if not math.isfinite(lam_full):
        raise ValueError("rho must be finite at the full ground set; "
                         "support-capped densities do not reduce")
    L = _slc_kernel(inst)
    if L is not None:
        loo = 0.5 * np.log(np.diag(np.linalg.inv(L))) + inst.gamma * (inst.n - 1)
    else:
        loo = np.array([lambda_value(inst, full[:u] + full[u + 1:])
                        for u in range(inst.n)]) - lam_full
        if not np.all(np.isfinite(loo)):
            raise ValueError("rho must be finite at every leave-one-out set")
    return ModularCost(np.maximum(loo, 0.0))


class SurrogateOracle(SubmodularOracle):
    """Monotone submodular part g = corrected + derived cost.

    If rho(()) < 0 the whole function is shifted up by -rho(()) so g stays
    non-negative; the shift is recorded in ``offset`` and cancels out of all
    argmax comparisons, so reported rho values stay un-shifted.
    For an ``SlcInstance`` density the greedy state is ``grow_cholesky``'s
    over L, and marginal(u, S) = 1/2 log d2[u] - gamma * |S| + cost(u).
    """

    def __init__(self, inst: WeakSubmodularInstance):
        self.inst = inst
        self.n = inst.n
        self.cost = derived_cost(inst)
        empty = inst.rho_of(())
        if not math.isfinite(empty):
            raise ValueError("rho must be finite at the empty set")
        self.offset = -empty if empty < 0 else 0.0
        self._L = _slc_kernel(inst)

    def value(self, S: ElementSet) -> float:
        members = tuple(sorted(set(S)))
        return lambda_value(self.inst, members) + self.offset + self.cost(members)

    def empty(self):
        return super().empty() if self._L is None else (self._L.diagonal().copy(), [], [])

    def gains(self, st, cands: np.ndarray) -> np.ndarray:
        if self._L is None:
            return super().gains(st, cands)
        # -inf where L_{S+u} is not PD; the cap never binds (finite rho(N): d >= n)
        d, S = st[0][cands], st[2]
        g = 0.5 * np.log(d, out=np.full(d.shape, -np.inf), where=d > 0.0)
        g += self.cost.costs[cands] - self.inst.gamma * len(S)
        member = np.zeros(self.n, dtype=bool)
        member[S] = True
        return np.where(member[cands], 0.0, g)

    def add(self, st, u: int) -> None:
        if self._L is None:
            return super().add(st, u)
        grow_cholesky(st, self._L[u].copy(), u)


def surrogate_instance(inst: WeakSubmodularInstance, k: int) -> RegularizedInstance:
    """Regularized instance whose f(S) equals the corrected function (+shift)."""
    oracle = SurrogateOracle(inst)
    return RegularizedInstance(oracle, oracle.cost, k)


def check_gamma_weak(inst: WeakSubmodularInstance) -> tuple[bool, float]:
    """Verify the weak-submodularity inequality; returns (ok, max violation).

    Enumerates every (S, u, v) triple, so n is limited to EXHAUSTIVE_LIMIT;
    a larger set function needs its gamma given.  -inf values are handled by
    direct comparison (the inequality holds whenever the left side is -inf).
    """
    n, gamma = inst.n, inst.gamma
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive check limited to n <= {EXHAUSTIVE_LIMIT}")

    def violation(S: tuple[int, ...], u: int, v: int) -> float:
        lhs = inst.rho_of(S) + inst.rho_of(S + (u, v))
        rhs = gamma + inst.rho_of(S + (u,)) + inst.rho_of(S + (v,))
        if lhs == -math.inf:
            return 0.0 if rhs == -math.inf else -math.inf
        if rhs == -math.inf:
            return math.inf
        return lhs - rhs

    worst = -math.inf
    for size in range(n - 1):
        for S in itertools.combinations(range(n), size):
            rest = [x for x in range(n) if x not in S]
            for u, v in itertools.combinations(rest, 2):
                worst = max(worst, violation(S, u, v))
    if worst == -math.inf:
        worst = 0.0
    return worst <= VIOLATION_TOL, worst


@dataclass(frozen=True)
class SlcInstance:
    """Log-density 1/2 * log det(L_S) with a support-size cap.

    L must pass ``checked_array``'s "psd" rule; sets larger than the cap or
    hitting a singular principal minor score -inf.
    """

    L: np.ndarray
    d: int

    def __post_init__(self):
        L = checked_array(self.L, "L", "psd", nonneg=False)
        checked_scalar(self.d, "support cap d", int, "[0, inf)")
        object.__setattr__(self, "L", L)

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def log_density(self, S: ElementSet) -> float:
        idx = sorted(set(S))
        if len(idx) > self.d:
            return -math.inf
        return half_logdet(self.L[np.ix_(idx, idx)])

    def weak_instance(self, gamma: float) -> WeakSubmodularInstance:
        return WeakSubmodularInstance(self.log_density, gamma, self.n)


def sample_slc_matrix(n: int, mu: float = 1.0, sigma: float = 1.0,
                      seed: int = 0) -> np.ndarray:
    """Random symmetric PSD kernel with log-normal spectrum.

    Eigenvalues are drawn log-normal(mu, sigma); the eigenbasis is Haar
    orthogonal (QR of a Gaussian matrix with the sign fix), so the result is
    exactly symmetric with the drawn spectrum.
    """
    checked_scalar(n, "n", int, "[1, inf)")
    checked_scalar(mu, "mu", float, "(-inf, inf)")
    checked_scalar(sigma, "sigma", float, "[0, inf)")
    rng = np.random.default_rng(checked_scalar(seed, "seed", int, "[0, inf)"))
    eigs = rng.lognormal(mean=mu, sigma=sigma, size=n)
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    L = (Q * eigs) @ Q.T
    return 0.5 * (L + L.T)
