"""Correctness gate for benchmark solves.

Every solve must return a feasible set, and the g/ell/f values the library
reports for it must match a from-scratch recomputation done here, from the
raw generated inputs, without any library oracle.  On seeds with recorded
golden fingerprints the selected set must also be the recorded one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RTOL = 1e-8


def fingerprint(elements) -> str:
    """Order-free digest of a selected set."""
    ids = ",".join(str(int(u)) for u in sorted(elements))
    return hashlib.sha256(ids.encode()).hexdigest()[:16]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class CoverRef:
    """Unit-weight directed vertex cover g(S) = |S + out(S)| with degree costs."""

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, q: int):
        keep = src != dst
        pairs = np.unique(src[keep].astype(np.int64) * n + dst[keep])
        self.n = n
        self.src, self.dst = pairs // n, pairs % n
        self.ptr = np.searchsorted(self.src, np.arange(n + 1))
        deg = np.diff(self.ptr)
        self.costs = 1.0 + np.maximum(0, deg - q)

    def g(self, S) -> float:
        covered = np.zeros(self.n, dtype=bool)
        for u in S:
            covered[u] = True
            covered[self.dst[self.ptr[u]:self.ptr[u + 1]]] = True
        return float(covered.sum())


class FacilityRef:
    """Mean over points of the best exp(-distance) similarity to a pick."""

    def __init__(self, X: np.ndarray, costs: np.ndarray):
        self.X, self.costs, self.n = X, costs, X.shape[0]

    def g(self, S) -> float:
        if not S:
            return 0.0
        diff = self.X[:, None, :] - self.X[None, list(S), :]
        sim = np.exp(-np.sqrt((diff * diff).sum(axis=2)))
        return float(sim.max(axis=1).mean())


class LogDetRef:
    """log det(I + alpha * K_S) with K the exp(-distance) kernel of X."""

    def __init__(self, X: np.ndarray, alpha: float, costs: np.ndarray):
        self.X, self.alpha, self.costs, self.n = X, alpha, costs, X.shape[0]

    def g(self, S) -> float:
        if not S:
            return 0.0
        P = self.X[list(S)]
        diff = P[:, None, :] - P[None, :, :]
        K = np.exp(-np.sqrt((diff * diff).sum(axis=2)))
        sign, logdet = np.linalg.slogdet(np.eye(len(S)) + self.alpha * K)
        return float(logdet) if sign > 0 else float("nan")


class SurrogateRef:
    """Mode-finding surrogate of rho(S) = 1/2 log det(L_S) with gamma = 0.

    The derived cost of u is max(rho(N - u) - rho(N), 0), which by the
    cofactor identity det(L_{N-u}) / det(L) = (L^-1)_uu equals
    max(1/2 log (L^-1)_uu, 0); g(S) = rho(S) + cost(S).
    """

    def __init__(self, L: np.ndarray):
        self.L, self.n = L, L.shape[0]
        self.costs = np.maximum(0.5 * np.log(np.diag(np.linalg.inv(L))), 0.0)

    def g(self, S) -> float:
        if not S:
            return 0.0
        idx = list(S)
        sign, logdet = np.linalg.slogdet(self.L[np.ix_(idx, idx)])
        rho = 0.5 * float(logdet) if sign > 0 else float("nan")
        return rho + float(self.costs[idx].sum())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(b))


def check(elements, k: int, ref, reported: tuple[float, float, float],
          golden: str | None = None) -> list[str]:
    """Problems with one solve's output; an empty list means it passes.

    ``reported`` is the library's (f, g, ell) for ``elements``.
    """
    problems = []
    S = list(elements)
    if len(S) > k:
        problems.append(f"{len(S)} elements exceed budget {k}")
    if len(set(S)) != len(S):
        problems.append("duplicate element ids")
    if not all(isinstance(u, (int, np.integer)) and 0 <= u < ref.n for u in S):
        problems.append(f"element id outside [0, {ref.n})")
    if problems:
        return problems
    g = ref.g(S)
    ell = float(ref.costs[S].sum()) if S else 0.0
    for name, got, want in zip(("f", "g", "ell"), reported, (g - ell, g, ell)):
        if not _close(got, want):
            problems.append(f"{name} reported {got!r}, recomputed {want!r}")
    if golden is not None and fingerprint(S) != golden:
        problems.append(f"selection {fingerprint(S)} differs from golden {golden}")
    return problems
