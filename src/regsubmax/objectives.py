"""Concrete value oracles and cost constructions.

Everything here is desk-scale: dense float64 matrices, and graphs held as
forward CSR arrays with the reverse arrays derived from them.  Every input
array passes ``core.checked_array``.  All value oracles are normalized so
that ``value(()) == 0`` and all are monotone and submodular (the property
suite in the tests checks each one).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (ElementSet, ModularCost, SubmodularOracle, check_id, checked_array,
                   checked_scalar, set_ids)


class DegenerateMatrixError(ValueError):
    """A matrix that should be positive definite numerically is not."""


def csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, idx) with the heads of u's edges, ascending, at idx[ptr[u]:ptr[u+1]]."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return ptr, np.sort(src * n + dst) % n


def _gather(ptr: np.ndarray, idx: np.ndarray,
            rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All CSR neighbours of ``rows``, concatenated, with each one's row position."""
    lens = ptr[rows + 1] - ptr[rows]
    pos = np.repeat(ptr[rows] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return np.repeat(np.arange(rows.size), lens), idx[pos]


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Directed graph on a dense ground set ``{0, .., n-1}``.

    ``out_csr`` is the graph's one stored form: forward CSR arrays (see
    ``csr``) with the out-neighbours of u, ascending, at
    ``heads[ptr[u]:ptr[u+1]]``.  ``original_ids`` maps a dense id back to
    whatever label the source file used, so results can be reported in the
    input's vocabulary.  ``in_csr``, the same edges reversed, is always
    derived from ``out_csr``.
    """

    out_csr: tuple[np.ndarray, np.ndarray]
    original_ids: tuple[int, ...]
    in_csr: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "in_csr", csr(self.n, self.out_csr[1], self.tails()))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]] | np.ndarray) -> "DirectedGraph":
        """(src, dst) int pairs or an (m, 2) int array; dedupes, drops self-loops, compacts ids."""
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
            flat = edges.ravel()
        else:
            labels: list = []
            try:  # unpacking checks every row's length
                for src, dst in edges:
                    labels += src, dst
            except ValueError:
                raise ValueError("edges must be (src, dst) pairs") from None
            try:
                flat = np.fromiter(labels, dtype=np.int64, count=len(labels))
            except (OverflowError, TypeError, ValueError):
                flat = None
            for x in labels if flat is None or set(map(type, labels)) - {int} else ():
                checked_scalar(x, "edge label", int, f"[{-2**63}, {2**63})")
        a, b = flat[0::2], flat[1::2]
        keep = a != b
        nodes, dense = np.unique(np.concatenate([a[keep], b[keep]]), return_inverse=True)
        n, m = nodes.size, int(keep.sum())
        pairs = np.unique(dense[:m] * n + dense[m:])
        return cls(csr(n, pairs // n, pairs % n), tuple(nodes.tolist()))

    @property
    def n(self) -> int:
        return self.out_csr[0].size - 1

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_csr[0])

    def tails(self) -> np.ndarray:
        """The source of every edge, aligned with the heads of ``out_csr``."""
        return np.repeat(np.arange(self.n), self.out_degrees())

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.tails().tolist(), self.out_csr[1].tolist()))


def vertex_cover_cost(out_degrees: Sequence[int], q: int) -> ModularCost:
    """Per-node cost 1 + max(0, degree - q): high-degree nodes cost extra."""
    d = np.asarray(out_degrees, dtype=float)
    return ModularCost(1.0 + np.maximum(0.0, d - float(q)))


class VertexCoverOracle(SubmodularOracle):
    """Weighted directed coverage: g(S) = weight of S plus its out-neighbors.

    A cover is an int mask, bit v for node v: a streaming node's state is
    its set's, and u's is built from its CSR row when asked for, keeping
    only the last one, so the oracle holds O(n + m) and a state n/8 bytes.
    """

    def __init__(self, graph: DirectedGraph, weights: Sequence[float] | None = None):
        self.graph = graph
        self.n = n = graph.n
        self.weights = checked_array(np.ones(n) if weights is None else weights,
                                     "node weights", "1-D", nonneg=True)
        if self.weights.shape != (n,):
            raise ValueError("weights length must match node count")
        self._unit = bool(np.all(self.weights == 1.0))
        ptr, heads = graph.out_csr
        self._single = self.weights + np.bincount(graph.tails(), self.weights[heads], n)
        self._cover_size = (graph.out_degrees() + 1).astype(np.int32)
        self._ptr, self._heads, self._last = ptr.tolist(), heads.tolist(), (-1, 0)

    def _mask(self, u: int) -> int:
        """u's cover as a mask; a stream asks for one element's many times."""
        if self._last[0] != u:
            mask = 1 << int(u)  # an id may be a numpy int
            for v in self._heads[self._ptr[u]:self._ptr[u + 1]]:
                mask |= 1 << v
            self._last = u, mask
        return self._last[1]

    def _weigh(self, mask: int) -> float:
        """Weight of the nodes whose bits ``mask`` sets, summed ascending."""
        if self._unit:
            return float(mask.bit_count())
        bits = np.unpackbits(np.frombuffer(mask.to_bytes((self.n + 7) // 8, "little"), np.uint8),
                             count=self.n, bitorder="little")
        return float(self.weights[bits.view(bool)].sum())

    def node_state(self, state, u: int) -> int:
        return (state or 0) | self._mask(u)

    def node_gain(self, state, u: int, S: tuple[int, ...]) -> float:
        return self._weigh(self._mask(u) & ~(state or 0))

    def value(self, S: ElementSet) -> float:
        return self._weigh(reduce(self.node_state, S, 0))

    def marginal(self, u: int, S: ElementSet) -> float:
        return self.node_gain(reduce(self.node_state, S, 0), u, S)

    def empty(self):
        """(covered mask, gain of every node, uncovered count of its cover)."""
        return np.zeros(self.n, dtype=bool), self._single.copy(), self._cover_size.copy()

    def gains(self, st, cands: np.ndarray) -> np.ndarray:
        return st[1][cands]

    def add(self, st, u: int) -> None:
        """Cover u and its out-neighbours.  Each newly covered node leaves
        the gain of itself and of its in-neighbours; a node whose whole
        cover is covered reads exactly 0, free of rounding."""
        covered, gain, left = st
        ptr, heads = self.graph.out_csr
        new = np.append(heads[ptr[u]:ptr[u + 1]], u)
        new = new[~covered[new]]
        covered[new] = True
        row, ins = _gather(*self.graph.in_csr, new)
        hit = np.concatenate([new, ins])
        np.subtract.at(gain, hit, self.weights[np.concatenate([new, new[row]])])
        np.subtract.at(left, hit, 1)
        gain[hit[left[hit] == 0]] = 0.0


def similarity_from_features(X: np.ndarray) -> np.ndarray:
    """Dense similarity matrix M[i, j] = exp(-||x_i - x_j||).

    Entries land in (0, 1] with an exact unit diagonal; the matrix is
    symmetrized to kill float asymmetry from the distance computation.
    """
    X = np.asarray(X, dtype=float)
    X = checked_array(X[:, None] if X.ndim == 1 else X, "features", "2-D", nonneg=False)
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.clip(d2, 0.0, None, out=d2)
    M = np.exp(-np.sqrt(d2))
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, 1.0)
    return M


class FacilityLocationOracle(SubmodularOracle):
    """Facility location: rows of M are clients, columns are facilities, and
    g(S) is the mean over clients of the best similarity in S.  Non-negative,
    or a negative row maximum would put ``value(S)`` below ``value(()) == 0``."""

    def __init__(self, M: np.ndarray):
        self.M = checked_array(M, "similarity matrix", "2-D", nonneg=True)
        self.n = self.M.shape[1]

    def _best(self, S: ElementSet) -> np.ndarray:
        """Each client's best similarity to a facility in S, 0 for the empty S."""
        return self.M[:, sorted(set(S))].max(axis=1, initial=0.0)

    def value(self, S: ElementSet) -> float:
        return float(self._best(S).mean())

    def marginal(self, u: int, S: ElementSet) -> float:
        return float(np.maximum(self.M[:, u] - self._best(S), 0.0).mean())


def half_logdet(A: np.ndarray) -> float:
    """1/2 log det A from numpy's Cholesky, -inf when A is not positive definite."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return -math.inf
    return float(np.log(np.diag(L)).sum())


def grow_cholesky(st, row: np.ndarray, u: int) -> None:
    """Grow the row-by-row Cholesky ``st = (d2, rows, S)`` of a PD kernel A by
    u (Chen, Zhang & Zhou, NeurIPS 2018): ``row``, a fresh copy of A[u], joins
    the factor, and d2[v] becomes v's Schur complement given S + u."""
    d2, rows, S = st
    if u in S:
        return
    for r in rows:
        row -= r[u] * r
    row /= math.sqrt(d2[u])
    d2 -= row * row
    rows.append(row)
    S.append(u)


class LogDetOracle(SubmodularOracle):
    """Diversity score g(S) = log det(I + alpha * M_S), alpha > 0, M PSD."""

    def __init__(self, M: np.ndarray, alpha: float = 1.0):
        # The incremental state reads whole rows of M, the Cholesky of
        # ``value`` one triangle; both agree only on a symmetric kernel.
        M = checked_array(M, "kernel matrix", "symmetric", nonneg=False)
        self.M = M
        self.alpha = float(checked_scalar(alpha, "alpha", float, "(0, inf)"))
        self.n = M.shape[0]

    def value(self, S: ElementSet) -> float:
        """log det(I + alpha * M_S) via Cholesky on the principal submatrix."""
        idx = sorted(set(S))
        half = half_logdet(np.eye(len(idx)) + self.alpha * self.M[np.ix_(idx, idx)])
        if half == -math.inf:
            raise DegenerateMatrixError(f"I + alpha*M_S not positive definite for S={idx}")
        return 2.0 * half

    def empty(self):
        """``grow_cholesky`` state of A = I + alpha * M, so marginal(u, S) =
        log d2[u].  Members hold d2 = 1, a zero gain."""
        return 1.0 + self.alpha * np.diag(self.M), [], []

    def gains(self, st, cands: np.ndarray) -> np.ndarray:
        d2, _, S = st
        d = d2[cands]
        if np.any(d <= 0.0):
            bad = int(np.asarray(cands)[np.argmin(d)])
            raise DegenerateMatrixError(
                f"I + alpha*M_S not positive definite for S={sorted(S + [bad])}")
        return np.log(d)

    def add(self, st, u: int) -> None:
        row = self.alpha * self.M[u]
        row[u] += 1.0
        grow_cholesky(st, row, u)
        st[0][st[2]] = 1.0


class SaturatingCoverageOracle(SubmodularOracle):
    """Concave-over-modular coverage built from (word, element, score) triples."""

    def __init__(self, triples: Iterable[tuple[int, int, float]], n: int):
        self.n = n
        table: dict[int, dict[int, float]] = {}
        for w, e, v in triples:
            check_id(e, n)
            checked_scalar(v, f"score of word {w}, element {e}", float, "[0, inf)")
            table.setdefault(w, {})[e] = table.get(w, {}).get(e, 0.0) + v
        self.word_scores = table

    def value(self, S: ElementSet) -> float:
        """Sum over words of sqrt(total score contributed by chosen elements)."""
        members = set(S)
        if not members:
            return 0.0
        total = 0.0
        for scores in self.word_scores.values():
            acc = sum(v for e, v in scores.items() if e in members)
            if acc > 0.0:
                total += math.sqrt(acc)
        return total


class ModularOracle(SubmodularOracle):
    """Modular g (degenerate submodular case); handy for benchmarks and tests.

    Like every oracle it reads ``S`` as a set: repeated ids count once, and
    the marginal of a member is 0.
    """

    def __init__(self, weights: Sequence[float]):
        self.weights = checked_array(weights, "modular weights", "1-D", nonneg=True)
        self.n = self.weights.shape[0]

    def value(self, S: ElementSet) -> float:
        return float(self.weights[list(dict.fromkeys(S))].sum())

    def marginal(self, u: int, S: ElementSet) -> float:
        return 0.0 if u in set(S) else float(self.weights[u])


@dataclass
class ReservoirEstimator:
    """Uniform fixed-size sample of a stream (classic one-pass replacement).

    Keeps every prefix uniformly represented: the first ``capacity`` items
    fill the reservoir, after which item number t replaces a uniformly random
    slot with probability capacity / t.
    """

    capacity: int
    seed: int = 0

    def __post_init__(self):
        checked_scalar(self.capacity, "capacity", int, "[0, inf)")
        self.items: list[int] = []
        self.seen = 0
        self._rng = random.Random(self.seed)

    def update(self, item: int) -> "ReservoirEstimator":
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            j = self._rng.randrange(self.seen)
            if j < self.capacity:
                self.items[j] = item
        return self


def reservoir_facility_estimate(est: ReservoirEstimator,
                                similarity_rows: Callable[[int], np.ndarray],
                                S: ElementSet) -> float:
    """Facility location with the sampled items' similarity rows as clients:
    the mean over reservoir items i of max_{j in S} M[i, j], unbiased for
    the exact average because the reservoir is uniform."""
    if not est.items:
        raise ValueError("reservoir is empty; estimate undefined")
    rows = FacilityLocationOracle(np.array([similarity_rows(i) for i in est.items]))
    return rows.value(set_ids(S, rows.n))
