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


def row_ptr(n: int, rows: np.ndarray) -> np.ndarray:
    """CSR ``ptr`` over n rows of entries that lie in the rows ``rows`` (each in [0, n))."""
    return np.concatenate([[0], np.bincount(rows, minlength=n).cumsum()])


def key_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward CSR arrays (see ``DirectedGraph``) of the edges whose keys
    ``src * n + dst`` the intp array ``keys`` lists ascending and distinct."""
    src = keys // n
    return row_ptr(n, src), keys - src * n


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Directed graph on a dense ground set ``{0, .., n-1}``.

    ``out_csr`` is the graph's one stored form: forward CSR arrays with the
    out-neighbours of u, strictly ascending and without u, at
    ``heads[ptr[u]:ptr[u+1]]``.  ``original_ids`` maps a dense id back to
    whatever label the source file used, so results can be reported in the
    input's vocabulary.  ``in_csr``, the same edges reversed, is always
    derived from ``out_csr``.
    """

    out_csr: tuple[np.ndarray, np.ndarray]
    original_ids: tuple[int, ...]
    in_csr: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        ptr, heads = self.out_csr
        if not (ptr.dtype.kind in "iu" and heads.dtype.kind in "iu" and ptr[:1].tolist() == [0]
                and (ptr[1:] >= ptr[:-1]).all() and ptr[-1] == heads.size
                and ((heads >= 0) & (heads < ptr.size - 1)).all()):
            raise ValueError("out_csr must have ptr rising from 0 to heads.size, heads in [0, n), "
                             "both integer arrays")
        if len(self.original_ids) != self.n:
            raise ValueError(f"original_ids must hold one label per node (n = {self.n})")
        tails = self.tails()
        if np.any(heads == tails) or np.any((heads[1:] <= heads[:-1]) & (tails[1:] == tails[:-1])):
            raise ValueError("out_csr rows must list their heads strictly ascending, without u")
        # numpy argsorts 8- and 16-bit ints stably by radix; within a head the
        # tails stay ascending, as the forward rows are in order
        h = heads.astype(np.min_scalar_type(self.n - 1))
        in_csr = row_ptr(self.n, h), tails[np.argsort(h, kind="stable")]
        object.__setattr__(self, "in_csr", in_csr)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]] | np.ndarray) -> "DirectedGraph":
        """(src, dst) int pairs or an (m, 2) int array; dedupes, drops self-loops, compacts ids
        with a presence table over [min, max] when that span is at most twice the label count
        (else one ``np.unique``), sorts the edge keys once and builds the CSRs from them."""
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
            flat = edges.ravel()
            bad = flat[flat > 2**63 - 1].tolist() if flat.dtype == np.uint64 else ()
        else:
            labels: list = []
            try:  # unpacking checks every row's length and that it is a row
                for src, dst in edges:
                    labels += src, dst
            except (TypeError, ValueError):
                raise ValueError("edges must be (src, dst) pairs") from None
            try:
                flat = np.fromiter(labels, dtype=np.int64, count=len(labels))
            except (OverflowError, TypeError, ValueError):
                flat = None
            bad = labels if flat is None or set(map(type, labels)) - {int} else ()
        for x in bad:
            checked_scalar(x, "edge label", int, f"[{-2**63}, {2**63})")
        a, b = flat[0::2], flat[1::2]
        keep = a != b
        # int64 holds every label left; narrower ints would wrap in labels - lo
        labels = np.concatenate([a[keep], b[keep]]).astype(np.int64, copy=False)
        lo, hi = (int(labels.min()), int(labels.max())) if labels.size else (0, -1)
        if hi - lo < 2 * labels.size:  # O(m + span), no sort
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[labels - lo] = True
            nodes, dense = np.flatnonzero(present) + lo, (np.cumsum(present) - 1)[labels - lo]
        else:
            nodes, dense = np.unique(labels, return_inverse=True)
        n, m = nodes.size, int(keep.sum())
        # a plain np.unique takes numpy's hash path (numpy >= 2.3), several times a sort
        keys = np.sort(dense[:m] * n + dense[m:])
        return cls(key_csr(n, keys[np.diff(keys, prepend=-1) != 0]), tuple(nodes.tolist()))

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
    A unit gain is u's cover size less the bits u's mask shares with the
    state: at the root (None) no mask is built.  Greedy's ``add`` makes a
    fixed number of numpy calls over the newly covered nodes' in-edges.  Its
    state is (covered, gain, left); with unit weights a node's gain is the
    uncovered count of its cover, so the state is (covered, gain).
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
        self._in_ptr = graph.in_csr[0].tolist()
        self._sizes = self._cover_size.tolist()  # Python ints index faster in node_gain

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
        if not self._unit:
            return self._weigh(self._mask(u) & ~(state or 0))
        return float(self._sizes[u] - (state is not None and (self._mask(u) & state).bit_count()))

    def value(self, S: ElementSet) -> float:
        return self._weigh(reduce(self.node_state, S, 0))

    def marginal(self, u: int, S: ElementSet) -> float:
        return self.node_gain(reduce(self.node_state, S, 0), u, S)

    def empty(self):
        """(covered mask, gain of every node, uncovered count of its cover),
        without the count for unit weights: there it equals the gain."""
        st = np.zeros(self.n, dtype=bool), self._single.copy()
        return st if self._unit else (*st, self._cover_size.copy())

    def gains(self, st, cands: np.ndarray) -> np.ndarray:
        return st[1][cands]

    def add(self, st, u: int) -> None:
        """Cover u and its out-neighbours.  Each newly covered node leaves
        the gain of itself and of its in-neighbours; a node whose whole
        cover is covered reads exactly 0, free of rounding."""
        covered, gain = st[:2]
        new = np.array([*self._heads[self._ptr[u]:self._ptr[u + 1]], u])
        new = new[~covered[new]]
        covered[new] = True
        ptr, heads = self._in_ptr, self.graph.in_csr[1]
        ins = [heads[ptr[v]:ptr[v + 1]] for v in new.tolist()]
        hit = np.concatenate([new, *ins])
        if self._unit:  # integer gains: subtracting 1 reaches 0 exactly
            np.subtract.at(gain, hit, 1.0)
            return
        left, w = st[2], self.weights[new]
        np.subtract.at(gain, hit, np.concatenate([w, w.repeat([a.size for a in ins])]))
        np.subtract.at(left, hit, np.int32(1))  # left's own dtype: ufunc.at's fast path
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
    or a negative row maximum would put ``value(S)`` below ``value(()) == 0``.
    A streaming state holds each client's best facility in S as an offset into
    ``M.ravel()``, packed as ``bytes`` of the least unsigned dtype that fits
    (2 bytes at 48 x 48), so gains read M's own entries, as ``marginal`` does."""

    def __init__(self, M: np.ndarray):
        self.M = checked_array(M, "similarity matrix", "2-D", nonneg=True)
        self.n = self.M.shape[1]
        self._flat, self._dtype = self.M.ravel(), np.min_scalar_type(self.M.size - 1)

    def node_state(self, state, u: int) -> bytes:
        col = np.arange(u, self._flat.size, self.n)  # offsets of M[:, u]
        if state is not None:
            old = np.frombuffer(state, self._dtype)
            col = np.where(self._flat[col] > self._flat.take(old), col, old)
        return col.astype(self._dtype).tobytes()

    def node_gain(self, state, u: int, S: tuple[int, ...]) -> float:
        best = 0.0 if state is None else self._flat.take(np.frombuffer(state, self._dtype))
        # ``np.add.reduce`` is ``sum`` without its Python wrapper: the same pairwise sum
        return float(np.add.reduce(np.maximum(self.M[:, u] - best, 0.0))) / self.M.shape[0]

    def _best(self, S: ElementSet) -> np.ndarray:
        """Each client's best similarity to a facility in S, 0 for the empty S."""
        return self.M[:, sorted(set(S))].max(axis=1, initial=0.0)

    def value(self, S: ElementSet) -> float:
        return float(self._best(S).sum()) / self.M.shape[0]

    def marginal(self, u: int, S: ElementSet) -> float:
        return float(np.maximum(self.M[:, u] - self._best(S), 0.0).sum()) / self.M.shape[0]


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
    """Diversity score g(S) = log det(I + alpha * M_S), alpha > 0, with M PSD
    by ``checked_array``'s "psd" rule; DegenerateMatrixError marks an
    I + alpha * M_S that still fails to factor (M within the rule's jitter)."""

    def __init__(self, M: np.ndarray, alpha: float = 1.0):
        # The incremental state reads whole rows of M, the Cholesky of
        # ``value`` one triangle; both agree only on a symmetric kernel.
        M = checked_array(M, "kernel matrix", "psd", nonneg=False)
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
        self.n = checked_scalar(n, "ground set size n", int, "[1, inf)")
        table: dict[int, dict[int, float]] = {}
        for w, e, v in triples:
            check_id(e, n)
            checked_scalar(v, f"score of word {w}, element {e}", float, "[0, inf)")
            table.setdefault(w, {})[e] = table.get(w, {}).get(e, 0.0) + v
        self.word_scores = table

    def value(self, S: ElementSet) -> float:
        """Sum over words of sqrt(total score contributed by chosen elements)."""
        members = set(S)
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
