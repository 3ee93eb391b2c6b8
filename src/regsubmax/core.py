"""Ground-set model shared by every algorithm in the package.

A problem instance is a monotone non-negative submodular value oracle ``g``,
a non-negative modular cost vector ``ell`` over the same dense ground set
``{0, .., n-1}``, and a cardinality budget ``k``.  Algorithms maximize
``f(S) = g(S) - ell(S)`` subject to ``|S| <= k`` and interact with the data
only through oracle evaluations, which makes call counting meaningful.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

ElementSet = Iterable[int]


class SubmodularOracle:
    """Value oracle for a set function over ``{0, .., n-1}``.

    Subclasses set ``n`` and implement ``value``.  ``marginal`` defaults to
    the two-evaluation difference; override it when something cheaper is
    available.  Oracles shipped in :mod:`regsubmax.objectives` are normalized
    so ``value(()) == 0`` and are monotone and submodular; neither property
    is checked per call (the test suite covers them).

    Greedy algorithms grow one set and score many candidates against it, so
    they go through a per-set state: ``st = empty()``, ``gains(st, cands)``
    for the marginals of a whole candidate array, and ``add(st, u)``.  Greedy
    makes no ``add`` after its last pick, so a state may not see every pick.
    The defaults keep ``S`` as a plain list and call ``marginal`` once per
    candidate; an oracle with an incremental form overrides all three.
    Streaming keeps a state per set, never mutated: None for the empty set,
    ``node_state(state, u)`` for ``S + (u,)``, and ``node_gain(state, u, S)``
    is u's marginal against S.  The defaults keep none and call ``marginal``.
    """

    n: int = 0

    def value(self, S: ElementSet) -> float:
        raise NotImplementedError

    def marginal(self, u: int, S: ElementSet) -> float:
        base = list(S)
        return self.value(base + [u]) - self.value(base)

    def empty(self):
        """State of the empty set, for ``gains`` and ``add``."""
        return []

    def gains(self, st, cands: np.ndarray) -> np.ndarray:
        """Marginal of every element of ``cands`` against the state's set."""
        return np.array([self.marginal(int(u), st) for u in cands], dtype=float)

    def add(self, st, u: int) -> None:
        """Grow the state's set by ``u`` in place."""
        st.append(u)

    def node_state(self, state, u: int):
        return None

    def node_gain(self, state, u: int, S: tuple[int, ...]) -> float:
        return self.marginal(u, S)

    def note(self, **fields) -> None:
        """Take a record from the running algorithm (one per distributed round); dropped here."""


class CountingOracle(SubmodularOracle):
    """Wraps an oracle and counts evaluations.

    One increment per ``value()``, ``marginal()`` or ``node_gain()`` call on
    this wrapper; the inner oracle's own work and the state methods, which
    are the inner oracle's, are not the caller's evaluations.  ``notes``
    keeps every ``note`` as a dict of its fields plus ``calls`` at that moment.
    """

    def __init__(self, inner: SubmodularOracle):
        self.inner = inner
        self.n = inner.n
        self.value_calls = 0
        self.marginal_calls = 0
        self.notes: list[dict] = []
        self.empty, self.add, self.node_state = inner.empty, inner.add, inner.node_state

    def value(self, S: ElementSet) -> float:
        self.value_calls += 1
        return self.inner.value(S)

    def marginal(self, u: int, S: ElementSet) -> float:
        self.marginal_calls += 1
        return self.inner.marginal(u, S)

    def gains(self, st, cands: np.ndarray) -> np.ndarray:
        """Counts one marginal call per candidate scored."""
        self.marginal_calls += len(cands)
        return self.inner.gains(st, cands)

    def node_gain(self, state, u: int, S: tuple[int, ...]) -> float:
        self.marginal_calls += 1
        return self.inner.node_gain(state, u, S)

    def note(self, **fields) -> None:
        self.notes.append(dict(fields, calls=self.calls))

    @property
    def calls(self) -> int:
        return self.value_calls + self.marginal_calls


def checked_array(x, name: str, shape: str, nonneg: bool) -> np.ndarray:
    """``x`` as a float array, the one rule for every input array.

    ValueError, with a message that starts with ``name``, unless the array
    has the ``shape`` ("1-D", "2-D", "square", "symmetric": square and
    ``allclose`` to its transpose, or "psd": symmetric with a Cholesky once
    1e-8 * max(1, largest |diagonal entry|) is added to the diagonal, so a
    singular PSD kernel passes), only finite entries and, when ``nonneg``,
    no negative entry.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != (1 if shape == "1-D" else 2) or (
            shape in ("square", "symmetric", "psd") and arr.shape[0] != arr.shape[1]):
        raise ValueError(f"{name} must be {shape}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (got NaN or inf)")
    if nonneg and np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    # In row blocks, so no n x n temporary is made; the exact test is the cheaper.
    if shape in ("symmetric", "psd") and not all(
            np.array_equal(rows, cols) or np.allclose(rows, cols)
            for rows, cols in ((arr[lo:lo + 256], arr[:, lo:lo + 256].T)
                               for lo in range(0, arr.shape[0], 256))):
        raise ValueError(f"{name} must be symmetric")
    if shape == "psd":
        jitter = 1e-8 * max(1.0, np.abs(arr.diagonal()).max(initial=0.0))
        try:
            np.linalg.cholesky(arr + jitter * np.eye(arr.shape[0]))
        except np.linalg.LinAlgError:
            raise ValueError(f"{name} must be positive semidefinite") from None
    return arr


def of_kind(x, kind: type) -> bool:
    """Whether ``x`` is a ``kind``: ``int`` and ``float`` by ``numbers`` kind
    (numpy scalars fit), and a ``bool`` only where ``kind`` is ``bool``."""
    return (isinstance(x, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))
            and (kind is bool or not isinstance(x, bool)))


@functools.lru_cache(maxsize=64)  # a stream checks thousands of scalars
def _interval(text: str) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo closed, hi closed) of ``"(0, 0.5]"``-style text; an
    endpoint at infinity is open, so NaN and +-inf never lie inside."""
    lo, hi = (float(s) for s in text[1:-1].split(","))
    return lo, hi, text[0] == "[" and lo > -math.inf, text[-1] == "]" and hi < math.inf


def checked_scalar(x, name: str, kind: type, interval: str):
    """``x`` unchanged, the one rule for every scalar parameter.

    ValueError, with a message that starts with ``name``, unless ``x`` is of
    ``kind`` (``int`` or ``float``, see :func:`of_kind`) and lies in
    ``interval``, written as in mathematics: ``"(0, 0.5]"``, ``"[1, inf)"``.
    """
    lo, hi, lo_in, hi_in = _interval(interval)
    if ((type(x) is kind or of_kind(x, kind)) and (lo <= x if lo_in else lo < x)
            and (x <= hi if hi_in else x < hi)):
        return x
    raise ValueError(f"{name} must be a finite {kind.__name__} in {interval}, got {x!r}")


@dataclass(frozen=True)
class ModularCost:
    """Non-negative modular cost; ``cost(S)`` sums entries, ``cost[u]`` reads one."""

    costs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "costs", checked_array(
            self.costs, "cost vector", "1-D", nonneg=True))

    def __call__(self, S: ElementSet) -> float:
        return float(self.costs[list(S)].sum())

    def __getitem__(self, u: int) -> float:
        return float(self.costs[u])

    def __len__(self) -> int:
        return self.costs.shape[0]


@dataclass
class RegularizedInstance:
    """Submodular-minus-modular objective under a cardinality budget."""

    oracle: SubmodularOracle
    cost: ModularCost
    k: int

    def __post_init__(self):
        checked_scalar(self.k, "budget k", int, "[1, inf)")
        if len(self.cost) != self.oracle.n:
            raise ValueError("cost vector length must match the ground set")

    @property
    def n(self) -> int:
        return self.oracle.n

    def f(self, S: ElementSet) -> float:
        S = set_ids(S, self.n)
        return self.oracle.value(S) - self.cost(S)

    def counted(self) -> tuple["RegularizedInstance", CountingOracle]:
        """Fresh counting wrapper around the same data."""
        counter = CountingOracle(self.oracle)
        return RegularizedInstance(counter, self.cost, self.k), counter


def check_id(u: int, n: int) -> None:
    """ValueError unless ``u`` passes the one rule for element ids: an int in ``[0, n)``.

    Numpy integers pass; a bool or a float never does, so no id is rounded.
    Every algorithm checks its input ids here, once, before numpy indexing
    could wrap a negative id onto a real element.
    """
    if not ((type(u) is int or of_kind(u, int)) and 0 <= u < n):
        raise ValueError(f"element id {u!r} outside ground set of size {n} (ints in [0, {n}))")


def stream_ids(stream: ElementSet, n: int) -> Iterator[int]:
    """The stream's ids, checked one by one as they are pulled.

    ValueError on an id that fails :func:`check_id` or one seen before: a
    stream is a set, and a repeated id would spend budget twice.
    """
    seen = bytearray(n)
    for u in stream:
        check_id(u, n)
        if seen[u]:
            raise ValueError(f"element id {u!r} repeated")
        seen[u] = 1
        yield u


def set_ids(S: ElementSet, n: int) -> tuple[int, ...]:
    """The set's ids as a tuple, checked as :func:`stream_ids` checks a stream:
    the oracles read ``S`` as a set while the cost would count a repeat twice."""
    # From a list: a tuple built from a generator is allocated oversized and shrunk.
    return tuple([*stream_ids(S, n)])


def greedy(instance: RegularizedInstance, weights: Sequence[float],
           candidates: ElementSet | None = None) -> list[int]:
    """The greedy kernel behind plain and distorted greedy.

    Iteration i scores every unchosen candidate u as ``weights[i] *
    marginal(u, S) - cost(u)`` in one ``gains`` call and adds the best one
    when its score is strictly positive; ties go to the smallest id.  A
    round with nothing positive ends the run when no later weight is larger
    than its own (exact, since marginals only shrink and S stays as it is)
    and is skipped otherwise.  The pick of the last weight is not ``add``-ed.
    """
    oracle, n = instance.oracle, instance.n
    cands = np.arange(n) if candidates is None else candidates
    # set_ids' rule; an integer array strictly ascending and in range passes in one pass
    if not (isinstance(cands, np.ndarray) and cands.ndim == 1 and cands.dtype.kind in "iu"):
        cands = np.sort(np.array(set_ids(cands, n), dtype=np.intp))
    elif cands.size and not (cands[0] >= 0 and cands[-1] < n and (cands[1:] > cands[:-1]).all()):
        cands = np.sort(cands)
        if cands[0] < 0 or cands[-1] >= n or np.any(cands[1:] == cands[:-1]):
            set_ids(cands.tolist(), n)  # raises, naming the id
    cands = cands.astype(np.intp, copy=False)
    costs = instance.cost.costs[cands]
    st = oracle.empty()
    S: list[int] = []
    for i, w in enumerate(weights):
        if cands.size == 0:
            break
        scores = oracle.gains(st, cands) * w
        scores -= costs
        j = int(scores.argmax())
        if scores[j] > 0.0:
            u = int(cands[j])
            S.append(u)
            if i == len(weights) - 1:  # the state is not read again
                break
            oracle.add(st, u)
            cands = np.concatenate((cands[:j], cands[j + 1:]))
            costs = np.concatenate((costs[:j], costs[j + 1:]))
        elif max(weights[i + 1:], default=w) <= w:
            break
    return S


@dataclass(frozen=True)
class Solution:
    """An algorithm output: the set plus its score breakdown.

    ``provenance`` records which algorithm (and which internal copy, for the
    streaming variants) produced the set.
    """

    elements: tuple[int, ...]
    f_value: float
    g_value: float
    ell_value: float
    provenance: str = ""

    @classmethod
    def evaluate(cls, instance: RegularizedInstance, elements: ElementSet,
                 provenance: str = "") -> "Solution":
        elems = set_ids(elements, instance.n)
        g = instance.oracle.value(elems)
        ell = instance.cost(elems)
        return cls(elems, g - ell, g, ell, provenance)


def best_solution(candidates: Iterable[Solution]) -> Solution:
    """First strict maximizer of f among candidates (order breaks ties)."""
    best = max(candidates, key=attrgetter("f_value"), default=None)
    if best is None:
        raise ValueError("no candidate solutions")
    return best
