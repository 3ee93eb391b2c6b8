"""One-pass threshold streaming for submodular-minus-modular maximization.

The basic accept rule compares an element's submodular marginal against its
modular cost scaled by a multiplier, and admits it when the surplus clears a
fixed threshold.  Picking the threshold needs knowledge of the optimum, so
:class:`ThresholdBank` maintains a geometric ladder of threshold guesses
anchored to the best singleton score seen so far, creating guesses lazily as
the anchor grows and retiring guesses that fall below the useful window.
On top of that, :func:`distorted_streaming` sweeps a small grid of target
quality ratios, each mapping to a trade-off parameter ``r``, and keeps the
best output across the grid.

Everything here is single-pass over the element stream, and a stream names
each element at most once.  A ladder copy is one :class:`ThresholdState`
object holding its rule and its set.  An element is offered only to the
copies that still have room, and it costs one marginal evaluation per
distinct set among them: copies holding equal sets, in one ladder or across
the grid, share it, and the memo's miss count is the number of marginals
actually computed (see :class:`ElementMemo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .core import (ElementSet, RegularizedInstance, Solution, SubmodularOracle,
                   best_solution, stream_ids)

_SNAP = 1e-9


def approx_factor(r: float) -> float:
    """Quality coefficient of the threshold rule at trade-off r.

    Strictly increasing, 0 at r = 0, approaching 1/2 as r grows; at r = 1 it
    equals the inverse square of the golden ratio.
    """
    if r < 0:
        raise ValueError("trade-off r must be >= 0")
    return (2.0 * r + 1.0 - math.sqrt(4.0 * r * r + 1.0)) / 2.0


def cost_multiplier(r: float) -> float:
    """Factor applied to an element's cost inside the accept rule.

    Decreasing toward 1 as r -> 0; satisfies approx_factor(r) *
    cost_multiplier(r) == r, i.e. it is r / approx_factor(r).
    """
    if r < 0:
        raise ValueError("trade-off r must be >= 0")
    return (2.0 * r + 1.0 + math.sqrt(4.0 * r * r + 1.0)) / 2.0


def _snap_ceil(x: float) -> int:
    r = round(x)
    if abs(x - r) <= _SNAP:
        return int(r)
    return math.ceil(x)


def _snap_floor(x: float) -> int:
    r = round(x)
    if abs(x - r) <= _SNAP:
        return int(r)
    return math.floor(x)


def geometric_index_range(lo: float, hi: float, base: float) -> range:
    """Integer exponents i with lo <= base**i <= hi.

    Log-space boundaries within 1e-9 of an integer snap to it, so exact
    powers stay inside the window instead of flapping with rounding.
    """
    if base <= 1.0:
        raise ValueError("base must exceed 1")
    if lo <= 0.0 or hi <= 0.0 or hi < lo or math.isinf(hi):
        return range(0)
    lb = math.log(base)
    return range(_snap_ceil(math.log(lo) / lb),
                 _snap_floor(math.log(hi) / lb) + 1)


@dataclass(slots=True)
class ThresholdState:
    """One threshold run at trade-off r, as one object.

    It accepts u while it holds fewer than k elements and marginal(u, S) -
    multiplier * cost(u) >= tau, with multiplier = cost_multiplier(r);
    ``live`` turns False when the k-th element is taken.
    """

    r: float
    tau: float
    k: int
    S: list[int] = field(default_factory=list)
    multiplier: float = field(init=False)
    live: bool = field(init=False, default=True)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("budget k must be >= 1")
        self.multiplier = cost_multiplier(self.r)

    def offer(self, u: int, instance: RegularizedInstance) -> bool:
        """Accept/reject one stream element.  Dead runs reject for free."""
        if not self.live:
            return False
        S = self.S
        if instance.oracle.marginal(u, S) - self.multiplier * instance.cost[u] >= self.tau:
            S.append(u)
            if len(S) >= self.k:
                self.live = False
            return True
        return False

    def finish(self, instance: RegularizedInstance,
               provenance: str = "threshold") -> Solution:
        """Better of the collected set and the empty set."""
        return best_solution([Solution.evaluate(instance, self.S, provenance),
                              Solution.evaluate(instance, (), provenance + "[empty]")])


def threshold_streaming(stream, instance: RegularizedInstance, r: float,
                        tau: float) -> Solution:
    """Single pass with a known threshold tau at trade-off r."""
    state = ThresholdState(r, tau, instance.k)
    for u in stream_ids(stream, instance.n):
        state.offer(u, instance)
    return state.finish(instance, f"threshold-streaming[r={r:.6g},tau={tau:.6g}]")


def threshold_index_range(best_single: float, k: int, r: float,
                          eps: float) -> range:
    """Exponent window for useful threshold guesses given the running anchor.

    ``best_single`` is the largest singleton score factor*g({u}) - r*cost(u)
    seen so far.  Guesses below best_single/k are superseded; guesses above
    best_single * multiplier / r cannot have accepted anything yet, so they
    can be created fresh later.  Non-positive anchors give an empty window.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if best_single <= 0 or math.isinf(best_single):
        return range(0)
    hi = best_single * cost_multiplier(r) / r if r > 0 else math.inf
    return geometric_index_range(best_single / k, hi, 1.0 + eps)


class ElementMemo(SubmodularOracle):
    """Oracle wrapper that computes one marginal per distinct set per element.

    Ladder copies ask ``marginal(u, S)`` for the same element ``u`` and
    often for equal sets ``S``.  The memo keys on ``tuple(S)`` and is
    dropped the moment a call names another element, so it holds one
    element's sets at most.  ``misses`` counts the marginals passed on to
    the inner oracle.  ``value`` passes straight through.
    """

    def __init__(self, inner: SubmodularOracle):
        self.inner = inner
        self.n = inner.n
        self.misses = 0
        self._u = None
        self._memo: dict[tuple[int, ...], float] = {}

    def value(self, S: ElementSet) -> float:
        return self.inner.value(S)

    def marginal(self, u: int, S: ElementSet) -> float:
        if u != self._u:
            self._u = u
            self._memo = {}
        key = tuple(S)
        gain = self._memo.get(key)
        if gain is None:
            self.misses += 1
            gain = self._memo[key] = self.inner.marginal(u, S)
        return gain


def _with_memo(instance: RegularizedInstance) -> RegularizedInstance:
    """The same instance with its oracle behind an :class:`ElementMemo`."""
    return RegularizedInstance(ElementMemo(instance.oracle), instance.cost, instance.k)


class ThresholdBank:
    """Lazy ladder of threshold runs for one trade-off r.

    Copies are keyed by the integer exponent of their threshold (1+eps)**i.
    A copy created the moment its exponent enters the window behaves exactly
    like one created at stream start, because until then its threshold was
    too high to accept anything; that equivalence is what keeps the ladder
    small without changing any output.

    The window is a function of the anchor alone, so copies are retired and
    created only when the anchor rises.  ``live`` holds the copies that
    still have room, in ascending exponent order: an element is offered to
    those alone, and a copy leaves ``live`` (but stays in ``copies``) the
    moment it holds k elements.  ``run`` and :func:`distorted_streaming`
    offer through an :class:`ElementMemo`, so copies holding equal sets
    share one marginal evaluation per element; its ``misses`` count those
    evaluations.

    This is the one lazy ladder of the package.  A variant overrides
    ``window`` (the exponents worth keeping for the current anchor) and
    ``new_copy`` (the run kept for exponent i).  A copy is a single object
    with a list ``S`` and ``offer(u, instance)``, which returns True when it
    took ``u``: a :class:`ThresholdState` here, a ``SieveCopy`` in
    Sieve-Streaming's variant.
    """

    def __init__(self, r: float, k: int, eps: float):
        if r <= 0:
            raise ValueError("trade-off r must be positive")
        if eps <= 0:
            raise ValueError("eps must be positive")
        if k < 1:
            raise ValueError("budget k must be >= 1")
        self.r = r
        self.k = k
        self.eps = eps
        self.best_single = -math.inf
        self.copies: dict[int, ThresholdState] = {}
        self.live: list[ThresholdState] = []
        # The anchor is the singleton score _factor * g({u}) - r * cost(u).
        self._factor = approx_factor(r)

    def window(self) -> range:
        """Exponents of the copies worth keeping for the current anchor."""
        return threshold_index_range(self.best_single, self.k, self.r, self.eps)

    def new_copy(self, i: int) -> ThresholdState:
        """A fresh run for threshold (1+eps)**i."""
        return ThresholdState(self.r, (1.0 + self.eps) ** i, self.k)

    def step(self, u: int, instance: RegularizedInstance,
             singleton_value: float | None = None) -> None:
        """Advance the bank by one stream element."""
        if singleton_value is None:
            singleton_value = instance.oracle.value((u,))
        score = self._factor * singleton_value - self.r * instance.cost[u]
        # A non-positive anchor opens no window either way; keeping -inf
        # until the first positive score makes that explicit.
        if score > 0.0 and score > self.best_single:
            self.best_single = score
            self.copies = {i: self.copies[i] if i in self.copies else self.new_copy(i)
                           for i in self.window()}
            self.live = [c for c in self.copies.values() if len(c.S) < self.k]
        filled = False
        for c in self.live:
            if c.offer(u, instance) and len(c.S) >= self.k:
                filled = True
        if filled:
            self.live = [c for c in self.live if len(c.S) < self.k]

    def run(self, stream, instance: RegularizedInstance, label: str) -> Solution:
        """Step through the whole stream, then finish."""
        shared = _with_memo(instance)
        for u in stream_ids(stream, instance.n):
            self.step(u, shared)
        return self.finish(instance, label)

    def stored_elements(self) -> int:
        return sum(len(c.S) for c in self.copies.values())

    def candidates(self, instance: RegularizedInstance, label: str):
        """The copies' sets as Solutions, ascending by exponent, lazily.

        A copy holding the same set as the copy below it (the lowest one:
        the empty set) has the same f and comes later, so under the
        first-strict-max rule it cannot win and is not evaluated.  A
        generator, so a best-of pick keeps only its best Solution alive.
        """
        below = []
        for i in sorted(self.copies):
            S = self.copies[i].S
            if S != below:
                yield Solution.evaluate(instance, S, f"{label}[i={i}]")
            below = S

    def finish(self, instance: RegularizedInstance,
               label: str = "threshold-bank") -> Solution:
        """Best collected set across surviving copies, or the empty set."""
        return best_solution(chain(
            [Solution.evaluate(instance, (), f"{label}[empty]")],
            self.candidates(instance, label)))


def beta_for_ratio(ratio: float) -> float:
    """Utility-to-cost ratio an optimum must have for a target ratio to be hit."""
    if not 0.0 < ratio < 0.5:
        raise ValueError("target ratio must lie in (0, 1/2)")
    return 4.0 * ratio / (1.0 - 2.0 * ratio) ** 2


def r_for_beta(beta: float) -> float:
    """Trade-off parameter tuned to utility-to-cost ratio beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return beta / (2.0 * math.sqrt(1.0 + 2.0 * beta))


def ratio_for_beta(beta: float) -> float:
    """Quality ratio achieved at utility-to-cost ratio beta (inverse of beta_for_ratio)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return (1.0 + beta - math.sqrt(1.0 + 2.0 * beta)) / (2.0 * beta)


@dataclass(frozen=True)
class RatioGuess:
    """One grid entry: target quality ratio and the r tuned for it."""

    ratio: float
    beta: float
    r: float


def ratio_grid(eps: float, delta: float) -> list[RatioGuess]:
    """Geometric grid of target ratios eps * (1+delta)**i, clamped below 1/2.

    Every entry's trade-off satisfies r >= 2*eps, which keeps each bank's
    ladder short.  eps = 1/2 leaves an empty grid (the only candidate ratio
    is the invalid 1/2).
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    if delta <= 0:
        raise ValueError("delta must be positive")
    top = _snap_floor(math.log(1.0 / (2.0 * eps)) / math.log(1.0 + delta))
    entries = []
    for i in range(top + 1):
        ratio = eps * (1.0 + delta) ** i
        if ratio >= 0.5:
            continue
        beta = beta_for_ratio(ratio)
        entries.append(RatioGuess(ratio, beta, r_for_beta(beta)))
    return entries


def distorted_streaming(stream, instance: RegularizedInstance, eps: float,
                        delta: float, diagnostics: dict | None = None) -> Solution:
    """One pass over the stream, best output across the ratio grid.

    Each grid entry runs a lazy ThresholdBank; all of them share one
    singleton evaluation per element and one marginal evaluation per
    distinct set.  The banks' copies compete with a single empty set.

    ``diagnostics``, if supplied, is filled with the grid, peak stored
    elements, peak copy counts, and per-element marginal-call counts (the
    memo's misses, one per distinct set).
    """
    grid = ratio_grid(eps, delta)
    banks = [ThresholdBank(g.r, instance.k, eps) for g in grid]
    shared = _with_memo(instance)
    memo = shared.oracle

    max_stored = 0
    max_copies = 0
    per_element_marginals: list[int] = []
    for u in stream_ids(stream, instance.n):
        before = memo.misses
        singleton = instance.oracle.value((u,))
        for bank in banks:
            bank.step(u, shared, singleton)
        if diagnostics is not None:
            max_stored = max(max_stored, sum(b.stored_elements() for b in banks))
            max_copies = max(max_copies, sum(len(b.copies) for b in banks))
            per_element_marginals.append(memo.misses - before)

    labelled = (bank.candidates(instance, f"distorted-streaming[ratio={g.ratio:.6g}]")
                for g, bank in zip(grid, banks))
    best = best_solution(chain(
        [Solution.evaluate(instance, (), "distorted-streaming[empty]")],
        chain.from_iterable(labelled)))

    if diagnostics is not None:
        diagnostics["grid"] = grid
        diagnostics["max_stored"] = max_stored
        diagnostics["max_copies"] = max_copies
        diagnostics["per_element_marginals"] = per_element_marginals
    return best
