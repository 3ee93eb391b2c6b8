"""One-pass threshold streaming for submodular-minus-modular maximization.

The one accept rule compares an element's submodular marginal against its
modular cost scaled by a multiplier, and admits it when the surplus clears a
threshold.  :class:`ThresholdBank` applies it to a geometric ladder of
threshold guesses anchored to the best singleton score seen so far,
creating guesses lazily as the anchor grows and retiring guesses that fall
below the useful window.  A known threshold is a bank with one copy
(:func:`threshold_streaming`).  On top of that, :func:`distorted_streaming`
sweeps a small grid of target quality ratios, each mapping to a trade-off
parameter ``r``, and keeps the best output across the grid.

Every threshold stream is one pass over the elements, each named at most
once: g({u}) is evaluated once per element, never for a fixed threshold.
Sets grow in stream order from one shared root, each a SetNode made once per
parent and element, so equal sets are one node.  Position p of a bank's list
of copies holds exponent first + p.  A node's copies in one bank are
consecutive, as an accept moves a prefix of them to the child, the window
drops only low exponents and new copies join at the top.  One live table
maps each node with room, and so a state, to flat ``bank, lo, hi, bar``
runs: the slice lo:hi of the bank's list and the threshold at lo, which most
runs fail.  An element costs one marginal per node in the table; the finish
evaluates only sets whose f is within rounding of the best.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

from .core import (RegularizedInstance, Solution, best_solution, checked_scalar,
                   stream_ids)

_SNAP = 1e-9


def approx_factor(r: float) -> float:
    """Quality coefficient of the threshold rule at trade-off r.

    Strictly increasing, 0 at r = 0, approaching 1/2 as r grows; at r = 1 it
    equals the inverse square of the golden ratio.
    """
    checked_scalar(r, "trade-off r", float, "[0, inf)")
    return (2.0 * r + 1.0 - math.sqrt(4.0 * r * r + 1.0)) / 2.0


def cost_multiplier(r: float) -> float:
    """Factor applied to an element's cost inside the accept rule.

    Decreasing toward 1 as r -> 0; satisfies approx_factor(r) *
    cost_multiplier(r) == r, i.e. it is r / approx_factor(r).
    """
    checked_scalar(r, "trade-off r", float, "[0, inf)")
    return (2.0 * r + 1.0 + math.sqrt(4.0 * r * r + 1.0)) / 2.0


def _snap(x: float, rounding) -> int:
    """``rounding(x)``, or the nearest integer when x is within _SNAP of it."""
    r = round(x)
    return int(r) if abs(x - r) <= _SNAP else rounding(x)


def geometric_index_range(lo: float, hi: float, base: float) -> range:
    """Integer exponents i with lo <= base**i <= hi.

    Log-space boundaries within 1e-9 of an integer snap to it, so exact
    powers stay inside the window instead of flapping with rounding.
    """
    return _exponents(lo, hi, math.log(checked_scalar(base, "base", float, "(1, inf)")))


def _exponents(lo: float, hi: float, lb: float) -> range:
    """:func:`geometric_index_range` for a base already checked, by its log lb."""
    if lo <= 0.0 or hi <= 0.0 or hi < lo or math.isinf(hi):
        return range(0)
    return range(_snap(math.log(lo) / lb, math.ceil), _snap(math.log(hi) / lb, math.floor) + 1)


def threshold_index_range(best_single: float, k: int, r: float, eps: float) -> range:
    """Exponent window for useful threshold guesses given the running anchor.

    ``best_single`` is the largest singleton score factor*g({u}) - r*cost(u)
    seen so far.  Guesses below best_single/k are superseded; guesses above
    best_single * multiplier / r cannot have accepted anything yet, so they
    can be created fresh later.  Non-positive anchors give an empty window.
    """
    checked_scalar(eps, "eps", float, "(0, inf)")
    if best_single <= 0 or math.isinf(best_single):
        return range(0)
    hi = best_single * cost_multiplier(r) / r if r > 0 else math.inf
    return geometric_index_range(best_single / k, hi, 1.0 + eps)


@dataclass(slots=True, eq=False)
class SetNode:
    """One set grown in stream order, shared by every ladder copy holding it.

    ``S`` is the set as a tuple, ``f`` the f-gains summed along its path and
    ``state`` the oracle's ``node_state`` of ``S`` while the node is in a live
    table; None at the root, for a full child and once the pass ends.
    """

    S: tuple[int, ...]
    f: float
    state: object = None


class ThresholdBank:
    """Lazy ladder of threshold runs for one trade-off r.

    Each copy has an integer exponent i, its threshold being (1+eps)**i.
    A copy created the moment its exponent enters the window behaves exactly
    like one created at stream start, because until then its threshold was
    too high to accept anything; that equivalence is what keeps the ladder
    small without changing any output.

    The window is a function of the anchor alone, so copies are retired and
    created only when the anchor rises.  Position p of the list ``copies``
    holds the :class:`SetNode` of exponent ``first + p``; a new copy starts
    at ``root``, the empty set all banks share.  :meth:`step` steps the
    bank's own table ``live``; a pass shares one across its banks.

    This is the package's one accept rule, for the CLI's threshold ladder,
    fixed-threshold streaming, sieve and distorted streaming.  A variant
    overrides ``window`` (the exponents kept for the current anchor) and
    ``threshold`` (copy i's bar at a node, fixed by i, node.S and node.f,
    not decreasing in i), and may set ``_factor``, the anchor's g({u}) weight.
    """

    root = SetNode((), 0.0)

    def __init__(self, r: float, k: int, eps: float):
        self.r = checked_scalar(r, "trade-off r", float, "(0, inf)")
        self.k = checked_scalar(k, "budget k", int, "[1, inf)")
        self.eps = checked_scalar(eps, "eps", float, "(0, inf)")
        self.best_single = -math.inf
        self.first, self.copies = 0, []
        self.live: dict[SetNode, list] = {}
        # The anchor is the singleton score _factor * g({u}) - r * cost(u);
        # an element's surplus is marginal(u, S) - multiplier * cost(u).
        self._factor = approx_factor(r)
        self.multiplier = cost_multiplier(r)
        self._log_base = math.log(checked_scalar(1.0 + eps, "base", float, "(1, inf)"))

    def window(self) -> range:
        """``threshold_index_range``, the exponents kept for the current anchor."""
        b = self.best_single
        return _exponents(b / self.k, b * self.multiplier / self.r, self._log_base)

    def threshold(self, i: int, node: SetNode) -> float:
        """Surplus copy i needs to take an element into ``node``'s set."""
        return (1.0 + self.eps) ** i

    def step(self, u: int, instance: RegularizedInstance, singleton_value: float) -> int:
        """Advance this bank alone by one element; returns the marginals computed."""
        return _step([self], self.live, u, instance, singleton_value)

    def run(self, stream, instance: RegularizedInstance, label: str) -> Solution:
        """Step through the whole stream, then finish; the pass leaves no state to step on."""
        _pass(stream, instance, [self], None)
        return self.finish(instance, label)

    def candidates(self, instance: RegularizedInstance, label: str):
        """The copies' sets as Solutions, ascending by exponent, lazily.

        Under the first-strict-max rule, a copy holding the same set as the
        copy below it (the lowest one: the empty set) cannot win, nor can a
        ``node.f`` more than rounding below the largest (the empty set's 0
        included).  A generator, so a best-of pick keeps one Solution alive.
        """
        top = max([0.0, *(node.f for node in self.copies)])
        floor = top - 1e-9 * (1.0 + abs(top))
        below = ()
        for p, node in enumerate(self.copies):
            if node.S != below and node.f >= floor:
                yield Solution.evaluate(instance, node.S, f"{label}[i={self.first + p}]")
            below = node.S

    def finish(self, instance: RegularizedInstance, label: str = "threshold-bank") -> Solution:
        """Best collected set across surviving copies, or the empty set."""
        return best_solution(chain([Solution.evaluate(instance, (), f"{label}[empty]")],
                                   self.candidates(instance, label)))


def _fill(live: dict, banks: list[ThresholdBank]) -> None:
    """Refill the live table in place, one pass over each bank's consecutive copies."""
    live.clear()
    for bank in banks:
        at = None
        for p, node in enumerate(chain(bank.copies, [None])):
            if node is not at:
                if at is not None and len(at.S) < bank.k:
                    bar = bank.threshold(bank.first + lo, at)
                    live.setdefault(at, []).extend((bank, lo, p, bar))
                at, lo = node, p


def _step(banks: list[ThresholdBank], live: dict, u: int,
          instance: RegularizedInstance, singleton_value: float) -> int:
    """Advance the banks by one element over their live table, refilled if an
    anchor rose; returns the marginals computed, one per node in it."""
    cost, rose = instance.cost[u], False
    for bank in banks:
        score = bank._factor * singleton_value - bank.r * cost
        # A non-positive anchor opens no window either way; keeping -inf
        # until the first positive score makes that explicit.
        if score > 0.0 and score > bank.best_single:
            bank.best_single, old, first = score, bank.copies, bank.first
            w = bank.window()
            bank.copies = [old[i - first] if 0 <= i - first < len(old) else bank.root for i in w]
            bank.first = w.start
            rose = True
    if rose:
        _fill(live, banks)
    oracle, computed, changed = instance.oracle, len(live), []
    for node, runs in live.items():
        gain = oracle.node_gain(node.state, u, node.S)
        child = spent = None
        for n in range(0, len(runs), 4):
            bank = runs[n]
            surplus = gain - bank.multiplier * cost
            # Most runs reject outright; `not >=` also rejects a NaN surplus.
            if not surplus >= runs[n + 3]:
                continue
            lo, hi, first = runs[n + 1], runs[n + 2], bank.first
            # Whole runs move often (a new anchor's element takes the root's copies).
            j = hi if surplus >= bank.threshold(first + hi - 1, node) else bisect_right(
                range(hi - 1), surplus, lo + 1, key=lambda p: bank.threshold(first + p, node))
            if child is None:
                child, moved = SetNode(node.S + (u,), node.f + (gain - cost)), []
            bank.copies[lo:j] = [child] * (j - lo)
            if len(child.S) < bank.k:
                moved += bank, lo, j, bank.threshold(first + lo, child)
            runs[n + 1], runs[n + 3] = j, bank.threshold(first + j, node) if j < hi else None
            spent = spent or j == hi
        if spent:
            runs[:] = [x for n in range(0, len(runs), 4) if runs[n + 1] < runs[n + 2]
                       for x in runs[n:n + 4]]
        if child is not None:
            changed.append((node, child, moved))
    for node, child, moved in changed:
        if moved:
            child.state = oracle.node_state(node.state, u)
            live[child] = moved
        if not live[node]:
            del live[node]
            node.state = None
    return computed


class FixedThreshold(ThresholdBank):
    """One copy at the known threshold tau, open from the first element.

    Its anchor factor is zero, so no singleton turns the anchor positive:
    the window never moves, and the pass evaluates no g({u}) for it.
    """

    def __init__(self, r: float, k: int, tau: float):
        super().__init__(r, k, 1.0)
        self.tau = checked_scalar(tau, "tau", float, "(-inf, inf)")
        self._factor = 0.0
        self.copies = [self.root]
        _fill(self.live, [self])

    def threshold(self, i: int, node: SetNode) -> float:
        return self.tau


def threshold_streaming(stream, instance: RegularizedInstance, r: float, tau: float) -> Solution:
    """One pass at a known threshold tau and trade-off r; a tie with the empty
    set goes to the collected set."""
    bank = FixedThreshold(r, instance.k, tau)
    _pass(stream, instance, [bank], None)
    label = f"threshold-streaming[r={r:.6g},tau={tau:.6g}]"
    return best_solution(chain(bank.candidates(instance, label),
                               [Solution.evaluate(instance, (), f"{label}[empty]")]))


def _pass(stream, instance: RegularizedInstance, banks: list[ThresholdBank],
          diagnostics: dict | None) -> None:
    """Step every bank through the stream once, over one live table.

    g({u}), g(()) plus u's gain at the root (g(()) need not be 0), is
    evaluated once per element, and only if some bank's anchor reads it.
    The finish reads only ``node.S`` and ``node.f``, so the states go when
    the pass ends.  ``diagnostics``, if a dict, gets the peak stored
    elements and copies summed over the banks, and each element's marginals.
    """
    oracle, live = instance.oracle, {}
    _fill(live, banks)
    singletons = any(bank._factor > 0.0 for bank in banks)
    empty = oracle.value(()) if singletons else 0.0
    max_stored = max_copies = 0
    per_element_marginals: list[int] = []
    for u in stream_ids(stream, instance.n):
        singleton = empty + oracle.node_gain(None, u, ()) if singletons else 0.0
        computed = _step(banks, live, u, instance, singleton)
        if diagnostics is not None:
            max_stored = max(max_stored, sum(len(c.S) for b in banks for c in b.copies))
            max_copies = max(max_copies, sum(len(b.copies) for b in banks))
            per_element_marginals.append(computed)
    for node in live:
        node.state = None
    if diagnostics is not None:
        diagnostics.update(max_stored=max_stored, max_copies=max_copies,
                           per_element_marginals=per_element_marginals)


def beta_for_ratio(ratio: float) -> float:
    """Utility-to-cost ratio an optimum must have for a target ratio to be hit."""
    checked_scalar(ratio, "target ratio", float, "(0, 0.5)")
    return 4.0 * ratio / (1.0 - 2.0 * ratio) ** 2


def r_for_beta(beta: float) -> float:
    """Trade-off parameter tuned to utility-to-cost ratio beta."""
    checked_scalar(beta, "beta", float, "(0, inf)")
    return beta / (2.0 * math.sqrt(1.0 + 2.0 * beta))


def ratio_for_beta(beta: float) -> float:
    """Quality ratio achieved at utility-to-cost ratio beta (inverse of beta_for_ratio)."""
    checked_scalar(beta, "beta", float, "(0, inf)")
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
    checked_scalar(eps, "eps", float, "(0, 0.5]")
    checked_scalar(delta, "delta", float, "(0, inf)")
    top = _snap(math.log(1.0 / (2.0 * eps)) / math.log(1.0 + delta), math.floor)
    entries = []
    for ratio in (eps * (1.0 + delta) ** i for i in range(top + 1)):
        if ratio < 0.5:
            beta = beta_for_ratio(ratio)
            entries.append(RatioGuess(ratio, beta, r_for_beta(beta)))
    return entries


def distorted_streaming(stream, instance: RegularizedInstance, eps: float,
                        delta: float, diagnostics: dict | None = None) -> Solution:
    """One pass over the stream, best output across the ratio grid.

    Each grid entry is a lazy ThresholdBank, and the one pass steps them
    all, so they share one singleton per element and one marginal per
    distinct set.  An empty grid (eps = 1/2) evaluates no singleton.  The
    banks' copies compete with a single empty set.

    ``diagnostics``, if supplied, is filled with the grid, peak stored
    elements, peak copy counts, and per-element marginal-call counts (one
    per distinct set among the copies with room).
    """
    grid = ratio_grid(eps, delta)
    banks = [ThresholdBank(g.r, instance.k, eps) for g in grid]
    if diagnostics is not None:
        diagnostics["grid"] = grid
    _pass(stream, instance, banks, diagnostics)
    labelled = (bank.candidates(instance, f"distorted-streaming[ratio={g.ratio:.6g}]")
                for g, bank in zip(grid, banks))
    return best_solution(chain(
        [Solution.evaluate(instance, (), "distorted-streaming[empty]")],
        chain.from_iterable(labelled)))
