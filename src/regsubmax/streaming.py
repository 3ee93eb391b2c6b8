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

Everything here is single-pass over the element stream, and a stream names
each element at most once.  Sets therefore grow in stream order, and a set
is its parent set plus the element that made it: a :class:`SetNode`.  A
ladder copy is an integer exponent mapped to the node holding its set.  A
node makes at most one child per element and the grid's ladders share one
root, so copies holding equal sets hold the same node, and an element costs
one marginal evaluation per distinct set among the copies with room.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
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
    if abs(x - r) <= _SNAP:
        return int(r)
    return rounding(x)


def geometric_index_range(lo: float, hi: float, base: float) -> range:
    """Integer exponents i with lo <= base**i <= hi.

    Log-space boundaries within 1e-9 of an integer snap to it, so exact
    powers stay inside the window instead of flapping with rounding.
    """
    checked_scalar(base, "base", float, "(1, inf)")
    if lo <= 0.0 or hi <= 0.0 or hi < lo or math.isinf(hi):
        return range(0)
    lb = math.log(base)
    return range(_snap(math.log(lo) / lb, math.ceil),
                 _snap(math.log(hi) / lb, math.floor) + 1)


def threshold_index_range(best_single: float, k: int, r: float,
                          eps: float) -> range:
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

    ``S`` is the set as a tuple and ``f`` the f-gains summed along the path
    that built it.  ``u`` is the element last offered to the node, ``gain``
    its marginal against ``S``, and ``child`` the node ``S + (u,)`` once a
    copy takes ``u``.  One child per element makes equal sets one node.
    """

    S: tuple[int, ...]
    f: float
    u: int | None = field(init=False, default=None)
    gain: float = field(init=False, default=0.0)
    child: SetNode | None = field(init=False, default=None)


class ThresholdBank:
    """Lazy ladder of threshold runs for one trade-off r.

    Copies are keyed by the integer exponent of their threshold (1+eps)**i.
    A copy created the moment its exponent enters the window behaves exactly
    like one created at stream start, because until then its threshold was
    too high to accept anything; that equivalence is what keeps the ladder
    small without changing any output.

    The window is a function of the anchor alone, so copies are retired and
    created only when the anchor rises.  ``copies`` maps each exponent to
    the :class:`SetNode` of its set; a new copy starts at ``root``, the
    empty set, which :func:`distorted_streaming` shares across its banks.
    ``groups`` lists, for each node with room, its copies' exponents in
    ascending order.  An element costs one marginal per node, one surplus
    per group, and one bisection for the prefix of exponents whose
    threshold the surplus clears: those copies move to the node's child.

    This is the one accept rule of the package: the CLI's threshold
    ladder, fixed-threshold streaming, sieve and distorted streaming all
    run on it.  A variant overrides ``window`` (the exponents worth keeping
    for the current anchor) and ``threshold`` (the surplus copy i needs at a
    node), which must not decrease with i.
    """

    def __init__(self, r: float, k: int, eps: float):
        self.r = checked_scalar(r, "trade-off r", float, "(0, inf)")
        self.k = checked_scalar(k, "budget k", int, "[1, inf)")
        self.eps = checked_scalar(eps, "eps", float, "(0, inf)")
        self.best_single = -math.inf
        self.root = SetNode((), 0.0)
        self.copies: dict[int, SetNode] = {}
        self.groups: dict[SetNode, list[int]] = {}
        # The anchor is the singleton score _factor * g({u}) - r * cost(u);
        # an element's surplus is marginal(u, S) - multiplier * cost(u).
        self._factor = approx_factor(r)
        self.multiplier = cost_multiplier(r)

    def window(self) -> range:
        """Exponents of the copies worth keeping for the current anchor."""
        return threshold_index_range(self.best_single, self.k, self.r, self.eps)

    def threshold(self, i: int, node: SetNode) -> float:
        """Surplus copy i needs to take an element into ``node``'s set."""
        return (1.0 + self.eps) ** i

    def step(self, u: int, instance: RegularizedInstance,
             singleton_value: float | None = None) -> int:
        """Advance the bank by one stream element.

        Returns the number of marginals it computed: nodes that another
        bank already asked about ``u`` reuse that bank's.
        """
        if singleton_value is None:
            singleton_value = instance.oracle.value((u,))
        cost = instance.cost[u]
        score = self._factor * singleton_value - self.r * cost
        # A non-positive anchor opens no window either way; keeping -inf
        # until the first positive score makes that explicit.
        if score > 0.0 and score > self.best_single:
            self.best_single = score
            self.copies = {i: self.copies.get(i, self.root) for i in self.window()}
            self.groups = {}
            for i, node in self.copies.items():
                if len(node.S) < self.k:
                    self.groups.setdefault(node, []).append(i)
        computed = 0
        groups = {}
        for node, exps in self.groups.items():
            if node.u != u:
                node.u, node.gain, node.child = u, instance.oracle.marginal(u, node.S), None
                computed += 1
            surplus = node.gain - self.multiplier * cost
            # Most groups reject outright; `not >=` also rejects a NaN surplus.
            if not surplus >= self.threshold(exps[0], node):
                groups[node] = exps
                continue
            j = bisect_right(exps, surplus, 1, key=lambda i: self.threshold(i, node))
            if node.child is None:
                node.child = SetNode(node.S + (u,), node.f + (node.gain - cost))
            for i in exps[:j]:
                self.copies[i] = node.child
            if len(node.child.S) < self.k:
                groups[node.child] = exps[:j]
            if j < len(exps):
                groups[node] = exps[j:]
        self.groups = groups
        return computed

    def run(self, stream, instance: RegularizedInstance, label: str) -> Solution:
        """Step through the whole stream, then finish."""
        for u in stream_ids(stream, instance.n):
            self.step(u, instance)
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
        below = ()
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


class FixedThreshold(ThresholdBank):
    """One copy at the known threshold tau, open from the first element.

    Stepped with ``singleton_value=0.0`` the anchor stays non-positive, so
    the window never moves and no singleton is evaluated.
    """

    def __init__(self, r: float, k: int, tau: float):
        super().__init__(r, k, 1.0)
        self.tau = checked_scalar(tau, "tau", float, "(-inf, inf)")
        self.copies = {0: self.root}
        self.groups = {self.root: [0]}

    def threshold(self, i: int, node: SetNode) -> float:
        return self.tau


def threshold_streaming(stream, instance: RegularizedInstance, r: float,
                        tau: float) -> Solution:
    """Single pass with a known threshold tau at trade-off r.

    The collected set wins a tie with the empty set.
    """
    bank = FixedThreshold(r, instance.k, tau)
    for u in stream_ids(stream, instance.n):
        bank.step(u, instance, 0.0)
    label = f"threshold-streaming[r={r:.6g},tau={tau:.6g}]"
    return best_solution(chain(bank.candidates(instance, label),
                               [Solution.evaluate(instance, (), f"{label}[empty]")]))


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

    Each grid entry runs a lazy ThresholdBank and all of them grow their
    sets from one shared root, so they share one singleton evaluation per
    element and one marginal evaluation per distinct set.  The banks'
    copies compete with a single empty set.

    ``diagnostics``, if supplied, is filled with the grid, peak stored
    elements, peak copy counts, and per-element marginal-call counts (one
    per distinct set among the copies with room).
    """
    grid = ratio_grid(eps, delta)
    banks = [ThresholdBank(g.r, instance.k, eps) for g in grid]
    for bank in banks[1:]:
        bank.root = banks[0].root

    max_stored = 0
    max_copies = 0
    per_element_marginals: list[int] = []
    for u in stream_ids(stream, instance.n):
        singleton = instance.oracle.value((u,))
        computed = sum(bank.step(u, instance, singleton) for bank in banks)
        if diagnostics is not None:
            max_stored = max(max_stored, sum(b.stored_elements() for b in banks))
            max_copies = max(max_copies, sum(len(b.copies) for b in banks))
            per_element_marginals.append(computed)

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
