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
once, stepping all its banks: g({u}) is evaluated once per element, and
never for a fixed threshold.  Sets grow in stream order, each a SetNode: its
parent's set plus one element, with its f and oracle state.  A copy is an
integer exponent mapped to a node; a node makes at most one child per
element and all banks share one root, so equal sets are one node and an
element costs one marginal, read from the state, per distinct set with room.
The finish evaluates only sets whose f is within rounding of the best.
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

    ``S`` is the set as a tuple, ``f`` the f-gains summed along its path and
    ``state`` the oracle's ``node_state`` of ``S`` (None at the root).  ``u``
    is the element last offered, ``gain`` its ``node_gain`` against ``S``,
    and ``child`` the node ``S + (u,)`` once a copy takes ``u``.
    """

    S: tuple[int, ...]
    f: float
    state: object = None
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
    empty set, which the pass shares across the banks it steps.
    ``groups`` lists, for each node with room, its copies' exponents in
    ascending order.  An element costs one marginal per node, one surplus
    per group, and one bisection for the prefix of exponents whose
    threshold the surplus clears: those copies move to the node's child.

    This is the one accept rule of the package: the CLI's threshold
    ladder, fixed-threshold streaming, sieve and distorted streaming all
    run on it, through one pass over the stream.  A variant overrides
    ``window`` (the exponents worth keeping for the current anchor) and
    ``threshold`` (the surplus copy i needs at a node), which must not
    decrease with i, and may set ``_factor``, the anchor's weight on g({u}).
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
             singleton_value: float) -> int:
        """Advance the bank by one stream element whose g({u}) is given.

        Returns the number of marginals it computed: nodes that another
        bank already asked about ``u`` reuse that bank's.
        """
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
        oracle = instance.oracle
        computed = 0
        groups = {}
        for node, exps in self.groups.items():
            if node.u != u:
                node.u, node.gain, node.child = u, oracle.node_gain(node.state, u, node.S), None
                computed += 1
            surplus = node.gain - self.multiplier * cost
            # Most groups reject outright; `not >=` also rejects a NaN surplus.
            if not surplus >= self.threshold(exps[0], node):
                groups[node] = exps
                continue
            j = bisect_right(exps, surplus, 1, key=lambda i: self.threshold(i, node))
            if node.child is None:
                node.child = SetNode(node.S + (u,), node.f + (node.gain - cost),
                                     oracle.node_state(node.state, u))
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
        _pass(stream, instance, [self], None)
        return self.finish(instance, label)

    def candidates(self, instance: RegularizedInstance, label: str):
        """The copies' sets as Solutions, ascending by exponent, lazily.

        Under the first-strict-max rule, a copy holding the same set as the
        copy below it (the lowest one: the empty set) cannot win, nor can a
        ``node.f`` more than rounding below the largest (the empty set's 0
        included).  A generator, so a best-of pick keeps one Solution alive.
        """
        top = max([0.0, *(node.f for node in self.copies.values())])
        floor = top - 1e-9 * (1.0 + abs(top))
        below = ()
        for i in sorted(self.copies):
            node = self.copies[i]
            if node.S != below and node.f >= floor:
                yield Solution.evaluate(instance, node.S, f"{label}[i={i}]")
            below = node.S

    def finish(self, instance: RegularizedInstance,
               label: str = "threshold-bank") -> Solution:
        """Best collected set across surviving copies, or the empty set."""
        return best_solution(chain(
            [Solution.evaluate(instance, (), f"{label}[empty]")],
            self.candidates(instance, label)))


class FixedThreshold(ThresholdBank):
    """One copy at the known threshold tau, open from the first element.

    Its anchor factor is zero, so no singleton turns the anchor positive:
    the window never moves, and the pass evaluates no g({u}) for it.
    """

    def __init__(self, r: float, k: int, tau: float):
        super().__init__(r, k, 1.0)
        self.tau = checked_scalar(tau, "tau", float, "(-inf, inf)")
        self._factor = 0.0
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
    _pass(stream, instance, [bank], None)
    label = f"threshold-streaming[r={r:.6g},tau={tau:.6g}]"
    return best_solution(chain(bank.candidates(instance, label),
                               [Solution.evaluate(instance, (), f"{label}[empty]")]))


def _pass(stream, instance: RegularizedInstance, banks: list[ThresholdBank],
          diagnostics: dict | None) -> None:
    """Step every bank through the stream once, from one shared empty root.

    g({u}), g(()) plus u's gain at the root (g(()) need not be 0), is
    evaluated once per element, and only if some bank's anchor reads it.
    ``diagnostics``, if a dict, gets the peak stored elements and copies
    summed over the banks, and each element's marginal-call count.
    """
    oracle, root = instance.oracle, SetNode((), 0.0)
    for bank in banks:
        bank.root = root
    singletons = any(bank._factor > 0.0 for bank in banks)
    empty = oracle.value(()) if singletons else 0.0
    max_stored = max_copies = 0
    per_element_marginals: list[int] = []
    for u in stream_ids(stream, instance.n):
        singleton = empty + oracle.node_gain(root.state, u, ()) if singletons else 0.0
        computed = sum(bank.step(u, instance, singleton) for bank in banks)
        if diagnostics is not None:
            max_stored = max(max_stored, sum(len(c.S) for b in banks for c in b.copies.values()))
            max_copies = max(max_copies, sum(len(b.copies) for b in banks))
            per_element_marginals.append(computed)
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

    Each grid entry is a lazy ThresholdBank, and the one pass steps them
    all from a shared root, so they share one singleton evaluation per
    element and one marginal evaluation per distinct set.  An empty grid
    (eps = 1/2) evaluates no singleton.  The banks' copies compete with a
    single empty set.

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
