"""Reference algorithms: plain greedy, sieve streaming, exhaustive search.

The exhaustive searches are the ground-truth oracles the test suite measures
everything else against; they are guarded to small ground sets on purpose.
"""

from __future__ import annotations

from itertools import combinations

from .core import RegularizedInstance, Solution, checked_scalar, greedy
from .streaming import SetNode, ThresholdBank, _exponents, approx_factor

BRUTE_FORCE_LIMIT = 20


def vanilla_greedy(instance: RegularizedInstance) -> list[int]:
    """Iteratively add the element with the best positive f-gain.

    The best f-gain is non-increasing as the set grows (submodular marginal
    minus a fixed cost), so stopping at the first non-positive round is
    exact.  Ties go to the smallest id.
    """
    return greedy(instance, [1.0] * instance.k)


class SieveLadder(ThresholdBank):
    """The threshold ladder with Sieve-Streaming's window and accept rule.

    The anchor m is the best singleton f-value (unit weight on g and on the
    cost) and the guesses v = (1+eps)**i live in [m, 2*k*m].  The surplus
    is the f-marginal, and guess v takes it into S when it is at least
    (v/2 - f(S)) / (k - |S|).
    """

    def __init__(self, k: int, eps: float):
        super().__init__(1.0, k, eps)
        self._factor = 1.0
        self.multiplier = 1.0

    def window(self) -> range:
        m = self.best_single
        return _exponents(m, 2.0 * self.k * m, self._log_base)

    def threshold(self, i: int, node: SetNode) -> float:
        return ((1.0 + self.eps) ** i / 2.0 - node.f) / (self.k - len(node.S))


def sieve_streaming(stream, instance: RegularizedInstance, eps: float) -> Solution:
    """Threshold streaming against geometric guesses of the optimal f-value.

    Guess v keeps a set that admits u when the f-marginal is at least
    (v/2 - f(S)) / (k - |S|).  Guesses live in [m, 2*k*m] for the running
    max singleton f-value m; only positive singletons open the window, since
    a non-positive optimum is dominated by the empty set anyway.
    """
    return SieveLadder(instance.k, eps).run(stream, instance, "sieve")


def brute_force_distorted(instance: RegularizedInstance, a: float, b: float,
                          k: int) -> tuple[tuple[int, ...], float]:
    """Exact argmax of the weighted benchmark a*g(T) - b*ell(T) over |T| <= k.

    Exponential; refuses ground sets above BRUTE_FORCE_LIMIT.  Among ties it
    returns the lexicographically smallest tuple (the empty set counts as
    smallest), so the output is deterministic.
    """
    checked_scalar(k, "budget k", int, "[0, inf)")
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"ground set of size {n} exceeds brute-force limit "
                         f"{BRUTE_FORCE_LIMIT}")
    best_set: tuple[int, ...] = ()
    best_val = a * instance.oracle.value(()) - b * instance.cost(())
    for size in range(1, k + 1):
        for cand in combinations(range(n), size):
            v = a * instance.oracle.value(cand) - b * instance.cost(cand)
            if v > best_val or (v == best_val and cand < best_set):
                best_set, best_val = cand, v
    return best_set, best_val


def brute_force_opt(instance: RegularizedInstance) -> tuple[tuple[int, ...], float]:
    """Exact argmax of f = 1*g - 1*ell within the instance's budget."""
    return brute_force_distorted(instance, 1.0, 1.0, instance.k)


def brute_force_tau(instance: RegularizedInstance, r: float,
                    eps: float) -> tuple[float, tuple[int, ...], float]:
    """Offline threshold pick for a fixed-threshold streaming run.

    Finds the benchmark set T maximizing (factor - eps)*g - r*ell, anchors
    at v = factor*g(T) - r*ell(T), and returns tau = v / ((1+eps)*k)
    together with T and v, so k*tau <= v <= (1+eps)*k*tau.
    """
    c = 1.0 / (1.0 + checked_scalar(eps, "eps", float, "[0, inf)"))
    factor = approx_factor(r)
    T, _ = brute_force_distorted(instance, factor - eps, r, instance.k)
    anchor = factor * instance.oracle.value(T) - r * instance.cost(T)
    tau = c * anchor / instance.k
    return tau, T, anchor
