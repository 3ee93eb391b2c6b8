"""Multi-round randomized partition runs of distorted greedy.

Each round deals the ground set uniformly at random across machines, and
a machine runs distorted greedy on its shard plus all solutions pooled from
earlier rounds.  The final answer is the best of machine 1's last-round
output and everything pooled before it, so the last round runs machine 1
only.  Machine assignment uses a counter-style hash of (seed, round,
element), so it is reproducible and independent of any execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RegularizedInstance, Solution, best_solution, checked_scalar, greedy

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _round_key(seed: int, round_index: int) -> int:
    x = _mix64((seed & _M64) + 0x9E3779B97F4A7C15)
    return _mix64(x ^ ((round_index & _M64) + 0xD1B54A32D192ED03))


@dataclass(frozen=True)
class RoundAssignment:
    """One round's element -> machine partition."""

    round_index: int
    machines: np.ndarray

    @classmethod
    def draw(cls, n: int, m: int, seed: int, round_index: int) -> "RoundAssignment":
        """Machines of elements u = 0..n-1, in wrapping uint64: the splitmix64
        finalizer of ``(u + c) ^ _round_key(seed, round_index)``, c a fixed
        constant, modulo m."""
        checked_scalar(m, "machine count", int, "[1, inf)")
        x = np.arange(n, dtype=np.uint64)
        x += np.uint64(0x8CB92BA72F3D8DD7)
        x ^= np.uint64(_round_key(seed, round_index))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        x %= np.uint64(m)
        return cls(round_index, x.astype(np.min_scalar_type(m - 1)))

    def shard(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.machines == i)


@dataclass(frozen=True)
class DistributedConfig:
    m: int
    eps: float
    seed: int = 0

    def __post_init__(self):
        checked_scalar(self.m, "machine count", int, "[1, inf)")
        checked_scalar(self.eps, "eps", float, "(0, inf)")

    @property
    def rounds(self) -> int:
        return max(1, math.ceil(1.0 / self.eps))


def distorted_greedy(instance: RegularizedInstance,
                     candidates: Sequence[int] | None = None) -> list[int]:
    """Budget-many passes with a growing distortion on the submodular part.

    Iteration i scores candidate u as (1 - 1/k)^(k-i-1) * marginal(u, S) -
    cost(u) and adds the best-scoring u only when its score is strictly
    positive; later iterations distort less, so a skipped iteration does not
    end the run.  Ties go to the smallest element id.
    """
    k = instance.k
    # 0.0 ** 0 == 1.0 keeps the k == 1 case exact.
    return greedy(instance, [(1.0 - 1.0 / k) ** (k - i - 1) for i in range(k)],
                  candidates)


def run_distributed(instance: RegularizedInstance, config: DistributedConfig,
                    pool_out: list[tuple[int, int, tuple[int, ...]]] | None = None,
                    ) -> Solution:
    """Randomized multi-round partition run; returns the selected Solution.

    Every machine runs in each round but the last, where only machine 1 does:
    the winner is chosen among its output and all solutions from earlier
    rounds.  ``pool_out`` collects every produced (round, machine, set), m per
    earlier round and one for the last.  Each round ends with one
    ``instance.oracle.note(round=, pool_sets=, pool_elements=, shard_sizes=,
    candidates=)``: the sets pooled from earlier rounds, their distinct
    elements, every machine's shard size and the candidate count (shard plus
    pooled ids) of each machine that ran, kept by a ``CountingOracle``.
    """
    n = instance.n
    rounds = config.rounds
    pool: list[tuple[int, int, tuple[int, ...]]] = []
    pooled = np.zeros(n, dtype=bool)
    for rd in range(1, rounds + 1):
        assignment = RoundAssignment.draw(n, config.m, config.seed, rd)
        pooled[[u for _, _, s in pool for u in s]] = True
        pool_sets, counts = len(pool), []
        for i in range(config.m if rd < rounds else 1):
            cands = pooled.copy()
            cands[assignment.shard(i)] = True
            ids = np.flatnonzero(cands)
            counts.append(ids.size)
            pool.append((rd, i + 1, tuple(distorted_greedy(instance, ids))))
        sizes = np.bincount(assignment.machines, minlength=config.m).tolist()
        instance.oracle.note(round=rd, pool_sets=pool_sets, pool_elements=int(pooled.sum()),
                             shard_sizes=sizes, candidates=counts)
    if pool_out is not None:
        pool_out.extend(pool)
    return best_solution([Solution.evaluate(instance, s, f"distributed[round={rd},machine={i}]")
                          for rd, i, s in pool])
