"""Host-speed calibration: a fixed kernel timed next to every timed call.

The shared virtual machines this benchmark runs on change speed by a third
and more over tens of seconds to minutes (other tenants' load on the same
cores and caches), and a run of one workload lasts less than a minute, so
raw wall times of the same code differ by that much from run to run.  The
benchmark therefore times this kernel right before and right after every
solve and every set-up, and reports each call's wall time rescaled to a
host on which the kernel takes ``REF_S``: ``wall * REF_S / kernel``, with
``kernel`` the mean of the two adjacent kernel times.

The kernel is benchmark code that never calls the library, and its inputs
are fixed (not drawn from the workload seed), so its work is the same in
every run of every commit: a change to the library moves the rescaled
times exactly as it moves the wall times.  It mixes the two kinds of work
the library does, Python set and list manipulation (a greedy coverage over
a fixed graph) and small numpy factorizations (Cholesky log-determinants of
principal submatrices).  The raw wall figures are printed next to the rescaled
ones.
"""

from __future__ import annotations

import gc
import time

import numpy as np

perf = time.perf_counter
# About the kernel's median time on the 2-vCPU virtual machine the benchmark
# was tuned on, in a fast spell; it fixes the scale, not the comparison.
REF_S = 0.010
_KERNEL_SEED = 20_200_308


class Calibrator:
    """Times the kernel and turns adjacent kernel times into a scale."""

    def __init__(self):
        rng = np.random.default_rng(_KERNEL_SEED)
        self.adj = [frozenset(rng.integers(0, 1500, 8).tolist()) for _ in range(1500)]
        X = rng.standard_normal((120, 8))
        diff = X[:, None, :] - X[None, :, :]
        self.K = np.exp(-np.sqrt((diff * diff).sum(axis=2)))
        self.subsets = [rng.choice(120, 10, replace=False) for _ in range(100)]
        self.times: list[float] = []

    def kernel(self) -> float:
        covered: set[int] = set()
        for _ in range(6):
            best = max(range(len(self.adj)), key=lambda u: len(self.adj[u] - covered))
            covered |= self.adj[best]
        acc = float(len(covered))
        for idx in self.subsets:
            A = np.eye(len(idx)) + self.K[np.ix_(idx, idx)]
            acc += float(np.log(np.diag(np.linalg.cholesky(A))).sum())
        return acc

    def measure(self) -> float:
        """One kernel time, after collecting the garbage the last call left."""
        gc.collect()
        t0 = perf()
        self.kernel()
        dt = perf() - t0
        self.times.append(dt)
        return dt

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from the wall time of a call between two kernel times to
        reference-speed seconds."""
        return REF_S / (0.5 * (before + after))
