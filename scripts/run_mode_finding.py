"""Mode finding for a strongly log-concave determinantal density.

Samples a random PSD kernel, measures the weak-submodularity slack of its
log-density, builds the surrogate regularized instance, and compares
distorted greedy against exhaustive search (when the ground set is small
enough to enumerate).

    python3 scripts/run_mode_finding.py --n 8 --k 3 --seed 11
"""

import argparse
import math

from regsubmax import (SlcInstance, brute_force_opt, check_gamma_weak,
                       distorted_greedy, sample_slc_matrix, surrogate_instance)
from regsubmax.baselines import BRUTE_FORCE_LIMIT
from regsubmax.datasets import load_similarity_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", help="kernel CSV; sampled if omitted")
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3, help="budget")
    parser.add_argument("--gamma", type=float,
                        help="weakness parameter; measured if omitted")
    args = parser.parse_args()

    if args.dataset:
        L = load_similarity_matrix(args.dataset)
    else:
        L = sample_slc_matrix(args.n, args.mu, args.sigma, args.seed)
    n = L.shape[0]
    slc = SlcInstance(L, d=n)

    gamma = args.gamma
    if gamma is None:
        if n > 10:
            raise SystemExit("pass --gamma explicitly for n > 10; the "
                             "exhaustive measurement is capped")
        _, worst = check_gamma_weak(slc.weak_instance(0.0))
        gamma = max(0.0, worst)
        print(f"measured weakness gamma = {gamma:.6g}")

    instance = surrogate_instance(slc.weak_instance(gamma), args.k)

    picked = distorted_greedy(instance)
    print(f"distorted greedy picked {tuple(picked)}")
    print(f"  corrected objective  {instance.f(picked):.6f}")
    print(f"  log-density          {slc.log_density(picked):.6f}")

    if n <= BRUTE_FORCE_LIMIT:
        opt_set, opt_val = brute_force_opt(instance)
        print(f"exhaustive optimum   {opt_set}")
        print(f"  corrected objective  {opt_val:.6f}")
        print(f"  log-density          {slc.log_density(opt_set):.6f}")
        gap = opt_val - instance.f(picked)
        print(f"gap to optimum: {gap:.6f} "
              f"({'exact' if gap < 1e-9 else f'{math.exp(-gap):.4f}x density'})")


if __name__ == "__main__":
    main()
