"""Scalable maximization of submodular-minus-modular objectives.

The package covers the full pipeline: value oracles over dense ground sets
(:mod:`regsubmax.objectives`), one-pass threshold streaming with lazy
threshold ladders and a quality-ratio grid (:mod:`regsubmax.streaming`),
randomized multi-round distributed greedy (:mod:`regsubmax.distributed`),
reference baselines and exhaustive-search oracles (:mod:`regsubmax.baselines`),
a reduction from additively weak submodular functions such as strongly
log-concave log-densities (:mod:`regsubmax.modefinding`), and an experiment
runner with a CSV contract plus CLI (:mod:`regsubmax.experiments`,
:mod:`regsubmax.cli`).
"""

from .baselines import (BRUTE_FORCE_LIMIT, brute_force_opt, brute_force_tau,
                        sieve_streaming, vanilla_greedy)
from .core import (CountingOracle, ModularCost, RegularizedInstance, Solution,
                   SubmodularOracle, best_solution)
from .distributed import (DistributedConfig, RoundAssignment, distorted_greedy,
                          run_distributed)
from .modefinding import (SlcInstance, SurrogateOracle, WeakSubmodularInstance,
                          check_gamma_weak, derived_cost, sample_slc_matrix,
                          surrogate_instance)
from .objectives import (DegenerateMatrixError, DirectedGraph,
                         FacilityLocationOracle, LogDetOracle, ModularOracle,
                         ReservoirEstimator, SaturatingCoverageOracle,
                         VertexCoverOracle, reservoir_facility_estimate,
                         similarity_from_features, vertex_cover_cost)
from .streaming import (ThresholdBank, approx_factor, beta_for_ratio,
                        cost_multiplier, distorted_streaming, r_for_beta,
                        ratio_for_beta, ratio_grid, threshold_streaming)

__all__ = [
    "BRUTE_FORCE_LIMIT", "CountingOracle", "DegenerateMatrixError",
    "DirectedGraph", "DistributedConfig", "FacilityLocationOracle",
    "LogDetOracle", "ModularCost", "ModularOracle", "RegularizedInstance",
    "ReservoirEstimator", "RoundAssignment", "SaturatingCoverageOracle",
    "SlcInstance", "Solution", "SubmodularOracle", "SurrogateOracle",
    "ThresholdBank", "VertexCoverOracle", "WeakSubmodularInstance",
    "approx_factor", "best_solution", "beta_for_ratio", "brute_force_opt",
    "brute_force_tau", "check_gamma_weak", "cost_multiplier", "derived_cost",
    "distorted_greedy", "distorted_streaming", "r_for_beta", "ratio_for_beta",
    "ratio_grid", "reservoir_facility_estimate", "run_distributed",
    "sample_slc_matrix", "sieve_streaming", "similarity_from_features",
    "surrogate_instance", "threshold_streaming", "vanilla_greedy",
    "vertex_cover_cost",
]

__version__ = "0.1.0"
