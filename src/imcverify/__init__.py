"""Sound interval Markov chain abstraction of discrete-time stochastic
systems via noise-domain partitioning, with robust reach-avoid verification,
clustering-based improvement and Monte Carlo validation."""

import types as _types

from .geometry import (
    Box,
    Interval,
    StatePartition,
    partition_domain,
)
from .dynamics import (
    DynamicsModel,
    eval_point,
    interval_extension,
    parse_dynamics,
    posterior,
    posterior_f,
)
from .noise import (
    Mixture,
    NoiseGrid,
    NoiseModel,
    PartitionPair,
    TruncatedGaussian,
    Uniform,
    optimal_partition_affine,
    optimal_partition_multiplicative,
    uniform_noise_grid,
)
from .imc import (
    Imc,
    PosteriorTable,
    TransitionBound,
    build_imc,
    cell_posteriors,
    transition_bounds_general,
    transition_bounds_structured,
    unsafe_transitions,
)
from .verify import (
    ReachAvoidSpec,
    VerificationResult,
    adversary_extreme_expectation,
    classify,
    robust_value_iteration,
)
from .cluster import cluster_improve
from .mc import (
    ReachAvoidRegions,
    Trajectory,
    estimate_satisfaction,
    simulate,
)
from .config import RunConfig, load_config
from .pipeline import run_pipeline

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
