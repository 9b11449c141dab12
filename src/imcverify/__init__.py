"""Sound interval Markov chain abstraction of discrete-time stochastic
systems via noise-domain partitioning, with robust reach-avoid verification,
clustering-based improvement and Monte Carlo validation."""

import types as _types

__version__ = "0.1.0"  # before the submodules: the pipeline records it

from .geometry import StatePartition, partition_domain
from .dynamics import (
    DynamicsModel,
    enclosure,
    eval_point,
    parse_dynamics,
)
from .noise import (
    Mixture,
    NoiseModel,
    TruncatedGaussian,
    Uniform,
    optimal_partition_affine,
    optimal_partition_multiplicative,
)
from .imc import (
    Imc,
    build_imc,
    cell_posteriors,
    pair_bounds,
)
from .verify import (
    ReachAvoidSpec,
    VerificationResult,
    robust_value_iteration,
)
from .cluster import cluster_improve
from .mc import Trajectory, estimate_satisfaction
from .config import RunConfig, load_config
from .pipeline import run_pipeline

# the public API is exactly the names imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
