"""Mean-shift clustering, classical and seeded-batch, with benchmarks."""

from .baseline import run_baseline, shift_once
from .controller import (
    ControllerState,
    coverage_probability,
    min_seed_bound,
    next_seed_count,
    run_adaptive,
)
from .core import (
    ClusterResult,
    ConfigError,
    ModeSet,
    NoConvergedSeedsError,
    NoModesError,
    ShiftConfig,
    VectorSet,
    assign_labels,
    estimate_bandwidth,
    kde_value,
    lockstep,
    prune_modes,
)
from .datagen import GenSpec, gen_blobs, generate
from .faster import run_faster, sample_seeds
from .metrics import rand_index

__version__ = "0.1.0"

__all__ = [
    "ClusterResult",
    "ConfigError",
    "ControllerState",
    "GenSpec",
    "ModeSet",
    "NoConvergedSeedsError",
    "NoModesError",
    "ShiftConfig",
    "VectorSet",
    "assign_labels",
    "coverage_probability",
    "estimate_bandwidth",
    "gen_blobs",
    "generate",
    "kde_value",
    "lockstep",
    "min_seed_bound",
    "next_seed_count",
    "prune_modes",
    "rand_index",
    "run_adaptive",
    "run_baseline",
    "run_faster",
    "sample_seeds",
    "shift_once",
]
