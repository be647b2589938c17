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
from .kernels import active_backend, set_backend, set_threads
from .metrics import BenchRecord, bench_run, mode_match, rand_index

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "ClusterResult",
    "ConfigError",
    "ControllerState",
    "GenSpec",
    "ModeSet",
    "NoConvergedSeedsError",
    "NoModesError",
    "ShiftConfig",
    "VectorSet",
    "active_backend",
    "assign_labels",
    "bench_run",
    "coverage_probability",
    "estimate_bandwidth",
    "gen_blobs",
    "generate",
    "kde_value",
    "lockstep",
    "min_seed_bound",
    "mode_match",
    "next_seed_count",
    "prune_modes",
    "rand_index",
    "run_adaptive",
    "run_baseline",
    "run_faster",
    "sample_seeds",
    "set_backend",
    "set_threads",
    "shift_once",
]
