"""Seeded, batched, early-stopped mean-shift.

Instead of iterating from every point, a small uniform sample of seeds
walks to the modes; the whole batch advances together, each sweep testing
every unconverged seed against all points in fixed index order.
Once a gamma fraction of the batch has converged the rest are discarded,
and every input point is then labeled by its nearest surviving mode.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    ClusterResult,
    NoConvergedSeedsError,
    ShiftConfig,
    VectorSet,
    assign_labels,
    lockstep,
    prune_modes,
)


def sample_seeds(points: VectorSet, N: int, rng_seed: int) -> np.ndarray:
    """Uniform sample of min(N, n) distinct input points as seed positions."""
    if N < 1:
        raise ValueError(f"seed count must be >= 1, got {N}")
    n = points.n
    idx = np.random.default_rng(rng_seed).choice(n, size=min(N, n),
                                                 replace=False)
    return points.data[idx]


def run_faster(points: VectorSet, N: int, cfg: ShiftConfig,
               rng_seed: int | None = None) -> ClusterResult:
    """Seeded mean-shift: sample, iterate with early stop, prune, label.

    ``rng_seed`` defaults to ``cfg.rng_seed``; the adaptive controller
    passes per-attempt derived seeds here. Seeds still unconverged when
    iteration stops are discarded and contribute nothing to the modes.
    ``distance_evals`` counts (moving seeds) * n per sweep, exactly.
    """
    t0 = time.perf_counter()
    if rng_seed is None:
        rng_seed = cfg.rng_seed
    positions, converged, sweeps, evals = lockstep(
        sample_seeds(points, N, rng_seed), points, cfg, cfg.early_stop_gamma)
    # survivors only: stragglers are dropped, not merged
    if not converged.any():
        raise NoConvergedSeedsError("no seeds converged")

    raw = positions[converged]
    mode_set = prune_modes(raw, np.ones(raw.shape[0], dtype=np.int64),
                           cfg.bandwidth_h, cfg.min_mode_support)
    labels = assign_labels(points, mode_set)
    return ClusterResult(
        labels=labels,
        mode_set=mode_set,
        iterations_run=sweeps,
        seeds_used=positions.shape[0],
        seeds_discarded=int((~converged).sum()),
        wall_time_s=time.perf_counter() - t0,
        distance_evals=evals,
    )
