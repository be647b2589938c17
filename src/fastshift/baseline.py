"""Classical per-point mean-shift: every input point walks to its mode.

This engine is the correctness reference for the seeded engine and the
slow column of the benchmark. No neighbor index, no sampling; each walker
repeatedly moves to the mean of the points inside its bandwidth window.
"""

from __future__ import annotations

import time

import numpy as np

from . import kernels
from .core import (
    ClusterResult,
    ShiftConfig,
    VectorSet,
    assign_labels,
    lockstep,
    prune_modes,
)


def shift_once(x, points: VectorSet, h: float, chunk_size: int = 4096):
    """One window-mean update: ``(new_position, window_count)``.

    The new position is the arithmetic mean of every point within ``h`` of
    ``x`` (boundary included). An empty window is a fixpoint: ``x`` comes
    back unchanged with count 0.
    """
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if row.shape[1] != points.d:
        raise ValueError(f"dimension mismatch: {row.shape[1]} vs {points.d}")
    out, counts = kernels.batch_step(row, points.data, h, chunk_size)
    return out[0], int(counts[0])


def run_baseline(points: VectorSet, cfg: ShiftConfig) -> ClusterResult:
    """Full classical mean-shift over every input point.

    Every point is a walker of :func:`~fastshift.core.lockstep`, which runs
    until all have converged or ``max_iter``. End positions (converged or
    not) become raw modes of support 1 and are merged by ``prune_modes``;
    labels are nearest-mode over the original points.

    ``distance_evals`` counts window scans only (sum over walkers of
    iterations times n); pruning and labeling are excluded.
    """
    t0 = time.perf_counter()
    positions, _, sweeps, evals = lockstep(points.data, points, cfg, 1.0)
    mode_set = prune_modes(positions, np.ones(points.n, dtype=np.int64),
                           cfg.bandwidth_h, cfg.min_mode_support)
    labels = assign_labels(points, mode_set, cfg.chunk_size)
    return ClusterResult(
        labels=labels,
        mode_set=mode_set,
        iterations_run=sweeps,
        seeds_used=0,
        seeds_discarded=0,
        wall_time_s=time.perf_counter() - t0,
        distance_evals=evals,
    )
