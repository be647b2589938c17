"""Classical per-point mean-shift: every input point walks to its mode.

This engine is the correctness reference for the seeded engine and the
slow column of the benchmark. No sampling; each walker repeatedly moves to
the mean of the points inside its bandwidth window.
"""

from __future__ import annotations

import time

import numpy as np

from . import kernels
from .core import (
    ClusterResult,
    ShiftConfig,
    VectorSet,
    Walkers,
    assign_labels,
    lockstep,
    prune_modes,
)


def shift_once(x, points: VectorSet, h: float):
    """One window-mean update: ``(new_position, window_count)``.

    The new position is the arithmetic mean of every point within ``h`` of
    ``x`` (boundary included). An empty window is a fixpoint: ``x`` comes
    back unchanged with count 0.
    """
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if row.shape[1] != points.d:
        raise ValueError(f"dimension mismatch: {row.shape[1]} vs {points.d}")
    out, counts = kernels.batch_step(row, points.data, h,
                                     kernels.CHUNK_POINTS)
    return out[0], int(counts[0])


def run_baseline(points: VectorSet, cfg: ShiftConfig) -> ClusterResult:
    """Full classical mean-shift over every input point.

    Every point starts a walker of :func:`~fastshift.core.lockstep` on a
    copy of ``points``, and they walk until all have converged or
    ``max_iter``. End positions (converged or not) are the raw modes, each
    counting once, merged by ``prune_modes``; labels are nearest-mode over
    the original points.

    ``distance_evals`` counts window scans only (sum over walkers of
    iterations times n); pruning and labeling are excluded.
    """
    t0 = time.perf_counter()
    # the walkers, and with them the index, die once they have walked
    positions = points.data.copy()
    sweeps, evals = lockstep(
        Walkers(kernels.cell_index(points.data, cfg.bandwidth_h), positions,
                np.zeros(points.n, dtype=bool)), points, cfg, 1.0)
    mode_set = prune_modes(positions, cfg.bandwidth_h, cfg.min_mode_support)
    labels = assign_labels(points, mode_set)
    return ClusterResult(
        labels=labels,
        mode_set=mode_set,
        iterations_run=sweeps,
        seeds_used=0,
        seeds_discarded=0,
        wall_time_s=time.perf_counter() - t0,
        distance_evals=evals,
    )
