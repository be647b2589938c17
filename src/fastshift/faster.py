"""Seeded, batched, early-stopped mean-shift.

Instead of iterating from every point, a small uniform sample of seeds
walks to the modes; the whole batch advances together, each sweep testing
every unconverged seed against the points of the grid cells around it
(:func:`fastshift.kernels.cell_index`), in fixed index order.
Once a gamma fraction of the batch has converged the rest are discarded,
and every input point is then labeled by its nearest surviving mode. An
adaptive controller's retry continues the previous attempt's
:class:`Walkers` and adds seeds, instead of starting over.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class Walkers:
    """The seed walkers one controller attempt hands on to the next.

    ``index`` is the points' ``kernels.cell_index``, built once per
    controller call. ``seeds`` are the indices of the start points in draw
    order, ``positions`` where each walker stands and ``converged`` whether
    it has converged; all three are None until an attempt has run.
    """

    index: tuple | None
    seeds: np.ndarray | None = None
    positions: np.ndarray | None = None
    converged: np.ndarray | None = None


def seed_indices(n: int, N: int, rng_seed: int, taken=None) -> np.ndarray:
    """Indices of min(N, n) distinct points out of n: ``taken`` first, then
    a uniform draw without replacement from the points not in ``taken``."""
    if N < 1:
        raise ValueError(f"seed count must be >= 1, got {N}")
    rng = np.random.default_rng(rng_seed)
    if taken is None:
        return rng.choice(n, size=min(N, n), replace=False)
    free = np.ones(n, dtype=bool)
    free[taken] = False
    pool = np.flatnonzero(free)
    fresh = rng.choice(pool.size, size=min(N, n) - taken.size, replace=False)
    return np.concatenate([taken, pool[fresh]])


def sample_seeds(points: VectorSet, N: int, rng_seed: int) -> np.ndarray:
    """Uniform sample of min(N, n) distinct input points as seed positions."""
    return points.data[seed_indices(points.n, N, rng_seed)]


def run_faster(points: VectorSet, N: int, cfg: ShiftConfig,
               rng_seed: int | None = None,
               walkers: Walkers | None = None) -> ClusterResult:
    """Seeded mean-shift: sample, iterate with early stop, prune, label.

    ``rng_seed`` defaults to ``cfg.rng_seed``; the adaptive controller
    passes per-attempt derived seeds here. Seeds still unconverged when
    iteration stops are discarded and contribute nothing to the modes.
    ``distance_evals`` counts (moving seeds) * n per sweep, exactly.

    ``walkers`` makes the run one attempt of the adaptive controller. It
    continues the walkers the previous attempt left there, converged or
    not, and adds seeds drawn from the points not yet used, up to N in all.
    It stops once a gamma fraction of all N have converged, prunes every
    converged position, and leaves its walkers there for the next attempt.
    Its ``labels`` are None: the controller labels only the attempt it
    accepts.
    """
    t0 = time.perf_counter()
    if rng_seed is None:
        rng_seed = cfg.rng_seed
    carry = Walkers(index=None) if walkers is None else walkers
    seeds = seed_indices(points.n, N, rng_seed, carry.seeds)
    start = points.data[seeds]
    flags = np.zeros(seeds.size, dtype=bool)
    if carry.seeds is not None:
        start[:carry.seeds.size] = carry.positions
        flags[:carry.seeds.size] = carry.converged
    positions, converged, sweeps, evals = lockstep(
        start, points, cfg, cfg.early_stop_gamma, flags, carry.index)
    carry.seeds, carry.positions, carry.converged = seeds, positions, converged
    # survivors only: stragglers are dropped, not merged
    if not converged.any():
        raise NoConvergedSeedsError("no seeds converged")

    raw = positions[converged]
    mode_set = prune_modes(raw, np.ones(raw.shape[0], dtype=np.int64),
                           cfg.bandwidth_h, cfg.min_mode_support)
    return ClusterResult(
        labels=assign_labels(points, mode_set) if walkers is None else None,
        mode_set=mode_set,
        iterations_run=sweeps,
        seeds_used=positions.shape[0],
        seeds_discarded=int((~converged).sum()),
        wall_time_s=time.perf_counter() - t0,
        distance_evals=evals,
    )
