"""Seeded, batched, early-stopped mean-shift.

Instead of iterating from every point, a small uniform sample of seeds
walks to the modes; the whole batch advances together, each sweep testing
every unconverged seed against the points of the grid cells around it
(:func:`fastshift.kernels.cell_index`), in fixed index order. Each seed
keeps its step and one jump factor, and while its steps shrink it may
jump ahead by a secant step length instead of taking one window-mean step
(:func:`fastshift.core.lockstep` states the rule); a seed on a broad,
flat climb converges in about a third of the sweeps.
Once a gamma fraction of the batch has converged the rest are discarded,
and every input point is then labeled by its nearest surviving mode. An
adaptive controller's retry continues the previous attempt's
:class:`fastshift.core.Walkers`, steps and factors included, and adds
seeds, instead of starting over.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    ClusterResult,
    NoConvergedSeedsError,
    ShiftConfig,
    VectorSet,
    Walkers,
    assign_labels,
    lockstep,
    prune_modes,
)


def seed_indices(n: int, N: int, rng_seed: int,
                 taken: np.ndarray = np.empty(0, np.intp)) -> np.ndarray:
    """Indices of min(N, n) distinct points out of n: ``taken`` first, then
    a uniform draw without replacement from the points not in ``taken``.

    The draw picks positions j among the n - ``taken.size`` free points,
    and the j-th free point is j plus the number of taken points at or
    below it. Nothing n-sized is held: only ``taken`` and the draw."""
    if N < 1:
        raise ValueError(f"seed count must be >= 1, got {N}")
    rng = np.random.default_rng(rng_seed)
    fresh = rng.choice(n - taken.size, size=min(N, n) - taken.size,
                       replace=False)
    # the i-th smallest taken point, t, has t - i free points below it
    below = np.sort(taken) - np.arange(taken.size)
    return np.concatenate([taken, fresh + below.searchsorted(fresh, "right")])


def sample_seeds(points: VectorSet, N: int, rng_seed: int) -> np.ndarray:
    """Uniform sample of min(N, n) distinct input points as seed positions."""
    return points.data[seed_indices(points.n, N, rng_seed)]


def run_faster(points: VectorSet, cfg: ShiftConfig,
               walkers: Walkers | None = None) -> ClusterResult:
    """Seeded mean-shift: sample, iterate with early stop, prune, label.

    ``cfg.n_initial`` seeds are drawn with ``cfg.rng_seed``; the adaptive
    controller passes each attempt a ``cfg`` with its own seed count and a
    seed derived for it. Seeds still unconverged when iteration stops are
    discarded and contribute nothing to the modes.
    ``distance_evals`` counts (moving seeds) * n per sweep, exactly.

    ``walkers`` makes the run one attempt of the adaptive controller. It
    continues the walkers the previous attempt left there, converged or
    not, and adds seeds drawn from the points not yet used, up to
    ``cfg.n_initial`` in all. It stops once a gamma fraction of them have
    converged, prunes every converged position, and leaves its walkers
    there for the next attempt.
    Its ``labels`` are None: the controller labels only the attempt it
    accepts.
    """
    t0 = time.perf_counter()
    carry = walkers or Walkers.seeded(points, cfg.bandwidth_h)
    seeds = seed_indices(points.n, cfg.n_initial, cfg.rng_seed, carry.seeds)
    added = points.data[seeds[carry.seeds.size:]]
    carry.seeds = seeds
    carry.positions = np.concatenate([carry.positions, added])
    carry.converged = np.concatenate([carry.converged,
                                      np.zeros(len(added), dtype=bool)])
    carry.steps = np.concatenate([carry.steps, np.zeros_like(added)])
    carry.factors = np.concatenate([carry.factors, np.ones(len(added))])
    sweeps, evals = lockstep(carry, points, cfg, cfg.early_stop_gamma)
    # a standalone run's index dies here, before pruning and labelling
    positions, converged = carry.positions, carry.converged
    del carry
    # survivors only: stragglers are dropped, not merged
    if not converged.any():
        raise NoConvergedSeedsError("no seeds converged")

    mode_set = prune_modes(positions[converged], cfg.bandwidth_h,
                           cfg.min_mode_support)
    return ClusterResult(
        labels=assign_labels(points, mode_set) if walkers is None else None,
        mode_set=mode_set,
        iterations_run=sweeps,
        seeds_used=positions.shape[0],
        seeds_discarded=int((~converged).sum()),
        wall_time_s=time.perf_counter() - t0,
        distance_evals=evals,
    )
