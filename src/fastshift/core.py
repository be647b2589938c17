"""Domain types and the shared clustering primitives.

Everything here is a pure function over immutable inputs. Reductions run in
a fixed ascending index order (see :mod:`fastshift.kernels`), so results do
not depend on caller parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import kernels


class ConfigError(ValueError):
    """Invalid configuration, rejected before any computation starts."""


class NoModesError(RuntimeError):
    """Raised when pruning leaves no mode standing."""


class NoConvergedSeedsError(RuntimeError):
    """Raised when a seeded run terminates with zero converged seeds."""


@dataclass(frozen=True)
class VectorSet:
    """An n-by-d matrix of finite real feature vectors."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector set contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ShiftConfig:
    """Knobs shared by both engines and the seed controller.

    ``conv_tol`` is a fraction of the bandwidth: a position whose last move
    is at most ``conv_tol * bandwidth_h`` counts as converged.
    """

    bandwidth_h: float
    conv_tol: float = 1e-3
    max_iter: int = 300
    early_stop_gamma: float = 0.95
    n_initial: int = 128
    seed_low_L: int = 8
    seed_high_H: int = 32
    rng_seed: int = 0
    min_mode_support: int = 1
    chunk_size: int = 4096

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth_h) and self.bandwidth_h > 0):
            raise ConfigError(f"bandwidth_h must be a positive finite real, "
                              f"got {self.bandwidth_h}")
        if not (np.isfinite(self.conv_tol) and self.conv_tol > 0):
            raise ConfigError(f"conv_tol must be positive, got {self.conv_tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.early_stop_gamma <= 1.0):
            raise ConfigError(f"early_stop_gamma must be in (0, 1], "
                              f"got {self.early_stop_gamma}")
        if self.n_initial < 1:
            raise ConfigError(f"n_initial must be >= 1, got {self.n_initial}")
        if not (1 <= self.seed_low_L < self.seed_high_H):
            raise ConfigError(f"need 1 <= seed_low_L < seed_high_H, "
                              f"got L={self.seed_low_L} H={self.seed_high_H}")
        if not (0 <= self.rng_seed < 2 ** 64):
            raise ConfigError(f"rng_seed must fit in 64 unsigned bits, "
                              f"got {self.rng_seed}")
        if self.min_mode_support < 0:
            raise ConfigError(f"min_mode_support must be >= 0, "
                              f"got {self.min_mode_support}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass(frozen=True)
class ModeSet:
    """Pruned cluster modes; pairwise separation is always > merge radius."""

    modes: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", kernels.as_matrix(self.modes))
        object.__setattr__(
            self, "support", np.ascontiguousarray(self.support, dtype=np.int64))
        if self.modes.shape[0] != self.support.shape[0]:
            raise ValueError("modes and support lengths differ")

    @property
    def m(self) -> int:
        return self.modes.shape[0]


@dataclass(frozen=True)
class ClusterResult:
    """Labels, modes and run telemetry for one clustering run.

    ``labels`` is None for an attempt the adaptive controller may still
    discard; it labels only the attempt it accepts.
    """

    labels: np.ndarray | None
    mode_set: ModeSet
    iterations_run: int
    seeds_used: int
    seeds_discarded: int
    wall_time_s: float
    distance_evals: int


def lockstep(start, points: VectorSet, cfg: ShiftConfig, stop_fraction: float,
             converged=None, index=None):
    """Walk every row of ``start`` uphill in lockstep window-mean sweeps.

    Each sweep moves every unconverged walker to the mean of the points
    within ``cfg.bandwidth_h`` of it; a walker whose move is at most
    ``conv_tol * bandwidth_h`` is converged and stays put from then on, so
    each walker's iterates are those it would take alone. Sweeps end when
    no walker is moving, at ``cfg.max_iter``, or once converged walkers
    make up at least ``stop_fraction`` of all of them; no sweep runs when
    that already holds at the start.

    ``converged`` flags the rows of ``start`` that have already converged
    (default: none), so a caller can continue an earlier walk. ``index`` is
    ``kernels.cell_index(points.data, cfg.bandwidth_h)`` when the caller
    already has it; otherwise it is built here, once for every sweep.

    Returns ``(positions, converged, sweeps, evals)``; ``evals`` is the sum
    over sweeps of (moving walkers) * n. The arguments are not modified.
    """
    positions = np.array(start, dtype=np.float64)
    n_walkers = positions.shape[0]
    thresh2 = (cfg.conv_tol * cfg.bandwidth_h) ** 2
    converged = (np.zeros(n_walkers, dtype=bool) if converged is None
                 else np.array(converged, dtype=bool))
    sweeps = 0
    evals = 0
    # the points never move, so one cell index serves every sweep
    if index is None:
        index = kernels.cell_index(points.data, cfg.bandwidth_h)
    while (sweeps < cfg.max_iter and not converged.all()
           and int(converged.sum()) / n_walkers < stop_fraction):
        idx = np.flatnonzero(~converged)
        rows = positions[idx]
        moved, _ = kernels.batch_step(rows, points.data, cfg.bandwidth_h,
                                      cfg.chunk_size, index)
        evals += idx.size * points.n
        sweeps += 1
        converged[idx] = kernels.row_sq_dist(moved, rows) <= thresh2
        positions[idx] = moved
    return positions, converged, sweeps, evals


def kde_value(x, points: VectorSet, h: float) -> float:
    """Kernel density estimate at ``x`` with the parabolic-profile kernel.

    Value is ``(1 / (n h^d)) * sum_i max(0, 1 - ||x - p_i||^2 / h^2)``.
    Used for convergence diagnostics and tests, not in the hot path.
    """
    if h <= 0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    d2 = kernels.row_sq_dist(points.data, np.broadcast_to(x, points.data.shape))
    profile = np.maximum(0.0, 1.0 - d2 / (h * h))
    return float(profile.sum() / (points.n * h ** points.d))


# the bandwidth estimate takes time quadratic in its sample: 20,000 points
# take about 5 s on one CPU, so larger caps are rejected, not left to run
MAX_SAMPLE_CAP = 20_000


def estimate_bandwidth(points: VectorSet, quantile: float = 0.3,
                       sample_cap: int = 500, rng_seed: int = 0) -> float:
    """Quantile k-nearest-neighbour bandwidth heuristic.

    Draws ``min(n, sample_cap)`` points without replacement, takes each
    sampled point's distance to its ``max(1, floor(quantile * sample_size))``-th
    nearest neighbour within the sample, and returns the mean of those
    distances. Deterministic for a fixed ``rng_seed``; when the cap covers
    the whole set the sample is the full set and the seed is irrelevant.

    Returns 0.0 when all points coincide; callers must reject a zero
    bandwidth as a configuration error.
    """
    if points.n < 2:
        raise ValueError(f"need at least 2 points, got {points.n}")
    if not (0.0 < quantile < 1.0):
        raise ConfigError(f"quantile must be in (0, 1), got {quantile}")
    if not (2 <= sample_cap <= MAX_SAMPLE_CAP):
        raise ConfigError(f"sample_cap must be in [2, {MAX_SAMPLE_CAP}], "
                          f"got {sample_cap}")
    if sample_cap >= points.n:
        sample = points.data
    else:
        rng = np.random.default_rng(rng_seed)
        idx = rng.choice(points.n, size=sample_cap, replace=False)
        sample = points.data[idx]
    s = sample.shape[0]
    k_nn = max(1, int(np.floor(quantile * s)))
    # row blocks bound the memory at any sample size; the k-th smallest of
    # a row is the same value however it is found
    kth = np.empty(s)
    for block in kernels.row_blocks(s, s):
        d2 = kernels.sq_dist_block(sample[block], sample)
        kth[block] = np.partition(d2, k_nn, axis=1)[:, k_nn]
    # summing in sorted order makes the estimate independent of row order
    return float(np.cumsum(np.sort(np.sqrt(kth)))[-1] / s)


def prune_modes(raw_modes, supports, h: float, min_mode_support: int = 1) -> ModeSet:
    """Merge raw mode candidates closer than ``h`` into single modes.

    Candidates are visited by support (descending), ties by position
    (lexicographic ascending). A candidate is kept iff it sits farther than
    ``h`` from every mode kept so far; otherwise its support folds into the
    nearest kept mode. Modes whose accumulated support ends up below
    ``min_mode_support`` are dropped. The output is ordered by accumulated
    support (descending, ties lexicographic), which makes pruning a pruned
    set a no-op.
    """
    cands = kernels.as_matrix(raw_modes)
    supports = np.ascontiguousarray(supports, dtype=np.int64)
    if cands.shape[0] < 1:
        raise ValueError("raw_modes must be nonempty")
    if cands.shape[0] != supports.shape[0]:
        raise ValueError("raw_modes and supports lengths differ")
    if h <= 0:
        raise ConfigError(f"merge radius must be positive, got {h}")

    order = _support_lex_order(cands, supports)
    idx, merged = kernels.greedy_prune(cands[order], supports[order], h)
    positions = cands[order][idx]

    keep = merged >= min_mode_support
    if not keep.any():
        raise NoModesError("no modes survive pruning")
    positions = positions[keep]
    merged = merged[keep]

    final = _support_lex_order(positions, merged)
    return ModeSet(modes=positions[final], support=merged[final])


def _support_lex_order(positions: np.ndarray, supports: np.ndarray) -> np.ndarray:
    keys = tuple(positions[:, k] for k in reversed(range(positions.shape[1])))
    return np.lexsort(keys + (-supports,))


def assign_labels(points: VectorSet, mode_set: ModeSet) -> np.ndarray:
    """Label every point with the index of its nearest mode (ties: lowest)."""
    if mode_set.m < 1:
        raise ValueError("mode set is empty")
    return kernels.nearest_labels(points.data, mode_set.modes)
