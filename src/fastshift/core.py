"""Domain types and the shared clustering primitives.

The types are immutable, apart from :class:`Walkers`: :func:`lockstep`
advances a walker set in place, and its landing rule :func:`_land`
overwrites the rows it is given. Every other function leaves its inputs
as they are. Reductions run in a fixed ascending index order (see
:mod:`fastshift.kernels`), so results do not depend on caller
parallelism.
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


def check_seed(seed: int) -> None:
    """The one RNG seed rule: ``rng_seed`` must fit in 64 unsigned bits."""
    if not (0 <= seed < 2 ** 64):
        raise ConfigError(f"rng_seed must fit in 64 unsigned bits, got {seed}")


def check_bandwidth(h: float) -> None:
    """The one bandwidth rule: ``h`` must be a positive finite real."""
    if not (np.isfinite(h) and h > 0):
        raise ConfigError(f"bandwidth_h must be a positive finite real, "
                          f"got {h}")


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
    """The run settings a caller sets, shared by both engines and the seed
    controller.

    ``conv_tol`` is a fraction of the bandwidth: a position whose last move
    is at most ``conv_tol * bandwidth_h`` counts as converged. The fixed
    implementation constants are not settings: the window step's chunk is
    ``kernels.CHUNK_POINTS`` and the seed band is ``controller.SEED_LOW_L``
    and ``controller.SEED_HIGH_H``.
    """

    bandwidth_h: float
    conv_tol: float = 1e-3
    max_iter: int = 300
    early_stop_gamma: float = 0.95
    n_initial: int = 128
    rng_seed: int = 0
    min_mode_support: int = 1

    def __post_init__(self):
        check_bandwidth(self.bandwidth_h)
        if not (np.isfinite(self.conv_tol) and self.conv_tol > 0):
            raise ConfigError(f"conv_tol must be positive, got {self.conv_tol}")
        # lockstep compares squared moves against this square; a Python
        # float power raises where it overflows, and inf squares to inf
        try:
            tol2 = (float(self.conv_tol) * float(self.bandwidth_h)) ** 2
        except OverflowError:
            tol2 = np.inf
        if not np.isfinite(tol2):
            raise ConfigError(f"conv_tol * bandwidth_h must have a finite "
                              f"square, got {self.conv_tol} * "
                              f"{self.bandwidth_h}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.early_stop_gamma <= 1.0):
            raise ConfigError(f"early_stop_gamma must be in (0, 1], "
                              f"got {self.early_stop_gamma}")
        if self.n_initial < 1:
            raise ConfigError(f"n_initial must be >= 1, got {self.n_initial}")
        check_seed(self.rng_seed)
        if self.min_mode_support < 0:
            raise ConfigError(f"min_mode_support must be >= 0, "
                              f"got {self.min_mode_support}")


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


# The cap on the seeded engine's jump factor (lockstep states the rule).
# Measured with direct run_adaptive calls on blob20k_auto's data (20,000
# points in one blob, estimated h, data seed 42; numpy backend, 2 CPUs):
# caps of 4 and 8 both end in 6 sweeps, with 12.8M and 12.9M distance
# evaluations, against 17 sweeps and 36.9M without extrapolation. A cap of
# 8 also moves the mode counts that test_seeded_mode_counts_are_pinned
# pins for three of the datagen kinds.
EXTRAPOLATE_MAX = 4.0


@dataclass
class Walkers:
    """Walkers over one point set: the state :func:`lockstep` advances.

    ``index`` is the points' ``kernels.cell_index``, built once by the code
    that makes the walkers (None: the points have no exact grid).
    ``positions`` is where each walker stands and ``converged`` whether it
    has converged. ``steps`` and ``factors`` are each walker's kept step
    and jump factor, the state of :func:`lockstep`'s landing rule (zero
    and 1 before its first sweep); None gives every walker the plain
    step, as the baseline's take. ``seeds`` are the seeded engine's start
    points' indices in draw order.
    """

    index: tuple | None
    positions: np.ndarray
    converged: np.ndarray
    steps: np.ndarray | None = None
    factors: np.ndarray | None = None
    seeds: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))

    @classmethod
    def seeded(cls, points: VectorSet, h: float) -> Walkers:
        """The seeded engine's walkers before its first seed is drawn."""
        return cls(kernels.cell_index(points.data, h), np.empty((0, points.d)),
                   np.empty(0, bool), np.empty((0, points.d)), np.empty(0))


def lockstep(walkers: Walkers, points: VectorSet, cfg: ShiftConfig,
             stop_fraction: float) -> tuple[int, int]:
    """Walk ``walkers`` uphill in lockstep window-mean sweeps, in place.

    Each sweep moves every unconverged walker from x to the mean m(x) of
    the points within ``cfg.bandwidth_h`` of it; a walker whose step
    s = m(x) - x is at most ``conv_tol * bandwidth_h`` long is converged,
    stops at m(x) and stays put from then on, so each walker's iterates
    are those it would take alone. Sweeps end when no walker is moving, at
    ``cfg.max_iter``, or once converged walkers make up at least
    ``stop_fraction`` of all of them; no sweep runs when that already
    holds at the start.

    Walkers with ``steps`` extrapolate; this is the one statement of that
    rule. A walker keeps a step s' and a factor f, and dx = f s' stands
    for its last move (it is that move unless s' was shortened, below).
    The step field's slope along dx gives the secant step length
    e = |dx|^2 / (dx . (s' - s)), the two-point step size of Barzilai and
    Borwein: on an affine field s = -c (x - x*), e = 1 / c and
    x + e s = x*. When dx . (s' - s) > 0, e > 1 and |s| < |s'|, a moving
    walker jumps to x + min(e, ``EXTRAPOLATE_MAX``) s; every other walker
    moves to m(x), so a converged walker still ends on a window mean whose
    step was within the tolerance. The sums fold coordinates in ascending
    order from a zero start, as ``kernels.sq_dist`` does, so one walker
    alone repeats every bit. Steps reach h, whose square may overflow, and
    no overflow warns: an overflowed |dx|^2 fails the test, an overflowed
    dx . (s' - s) gives e = 0, a nan (inf - inf, inf * 0) fails every
    test, and a jump that is not finite falls back to m(x). Then each
    moving walker keeps s as its s', shortened to the length of the s' it
    replaces when longer, and f is the capped e after a jump, else 1. So
    s' is never longer than any step the walker has taken, a jump needs a
    step shorter than all of them, and as each jump sets a new record, no
    cycle of walker states can contain one.

    Updates the walkers' ``positions``, ``converged``, ``steps`` and
    ``factors`` and returns ``(sweeps, evals)``; ``evals`` is the sum over
    sweeps of (moving walkers) * n.
    """
    positions, converged = walkers.positions, walkers.converged
    thresh2 = (cfg.conv_tol * cfg.bandwidth_h) ** 2
    sweeps = 0
    evals = 0
    while (sweeps < cfg.max_iter and not converged.all()
           and converged.mean() < stop_fraction):
        idx = np.flatnonzero(~converged)
        rows = positions[idx]
        moved = kernels.batch_step(rows, points.data, cfg.bandwidth_h,
                                   kernels.CHUNK_POINTS, walkers.index)[0]
        evals += idx.size * points.n
        sweeps += 1
        converged[idx] = _land(rows, moved, thresh2, walkers.steps,
                               walkers.factors, idx)
        positions[idx] = moved
        # this sweep's rows and means die here, so the next window step's
        # scratch is not stacked on them
        del rows, moved
    return sweeps, evals


def _land(rows, moved, thresh2, steps, factors, idx):
    """Where lockstep's walkers at ``rows``, with window means ``moved``,
    land by its rule: ``moved`` takes each jump, ``steps[idx]`` each kept
    step and ``factors[idx]`` each factor, and the walkers' converged
    flags are returned. ``rows`` is overwritten."""
    # a step whose square overflows to inf is not converged, as it is
    with np.errstate(over="ignore"):
        step2 = kernels.sq_dist(moved, rows)
    done = step2 <= thresh2
    if steps is None:
        return done
    prev = steps[idx]
    zero = np.zeros(rows.shape[1])
    dot = np.zeros(len(idx))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dx = prev * factors[idx, None]
        move2, prev2 = kernels.sq_dist(dx, zero), kernels.sq_dist(prev, zero)
        for k in range(rows.shape[1]):
            dot += dx[:, k] * (prev[:, k] - (moved[:, k] - rows[:, k]))
        e = move2 / dot
        jump = np.flatnonzero(~done & (dot > 0) & (move2 < np.inf) & (e > 1)
                              & (step2 < prev2))
        e = np.minimum(e[jump], EXTRAPOLATE_MAX)
        x = rows[jump]
        far = x + e[:, None] * (moved[jump] - x)
        s = np.subtract(moved, rows, out=rows)
        longer = np.flatnonzero((step2 > prev2) & (prev2 > 0))
        s[longer] *= np.sqrt(prev2[longer] / step2[longer])[:, None]
        steps[idx] = s
        finite = np.flatnonzero(np.isfinite(far).all(axis=1))
        moved[jump[finite]] = far[finite]
        factors[idx] = 1.0
        factors[idx[jump[finite]]] = e[finite]
    return done


def kde_value(x, points: VectorSet, h: float) -> float:
    """Kernel density estimate at ``x`` with the parabolic-profile kernel.

    Value is ``(1 / (n h^d)) * sum_i max(0, 1 - ||x - p_i||^2 / h^2)``.
    Used for convergence diagnostics and tests, not in the hot path.
    """
    check_bandwidth(h)
    x = np.asarray(x, dtype=np.float64).reshape(points.d)
    profile = np.maximum(0.0, 1.0 - kernels.sq_dist(points.data, x) / (h * h))
    return float(profile.sum() / (points.n * h ** points.d))


# the bandwidth estimate takes time quadratic in its sample: 20,000 points
# take about 5 s on one CPU, so larger caps are rejected, not left to run
MAX_SAMPLE_CAP = 20_000
# estimate_bandwidth's defaults, which the CLI's flags read too
QUANTILE = 0.3
SAMPLE_CAP = 500


def estimate_bandwidth(points: VectorSet, quantile: float = QUANTILE,
                       sample_cap: int = SAMPLE_CAP,
                       rng_seed: int = 0) -> float:
    """Quantile k-nearest-neighbour bandwidth heuristic.

    Draws ``min(n, sample_cap)`` points without replacement, takes each
    sampled point's distance to its ``max(1, floor(quantile * sample_size))``-th
    nearest neighbour within the sample, and returns the mean of those
    distances. Deterministic for a fixed ``rng_seed``; when the cap covers
    the whole set the sample is every point, in an order the seed picks,
    and the estimate does not depend on that order.

    Returns 0.0 when each sampled point's neighbour of that rank coincides
    with it, as when all points do; callers must reject a zero bandwidth as
    a configuration error. Raises :class:`ConfigError` when a squared
    distance between sampled points overflows, since no estimate can be
    read from the sample then.
    """
    if points.n < 2:
        raise ValueError(f"need at least 2 points, got {points.n}")
    if not (0.0 < quantile < 1.0):
        raise ConfigError(f"quantile must be in (0, 1), got {quantile}")
    if not (2 <= sample_cap <= MAX_SAMPLE_CAP):
        raise ConfigError(f"sample_cap must be in [2, {MAX_SAMPLE_CAP}], "
                          f"got {sample_cap}")
    check_seed(rng_seed)
    s = min(sample_cap, points.n)
    sample = points.data[np.random.default_rng(rng_seed).choice(
        points.n, size=s, replace=False)]
    k_nn = max(1, int(np.floor(quantile * s)))
    # one pooled buffer holds a block's distances and their difference, so
    # both fit in BLOCK_FLOATS at any sample size; the k-th smallest of a
    # row is the same value however it is found, so it is found in place
    kth = np.empty(s)
    pool = []
    for block in kernels.row_blocks(s, 2 * s):
        rows = sample[block]
        d2, diff = kernels.scratch(pool, 2 * s * len(rows)).reshape(2, -1, s)
        try:
            with np.errstate(over="raise"):
                kernels.sq_dist(rows[:, None], sample, d2, diff)
        except FloatingPointError as exc:
            raise ConfigError("bandwidth estimate overflows: squared "
                              "distances between sampled points exceed "
                              "the float range; pass --bandwidth") from exc
        d2.partition(k_nn, axis=1)
        kth[block] = d2[:, k_nn]
    # summing in sorted order makes the estimate independent of row order
    return float(np.cumsum(np.sort(np.sqrt(kth)))[-1] / s)


def prune_modes(raw_modes, h: float, min_mode_support: int = 1) -> ModeSet:
    """Merge raw mode candidates closer than ``h`` into single modes.

    Each candidate is one walker's end position and counts once.
    Candidates are visited in lexicographic order. A candidate is kept iff
    it sits farther than ``h`` from every mode kept so far; otherwise it
    joins the nearest kept mode. A mode's support is the number of
    candidates it holds; modes with support below ``min_mode_support`` are
    dropped. The output is ordered by support (descending, ties
    lexicographic).
    """
    cands = kernels.as_matrix(raw_modes)
    if cands.shape[0] < 1:
        raise ValueError("raw_modes must be nonempty")
    check_bandwidth(h)

    cands = cands[np.lexsort(_lex_keys(cands))]
    # the sort ties -0.0 with 0.0 and keeps the input order; as +0.0 both
    # are the same bytes, so that order cannot show in the result
    cands += 0.0
    idx, support = kernels.greedy_prune(cands, h)
    keep = support >= min_mode_support
    if not keep.any():
        raise NoModesError("no modes survive pruning")
    positions, support = cands[idx[keep]], support[keep]

    final = np.lexsort(_lex_keys(positions) + (-support,))
    return ModeSet(modes=positions[final], support=support[final])


def _lex_keys(positions: np.ndarray) -> tuple:
    # np.lexsort's keys for lexicographic order: the last key is primary
    return tuple(positions[:, k] for k in reversed(range(positions.shape[1])))


def assign_labels(points: VectorSet, mode_set: ModeSet) -> np.ndarray:
    """Label every point with the index of its nearest mode (ties: lowest)."""
    if mode_set.m < 1:
        raise ValueError("mode set is empty")
    return kernels.nearest_labels(points.data, mode_set.modes)
