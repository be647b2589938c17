import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import fastshift
from fastshift import ConfigError, GenSpec, ShiftConfig, VectorSet, gen_blobs
from fastshift import kernels, shift_once
from fastshift.core import EXTRAPOLATE_MAX, Walkers

# numba's first-call JIT latency trips hypothesis' default deadline
settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def restore_backend():
    """Let a test switch kernels backends without leaking the choice."""
    before = kernels.active_backend()
    yield
    kernels.set_backend(before)


def cli_env(**extra):
    """Environment for a CLI subprocess that imports the package under test.

    The directory holding the imported ``fastshift`` goes first on the
    child's ``PYTHONPATH``, so the child runs the same code from a source
    checkout or an install. An inherited ``FASTSHIFT_BACKEND`` is dropped,
    so the run resolves the documented default backend unless ``extra``
    sets one.
    """
    env = os.environ.copy()
    env.pop("FASTSHIFT_BACKEND", None)
    src = str(Path(fastshift.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_cli(*args, env_extra=None):
    """Invoke the CLI in a subprocess with :func:`cli_env`."""
    return subprocess.run([sys.executable, "-m", "fastshift.cli", *args],
                          capture_output=True, text=True,
                          env=cli_env(**(env_extra or {})))


def error_lines(stderr):
    """The ``error:`` lines of a CLI run's stderr; a traceback fails."""
    assert "Traceback" not in stderr, stderr
    return [line for line in stderr.splitlines() if line.startswith("error:")]


def make_blobs(n=1500, k=10, sigma=0.1, seed=0):
    spec = GenSpec(kind="blobs", n_points=n, n_clusters=k,
                   noise_sigma=sigma, rng_seed=seed)
    return gen_blobs(spec)


# dimensions the engines are checked at besides the protocol's d = 2
OTHER_DIMS = (1, 3, 8)


@st.composite
def clustered_points(draw, d, max_n=30):
    """Hypothesis strategy: a VectorSet of 1 to ``max_n`` points in ``d``
    dimensions, jittered around up to four centres in [-3, 3]^d, so that
    windows of radius 0.5 to 2.5 hold one point or several."""
    k = draw(st.integers(1, 4))
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)
    centres = np.array(draw(st.lists(coord, min_size=k * d, max_size=k * d)),
                       dtype=np.float64).reshape(k, d)
    picks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=max_n))
    jitter = st.floats(-0.4, 0.4, allow_subnormal=False)
    size = len(picks) * d
    noise = np.array(draw(st.lists(jitter, min_size=size, max_size=size)),
                     dtype=np.float64).reshape(len(picks), d)
    return VectorSet(centres[picks] + noise)


def scalar_batch_step(rows, points, h):
    """Plain-python reference for the window-mean kernel, same fold order."""
    rows = np.asarray(rows, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    m, d = rows.shape
    out = np.empty((m, d))
    counts = np.empty(m, dtype=np.int64)
    h2 = h * h
    for s in range(m):
        acc = [0.0] * d
        cnt = 0
        for i in range(points.shape[0]):
            d2 = 0.0
            for k in range(d):
                diff = rows[s, k] - points[i, k]
                d2 += diff * diff
            if d2 <= h2:
                cnt += 1
                for k in range(d):
                    acc[k] += points[i, k]
        counts[s] = cnt
        for k in range(d):
            out[s, k] = acc[k] / cnt if cnt else rows[s, k]
    return out, counts


def scalar_greedy_prune(cands, h):
    """Plain-python reference for greedy pruning, one candidate at a time.

    A candidate is accepted when no earlier accepted one is within ``h``;
    otherwise it counts toward the nearest earlier accepted one, the first
    of them on exact ties. Distances fold coordinates in ascending
    order, as the kernels do.
    """
    cands = np.asarray(cands, dtype=np.float64)
    h2 = h * h
    accepted = []
    acc_support = []
    for i in range(cands.shape[0]):
        nearest = None
        nearest_d2 = np.inf
        inside = False
        for a, j in enumerate(accepted):
            d2 = 0.0
            for k in range(cands.shape[1]):
                diff = cands[i, k] - cands[j, k]
                d2 += diff * diff
            inside = inside or d2 <= h2
            if d2 < nearest_d2:
                nearest, nearest_d2 = a, d2
        if inside:
            acc_support[nearest] += 1
        else:
            accepted.append(i)
            acc_support.append(1)
    return (np.asarray(accepted, dtype=np.int64),
            np.asarray(acc_support, dtype=np.int64))


def walkers_at(start, points: VectorSet, h: float, converged=None,
               steps=None, factors=None) -> Walkers:
    """``core.Walkers`` standing on a copy of the rows of ``start``, over
    the cell index of ``points`` at bandwidth ``h``. ``converged`` flags
    the walkers that have converged (default: none; copied); ``steps``,
    kept as given, makes them extrapolate as the seeded engine's do, with
    jump factors ``factors`` (kept as given; default: 1, as before a
    walker's first sweep)."""
    positions = np.array(start, dtype=np.float64)
    flags = (np.zeros(len(positions), dtype=bool) if converged is None
             else np.array(converged, dtype=bool))
    if steps is not None and factors is None:
        factors = np.ones(len(steps))
    return Walkers(kernels.cell_index(points.data, h), positions, flags,
                   steps, factors)


@dataclass(frozen=True)
class PointTrajectory:
    """End state of one walker: final position, convergence flag, step
    count, and where each step started, when the walker records it."""

    current: np.ndarray
    converged: bool
    iterations: int
    starts: np.ndarray | None = None


def follow_point(x0, points: VectorSet, cfg: ShiftConfig) -> PointTrajectory:
    """Independent one-walker reference for the lockstep engine: iterate
    ``shift_once`` until the shift is at most conv_tol*h or max_iter."""
    pos = np.asarray(x0, dtype=np.float64).copy()
    thresh2 = (cfg.conv_tol * cfg.bandwidth_h) ** 2
    iterations = 0
    converged = False
    while iterations < cfg.max_iter:
        new_pos, _ = shift_once(pos, points, cfg.bandwidth_h)
        iterations += 1
        shift2 = kernels.sq_dist(new_pos[None], pos[None])[0]
        pos = new_pos
        if shift2 <= thresh2:
            converged = True
            break
    return PointTrajectory(current=pos, converged=converged, iterations=iterations)


def follow_seeded(x0, points: VectorSet, cfg: ShiftConfig,
                  sweeps: int) -> PointTrajectory:
    """Independent one-walker reference for the seeded engine's walk: at
    most ``sweeps`` window-mean steps by ``scalar_batch_step``, each taken
    by the rule ``core.lockstep``'s docstring states for walkers with
    ``steps``, restated here scalar by scalar. The walker keeps its own
    previous step s', shortened to the s' it replaces when longer, and its
    last move dx: s' after a plain step, e s' after a jump, and both zero
    before its first. Let s = m(x) - x: at |s| <= conv_tol * h it stops at
    m(x), converged; while dx . (s' - s) > 0, e = |dx|^2 / dx . (s' - s)
    > 1 and |s| < |s'| it moves to x + min(e, EXTRAPOLATE_MAX) s, unless
    that is not finite; otherwise to m(x). Sums fold coordinates in
    ascending order, and an overflowed |dx|^2 fails the test."""
    h = cfg.bandwidth_h
    thresh2 = (cfg.conv_tol * h) ** 2
    pos = [float(v) for v in x0]
    prev = [0.0] * len(pos)
    move = [0.0] * len(pos)
    starts = []
    while len(starts) < sweeps:
        starts.append(pos)
        mean = [float(v)
                for v in scalar_batch_step([pos], points.data, h)[0][0]]
        s = [a - b for a, b in zip(mean, pos)]
        step2 = dot = move2 = prev2 = 0.0
        for k in range(len(s)):
            step2 += s[k] * s[k]
            dot += move[k] * (prev[k] - s[k])
            move2 += move[k] * move[k]
            prev2 += prev[k] * prev[k]
        x, pos, prev = pos, mean, s
        if step2 > prev2 > 0:
            prev = [v * math.sqrt(prev2 / step2) for v in s]
        move = prev
        if step2 <= thresh2:
            return PointTrajectory(np.array(pos), True, len(starts),
                                   np.array(starts))
        if dot > 0 and move2 < math.inf and move2 / dot > 1 \
                and step2 < prev2:
            e = min(move2 / dot, EXTRAPOLATE_MAX)
            far = [a + e * b for a, b in zip(x, s)]
            if all(map(math.isfinite, far)):
                pos = far
                move = [e * v for v in s]
    return PointTrajectory(np.array(pos), False, sweeps, np.array(starts))


def euclidean_distance(a, b) -> float:
    """L2 distance between two vectors of equal dimension."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    # cumsum keeps the term order identical to a scalar loop at any dimension
    return float(np.sqrt(np.cumsum(diff * diff)[-1]))


def window_mask(center, points: VectorSet, h: float) -> np.ndarray:
    """Boolean window membership: True where ||p_i - center|| <= h.

    The boundary is included: a point at distance exactly ``h`` is inside.
    """
    if h <= 0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    center = np.asarray(center, dtype=np.float64)
    d2 = kernels.sq_dist(points.data, center)
    return d2 <= h * h
