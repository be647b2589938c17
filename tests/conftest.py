import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fastshift import ConfigError, GenSpec, ShiftConfig, VectorSet, gen_blobs
from fastshift import kernels, shift_once

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


def run_cli(*args, env_extra=None):
    """Invoke the installed CLI in a subprocess with a clean backend env.

    An inherited ``FASTSHIFT_BACKEND`` is dropped, so the run resolves the
    documented default backend unless the test passes one in ``env_extra``.
    """
    env = os.environ.copy()
    env.pop("FASTSHIFT_BACKEND", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fastshift.cli", *args],
                          capture_output=True, text=True, env=env)


def make_blobs(n=1500, k=10, sigma=0.1, seed=0):
    spec = GenSpec(kind="blobs", n_points=n, n_clusters=k,
                   noise_sigma=sigma, rng_seed=seed)
    return gen_blobs(spec)


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


@dataclass(frozen=True)
class PointTrajectory:
    """End state of one walker: final position, convergence flag, step count."""

    current: np.ndarray
    converged: bool
    iterations: int


def follow_point(x0, points: VectorSet, cfg: ShiftConfig) -> PointTrajectory:
    """Independent one-walker reference for the lockstep engine: iterate
    ``shift_once`` until the shift is at most conv_tol*h or max_iter."""
    pos = np.asarray(x0, dtype=np.float64).copy()
    thresh2 = (cfg.conv_tol * cfg.bandwidth_h) ** 2
    iterations = 0
    converged = False
    while iterations < cfg.max_iter:
        new_pos, _ = shift_once(pos, points, cfg.bandwidth_h, cfg.chunk_size)
        iterations += 1
        shift2 = kernels.row_sq_dist(new_pos.reshape(1, -1), pos.reshape(1, -1))[0]
        pos = new_pos
        if shift2 <= thresh2:
            converged = True
            break
    return PointTrajectory(current=pos, converged=converged, iterations=iterations)


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
    d2 = kernels.row_sq_dist(points.data, np.broadcast_to(center, points.data.shape))
    return d2 <= h * h
