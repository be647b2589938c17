"""Seeded engine and the lockstep sweep: sampling, sweeps, early stop."""

from dataclasses import replace

import numpy as np
import pytest

from fastshift import (
    NoConvergedSeedsError,
    ShiftConfig,
    VectorSet,
    kde_value,
    lockstep,
    rand_index,
    run_baseline,
    run_faster,
    sample_seeds,
    shift_once,
)
from fastshift import kernels

from conftest import make_blobs

rng = np.random.default_rng(21)


# -------------------------------------------------------------- sample_seeds

def test_sample_all_is_exhaustive():
    pts = VectorSet(rng.normal(size=(17, 2)))
    seeds = sample_seeds(pts, 17, rng_seed=0)
    assert seeds.shape == (17, 2)
    got = seeds[np.lexsort(seeds.T)]
    want = pts.data[np.lexsort(pts.data.T)]
    assert got.tobytes() == want.tobytes()


def test_sample_one_is_member():
    pts = VectorSet(rng.normal(size=(30, 2)))
    seeds = sample_seeds(pts, 1, rng_seed=3)
    assert seeds.shape == (1, 2)
    assert any((seeds[0] == p).all() for p in pts.data)


def test_sample_deterministic_and_clamped():
    pts = VectorSet(rng.normal(size=(12, 2)))
    a = sample_seeds(pts, 8, rng_seed=44)
    b = sample_seeds(pts, 8, rng_seed=44)
    assert a.tobytes() == b.tobytes()
    assert sample_seeds(pts, 500, rng_seed=44).shape == (12, 2)


def test_sample_validation():
    pts = VectorSet(rng.normal(size=(5, 2)))
    with pytest.raises(ValueError):
        sample_seeds(pts, 0, rng_seed=0)


# ------------------------------------------------------------------ lockstep

def _spy_batch_step(monkeypatch):
    rows_seen = []
    orig = kernels.batch_step

    def spy(rows, points, h, chunk_size):
        rows_seen.append(rows.shape[0])
        return orig(rows, points, h, chunk_size)

    monkeypatch.setattr(kernels, "batch_step", spy)
    return rows_seen


def test_batch_matches_per_seed_shift_once():
    pts, _, _ = make_blobs(n=200, k=3, sigma=0.2, seed=1)
    cfg = ShiftConfig(bandwidth_h=0.5, max_iter=1)
    seeds = sample_seeds(pts, 8, rng_seed=5)
    positions, _, sweeps, evals = lockstep(seeds, pts, cfg, 1.0)
    assert (sweeps, evals) == (1, 8 * pts.n)
    for s in range(8):
        ref, _ = shift_once(seeds[s], pts, cfg.bandwidth_h)
        assert positions[s].tobytes() == ref.tobytes()


def test_batch_chunk_size_invariant():
    pts, _, _ = make_blobs(n=150, k=3, sigma=0.2, seed=2)
    seeds = sample_seeds(pts, 10, rng_seed=7)
    a = lockstep(seeds, pts, ShiftConfig(bandwidth_h=0.5, chunk_size=1), 1.0)
    b = lockstep(seeds, pts, ShiftConfig(bandwidth_h=0.5, chunk_size=150),
                 1.0)
    assert a[0].tobytes() == b[0].tobytes()
    assert np.array_equal(a[1], b[1])
    assert a[2:] == b[2:]


def test_batch_marks_fixpoint_converged():
    pts = VectorSet(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    start = np.array([[0.0, 0.0]])  # mean of its own window
    positions, converged, sweeps, evals = lockstep(
        start, pts, ShiftConfig(bandwidth_h=3.0), 1.0)
    assert converged.tolist() == [True]
    assert (sweeps, evals) == (1, 2)
    assert positions.tolist() == [[0.0, 0.0]]


def test_batch_does_not_mutate_input():
    pts, _, _ = make_blobs(n=100, k=2, sigma=0.2, seed=3)
    seeds = sample_seeds(pts, 6, rng_seed=1)
    before = seeds.copy()
    positions, _, _, _ = lockstep(seeds, pts, ShiftConfig(bandwidth_h=0.5),
                                  1.0)
    assert seeds.tobytes() == before.tobytes()
    assert positions.tobytes() != before.tobytes()


def test_batch_requires_a_moving_seed(monkeypatch):
    # no walker to move: no sweep runs and the kernel is never called
    rows_seen = _spy_batch_step(monkeypatch)
    pts = VectorSet(rng.normal(size=(10, 2)))
    positions, converged, sweeps, evals = lockstep(
        np.empty((0, 2)), pts, ShiftConfig(bandwidth_h=0.5), 0.95)
    assert positions.shape == (0, 2) and converged.shape == (0,)
    assert (sweeps, evals) == (0, 0)
    assert rows_seen == []


def test_batch_skips_already_converged_seeds(monkeypatch):
    pts, _, _ = make_blobs(n=80, k=2, sigma=0.2, seed=8)
    seeds = sample_seeds(pts, 4, rng_seed=2)
    cfg = ShiftConfig(bandwidth_h=0.5)
    rows_seen = _spy_batch_step(monkeypatch)
    _, _, sweeps, _ = lockstep(seeds, pts, cfg, 1.0)
    moved_per_sweep = list(rows_seen)
    assert sweeps >= 2
    # each sweep moves exactly the walkers the previous one left unconverged,
    # and a converged walker never moves again
    for t in range(1, sweeps):
        pos_t, conv_t, _, _ = lockstep(seeds, pts, replace(cfg, max_iter=t),
                                       1.0)
        pos_next, _, _, _ = lockstep(seeds, pts,
                                     replace(cfg, max_iter=t + 1), 1.0)
        assert moved_per_sweep[t] == int((~conv_t).sum())
        assert pos_next[conv_t].tobytes() == pos_t[conv_t].tobytes()


def _gamma_case(n_stragglers):
    # 100 walkers, h = 1: a walker on an isolated point sits on its own
    # window mean and converges in sweep 1; one started on the left point
    # of a 0.5-apart pair moves 0.25 to the pair's midpoint first
    n_isolated = 100 - n_stragglers
    isolated = np.stack([10.0 * np.arange(n_isolated), np.zeros(n_isolated)],
                        axis=1)
    left = np.stack([10.0 * np.arange(n_stragglers), np.full(n_stragglers,
                                                            50.0)], axis=1)
    pts = VectorSet(np.concatenate([isolated, left, left + [0.5, 0.0]]))
    return np.concatenate([isolated, left]), pts


def test_early_stop_boundaries():
    cfg = ShiftConfig(bandwidth_h=1.0)
    start, pts = _gamma_case(5)
    _, converged, sweeps, evals = lockstep(start, pts, cfg, 0.95)
    assert int(converged.sum()) == 95
    assert (sweeps, evals) == (1, 100 * pts.n)
    # stop_fraction 1 runs until every walker has converged
    _, converged, sweeps, _ = lockstep(start, pts, cfg, 1.0)
    assert converged.all() and sweeps == 2

    start, pts = _gamma_case(6)
    _, converged, sweeps, evals = lockstep(start, pts, cfg, 0.95)
    assert converged.all()
    assert (sweeps, evals) == (2, 106 * pts.n)


# ----------------------------------------------------------------- run_faster

def test_exhaustive_seeds_match_baseline_exactly():
    pts, _, _ = make_blobs(n=300, k=3, sigma=0.1, seed=12)
    cfg = ShiftConfig(bandwidth_h=0.3, early_stop_gamma=1.0)
    base = run_baseline(pts, cfg)
    fast = run_faster(pts, pts.n, cfg)
    assert fast.seeds_used == pts.n
    assert fast.seeds_discarded == 0
    assert np.array_equal(fast.labels, base.labels)
    assert fast.mode_set.modes.tobytes() == base.mode_set.modes.tobytes()
    assert rand_index(fast.labels, base.labels) >= 0.99


def test_ten_blob_protocol_finds_ten_modes():
    pts, _, centers = make_blobs(n=2000, k=10, sigma=0.1, seed=42)
    res = run_faster(pts, 128, ShiftConfig(bandwidth_h=0.3, rng_seed=0))
    assert res.mode_set.m == 10
    for c in centers:
        d = np.sqrt(((res.mode_set.modes - c) ** 2).sum(axis=1)).min()
        assert d < 0.3


def test_run_deterministic_across_runs_and_threads(restore_backend):
    pts, _, _ = make_blobs(n=500, k=5, sigma=0.1, seed=3)
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=17)
    a = run_faster(pts, 64, cfg)
    kernels.set_threads(1)
    b = run_faster(pts, 64, cfg)
    kernels.set_threads(4)
    c = run_faster(pts, 64, cfg)
    for other in (b, c):
        assert np.array_equal(a.labels, other.labels)
        assert a.mode_set.modes.tobytes() == other.mode_set.modes.tobytes()
        assert a.distance_evals == other.distance_evals


def test_discard_accounting():
    pts, _, _ = make_blobs(n=2000, k=10, sigma=0.1, seed=7)
    res = run_faster(pts, 80, ShiftConfig(bandwidth_h=0.3, rng_seed=145))
    survivors = res.seeds_used - res.seeds_discarded
    assert res.mode_set.support.sum() == survivors
    assert res.seeds_used == 80


def test_work_bound_counts_moving_times_n(monkeypatch):
    pts, _, _ = make_blobs(n=400, k=4, sigma=0.1, seed=5)
    seen = []
    orig = kernels.batch_step

    def spy(rows, points, h, chunk_size):
        seen.append(rows.shape[0] * points.shape[0])
        return orig(rows, points, h, chunk_size)

    monkeypatch.setattr(kernels, "batch_step", spy)
    res = run_faster(pts, 50, ShiftConfig(bandwidth_h=0.3, rng_seed=1))
    assert res.distance_evals == sum(seen)
    # each sweep is (moving seeds) * n; moving seeds never grows
    moving = [c // pts.n for c in seen]
    assert all(a >= b for a, b in zip(moving, moving[1:]))


def test_no_converged_seeds_raises():
    pts, _, _ = make_blobs(n=400, k=4, sigma=0.3, seed=9)
    cfg = ShiftConfig(bandwidth_h=3.0, conv_tol=1e-12, max_iter=1,
                      early_stop_gamma=1.0)
    with pytest.raises(NoConvergedSeedsError, match="no seeds converged"):
        run_faster(pts, 10, cfg)


def test_kde_nondecreasing_for_seed_trajectories():
    pts, _, _ = make_blobs(n=300, k=3, sigma=0.15, seed=11)
    cfg = ShiftConfig(bandwidth_h=0.45)
    seeds = sample_seeds(pts, 12, rng_seed=2)
    _, _, sweeps, _ = lockstep(seeds, pts, cfg, 1.0)
    assert sweeps >= 3
    vals = np.array([kde_value(p, pts, cfg.bandwidth_h) for p in seeds])
    # the positions after t sweeps are those of a run capped at t sweeps
    for t in range(1, sweeps + 1):
        positions, _, _, _ = lockstep(seeds, pts, replace(cfg, max_iter=t),
                                      1.0)
        new_vals = np.array([kde_value(p, pts, cfg.bandwidth_h)
                             for p in positions])
        assert (new_vals >= vals - 1e-12).all()
        vals = new_vals
