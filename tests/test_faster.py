"""Seeded engine and the lockstep sweep: sampling, sweeps, early stop."""

from dataclasses import replace
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fastshift import (
    NoConvergedSeedsError,
    ShiftConfig,
    VectorSet,
    estimate_bandwidth,
    kde_value,
    lockstep,
    prune_modes,
    rand_index,
    run_adaptive,
    run_baseline,
    run_faster,
    sample_seeds,
    shift_once,
)
from fastshift import controller, kernels
from fastshift.core import EXTRAPOLATE_MAX, Walkers, _land
from fastshift.datagen import KINDS, GenSpec, generate
from fastshift.faster import seed_indices

from conftest import (
    OTHER_DIMS,
    clustered_points,
    follow_seeded,
    make_blobs,
    scalar_batch_step,
    walkers_at,
)

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

def _spy_batch_step(monkeypatch, record=lambda rows: rows.shape[0]):
    rows_seen = []
    orig = kernels.batch_step

    def spy(rows, points, h, chunk_size, index=None):
        rows_seen.append(record(rows))
        return orig(rows, points, h, chunk_size, index)

    monkeypatch.setattr(kernels, "batch_step", spy)
    return rows_seen


def test_batch_matches_per_seed_shift_once():
    pts, _, _ = make_blobs(n=200, k=3, sigma=0.2, seed=1)
    cfg = ShiftConfig(bandwidth_h=0.5, max_iter=1)
    seeds = sample_seeds(pts, 8, rng_seed=5)
    walkers = walkers_at(seeds, pts, cfg.bandwidth_h)
    assert lockstep(walkers, pts, cfg, 1.0) == (1, 8 * pts.n)
    for s in range(8):
        ref, _ = shift_once(seeds[s], pts, cfg.bandwidth_h)
        assert walkers.positions[s].tobytes() == ref.tobytes()


def test_batch_chunk_size_invariant(monkeypatch):
    pts, _, _ = make_blobs(n=150, k=3, sigma=0.2, seed=2)
    seeds = sample_seeds(pts, 10, rng_seed=7)
    cfg = ShiftConfig(bandwidth_h=0.5)
    a = walkers_at(seeds, pts, cfg.bandwidth_h)
    b = walkers_at(seeds, pts, cfg.bandwidth_h)
    monkeypatch.setattr(kernels, "CHUNK_POINTS", 1)
    a_counts = lockstep(a, pts, cfg, 1.0)
    monkeypatch.setattr(kernels, "CHUNK_POINTS", 150)
    b_counts = lockstep(b, pts, cfg, 1.0)
    assert a.positions.tobytes() == b.positions.tobytes()
    assert np.array_equal(a.converged, b.converged)
    assert a_counts == b_counts


def test_batch_marks_fixpoint_converged():
    pts = VectorSet(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    walkers = walkers_at([[0.0, 0.0]], pts, 3.0)  # mean of its own window
    assert lockstep(walkers, pts, ShiftConfig(bandwidth_h=3.0), 1.0) == (1, 2)
    assert walkers.converged.tolist() == [True]
    assert walkers.positions.tolist() == [[0.0, 0.0]]


def test_engines_do_not_mutate_points():
    # lockstep advances its walkers in place and the baseline's walkers
    # start on every point, so it walks a copy: no engine writes the
    # caller's points
    pts, _, _ = make_blobs(n=100, k=2, sigma=0.2, seed=3)
    before = pts.data.copy()
    cfg = ShiftConfig(bandwidth_h=0.5, n_initial=6, rng_seed=1)
    for run in (run_baseline, run_faster, lambda p, c: run_adaptive(p, c)[0]):
        assert run(pts, cfg).iterations_run >= 1
        assert pts.data.tobytes() == before.tobytes()


def test_batch_requires_a_moving_seed(monkeypatch):
    # no walker to move: no sweep runs and the kernel is never called
    rows_seen = _spy_batch_step(monkeypatch)
    pts = VectorSet(rng.normal(size=(10, 2)))
    walkers = walkers_at(np.empty((0, 2)), pts, 0.5)
    assert lockstep(walkers, pts, ShiftConfig(bandwidth_h=0.5), 0.95) == (0, 0)
    assert walkers.positions.shape == (0, 2)
    assert walkers.converged.shape == (0,)
    assert rows_seen == []


def test_batch_skips_already_converged_seeds(monkeypatch):
    pts, _, _ = make_blobs(n=80, k=2, sigma=0.2, seed=8)
    seeds = sample_seeds(pts, 4, rng_seed=2)
    cfg = ShiftConfig(bandwidth_h=0.5)
    rows_seen = _spy_batch_step(monkeypatch)
    sweeps, _ = lockstep(walkers_at(seeds, pts, 0.5), pts, cfg, 1.0)
    moved_per_sweep = list(rows_seen)
    assert sweeps >= 2
    # each sweep moves exactly the walkers the previous one left unconverged,
    # and a converged walker never moves again
    for t in range(1, sweeps):
        at_t = walkers_at(seeds, pts, 0.5)
        at_next = walkers_at(seeds, pts, 0.5)
        lockstep(at_t, pts, replace(cfg, max_iter=t), 1.0)
        lockstep(at_next, pts, replace(cfg, max_iter=t + 1), 1.0)
        conv_t = at_t.converged
        assert moved_per_sweep[t] == int((~conv_t).sum())
        assert (at_next.positions[conv_t].tobytes()
                == at_t.positions[conv_t].tobytes())


def test_lockstep_never_steps_preconverged_rows(monkeypatch):
    pts, _, _ = make_blobs(n=200, k=3, sigma=0.2, seed=4)
    cfg = ShiftConfig(bandwidth_h=0.5)
    start = sample_seeds(pts, 10, rng_seed=3)
    flags = np.zeros(10, dtype=bool)
    flags[::3] = True
    rows_seen = _spy_batch_step(monkeypatch, record=lambda rows: rows.copy())
    alone = walkers_at(start[~flags], pts, 0.5)
    alone_counts = lockstep(alone, pts, cfg, 1.0)
    alone_rows = [r.tobytes() for r in rows_seen]
    rows_seen.clear()
    walkers = walkers_at(start, pts, 0.5, flags)
    counts = lockstep(walkers, pts, cfg, 1.0)
    # the kernel sees exactly what a walk of the unflagged rows alone gives
    # it, so a flagged row is never stepped and keeps its bytes
    assert [r.tobytes() for r in rows_seen] == alone_rows
    assert walkers.positions[flags].tobytes() == start[flags].tobytes()
    assert walkers.positions[~flags].tobytes() == alone.positions.tobytes()
    assert counts == alone_counts
    assert walkers.converged.all() and int(flags.sum()) == 4


def test_lockstep_met_stop_fraction_runs_no_sweep(monkeypatch):
    pts, _, _ = make_blobs(n=200, k=3, sigma=0.2, seed=4)
    cfg = ShiftConfig(bandwidth_h=0.5)
    start = sample_seeds(pts, 20, rng_seed=3)
    rows_seen = _spy_batch_step(monkeypatch)
    flags = np.arange(20) < 19
    walkers = walkers_at(start, pts, 0.5, flags)
    assert lockstep(walkers, pts, cfg, 0.95) == (0, 0) and rows_seen == []
    assert walkers.positions.tobytes() == start.tobytes()
    assert walkers.converged.tolist() == flags.tolist()
    # one flag fewer is under the stop fraction: the one walker moves
    sweeps, _ = lockstep(walkers_at(start, pts, 0.5, np.arange(20) < 18),
                         pts, cfg, 0.95)
    assert sweeps >= 1 and rows_seen[0] == 2


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
    walkers = walkers_at(start, pts, 1.0)
    assert lockstep(walkers, pts, cfg, 0.95) == (1, 100 * pts.n)
    assert int(walkers.converged.sum()) == 95
    # stop_fraction 1 runs until every walker has converged
    walkers = walkers_at(start, pts, 1.0)
    sweeps, _ = lockstep(walkers, pts, cfg, 1.0)
    assert walkers.converged.all() and sweeps == 2

    start, pts = _gamma_case(6)
    walkers = walkers_at(start, pts, 1.0)
    assert lockstep(walkers, pts, cfg, 0.95) == (2, 106 * pts.n)
    assert walkers.converged.all()


def _affine_landing(c, xstar, x0):
    # one plain step x0 -> x1 on the affine step field s(x) = -c (x - x*),
    # then the walker's landing from x1: its kept step is s0 with factor 1,
    # and its window mean is x1 + s1
    c = np.asarray(c, dtype=np.float64)[:, None]
    s0 = -c * (x0 - xstar)
    x1 = x0 + s0
    means = x1 - c * (x1 - xstar)
    steps, factors = s0.copy(), np.ones(len(s0))
    landed = means.copy()
    done = _land(x1.copy(), landed, 1e-24, steps, factors,
                 np.arange(len(x1)))
    assert not done.any()
    return x1, means, landed


@pytest.mark.parametrize("d", [1, 2])
def test_secant_jump_lands_on_an_affine_root(d):
    # e = |s0|^2 / s0 . (s0 - s1) = 1 / c, so x1 + e s1 = x*: exact but for
    # rounding for c in [1/4, 1); below 1/4 the jump is capped at
    # EXTRAPOLATE_MAX, and at c >= 1, where e <= 1, the walker takes m(x)
    xstar = np.array([0.3, -1.7][:d])
    x0 = xstar + np.array([1.25, 0.5][:d])
    c = [0.25, 0.3, 0.5, 0.7, 0.9, 0.99]
    _, _, landed = _affine_landing(c, xstar, np.tile(x0, (len(c), 1)))
    ulp = np.spacing(np.abs(x0 - xstar).max())
    assert (np.abs(landed - xstar) <= 4 * ulp).all(), (landed - xstar) / ulp
    c = [0.01, 0.1, 0.2, 1.25, 1.5]
    x1, means, landed = _affine_landing(c, xstar, np.tile(x0, (len(c), 1)))
    capped = x1[:3] + EXTRAPOLATE_MAX * (means[:3] - x1[:3])
    assert landed[:3].tobytes() == capped.tobytes()
    assert landed[3:].tobytes() == means[3:].tobytes()


def test_extrapolation_overflow_takes_the_window_mean():
    # steps near 1e154 long in both columns after a jump of 2.5 s': the
    # last move's |dx|^2 overflows, while dx . (s' - s), |s|^2, |s'|^2 and
    # the jump stay finite. An overflowed test does not hold, so the
    # walker takes m(x) without a warning, where e = inf / 3e307 would
    # pass and jump to x + 4 s
    pts = VectorSet(np.array([[5e153, 5e153], [-1.5e154, -1.5e154]]))
    cfg = ShiftConfig(bandwidth_h=1e154, max_iter=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walkers = walkers_at(np.zeros((1, 2)), pts, cfg.bandwidth_h,
                             steps=np.array([[6e153, 6e153]]),
                             factors=np.array([2.5]))
        sweeps, _ = lockstep(walkers, pts, cfg, 1.0)
    assert (sweeps, walkers.converged.tolist()) == (1, [False])
    assert walkers.positions.tolist() == [[5e153, 5e153]]
    assert walkers.steps.tolist() == [[5e153, 5e153]]


def test_jump_needs_a_record_step():
    # after a plain step s' = dx = (1, 0), the step s = (0.5, 1) passes
    # the secant test, dx . (s' - s) = 0.5 > 0 and e = 2 > 1, but is no
    # shorter than s': the walker lands at m(x) = x + s, not x + 2 s, and
    # keeps s shortened to the length of s'
    rows, moved = np.zeros((1, 2)), np.array([[0.5, 1.0]])
    steps, factors = np.array([[1.0, 0.0]]), np.ones(1)
    done = _land(rows, moved, 1e-24, steps, factors, np.arange(1))
    assert not done.any()
    assert moved.tolist() == [[0.5, 1.0]] and factors.tolist() == [1.0]
    kept = np.array([0.5, 1.0]) * np.sqrt(1.0 / 1.25)
    assert steps[0].tobytes() == kept.tobytes()


def test_extrapolating_walker_does_not_cycle():
    # a 1-D walk whose secant jumps overshoot the mode both ways: with s'
    # as the plain previous step it visits 0.03125, -0.665, -0.4375 and
    # 0.228 over and over, jumping every second sweep, until max_iter;
    # with s' shortened to the shortest step so far each jump sets a new
    # record, and the walker converges at -0.203125 in 9 sweeps
    pts = VectorSet(np.array([[-0.375], [-0.375], [-0.375], [-0.125], [0.0],
                              [-0.625], [0.0], [0.25]]))
    cfg = ShiftConfig(bandwidth_h=0.5)
    walkers = walkers_at([[0.25]], pts, 0.5, steps=np.zeros((1, 1)))
    sweeps, _ = lockstep(walkers, pts, cfg, 1.0)
    assert walkers.converged.tolist() == [True] and sweeps <= 10


@given(data=st.data())
def test_seeded_walkers_equal_scalar_walkers(data):
    # a controller forced to retry until every point walks: each walker,
    # continued across retries, takes bit for bit the steps one scalar
    # walker with the same rule takes, and ends where it ends
    d = data.draw(st.sampled_from((1, 2, 3)), label="d")
    pts = data.draw(clustered_points(d), label="points")
    cfg = ShiftConfig(
        bandwidth_h=data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="h"),
        early_stop_gamma=data.draw(st.sampled_from([0.6, 0.8, 1.0]),
                                   label="gamma"),
        n_initial=data.draw(st.integers(1, 8), label="N"),
        rng_seed=data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
    attempts = []

    def retry_until_all_walk(state, M, n):
        N = min(state.N, n)
        return ("retry_now", min(2 * N, n)) if N < n else ("accept", N)

    def attempt(points, cfg, walkers):
        res = run_faster(points, cfg, walkers=walkers)
        attempts.append((walkers, walkers.seeds.size, res.iterations_run))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_POINTS",
                   data.draw(st.sampled_from([1, 7, 4096]), label="chunk"))
        mp.setattr(controller, "next_seed_count", retry_until_all_walk)
        mp.setattr(controller, "run_faster", attempt)
        rows_seen = _spy_batch_step(mp, record=lambda rows: rows.copy())
        run_adaptive(pts, cfg)
    walkers = attempts[-1][0]
    assert walkers.seeds.size == pts.n
    # walker i joins at attempt j, whose first sweep is first[j], and its
    # k-th step starts from the k-th row it hands batch_step
    first = np.cumsum([0] + [s for _, _, s in attempts])
    want = [[] for _ in rows_seen]
    thresh2 = (cfg.conv_tol * cfg.bandwidth_h) ** 2
    joined = 0
    for j, (_, size, _) in enumerate(attempts):
        for i in range(joined, size):
            ref = follow_seeded(pts.data[walkers.seeds[i]], pts, cfg,
                                int(first[-1] - first[j]))
            assert walkers.positions[i].tobytes() == ref.current.tobytes()
            assert walkers.converged[i] == ref.converged
            for k, start in enumerate(ref.starts):
                want[first[j] + k].append(start)
            if ref.converged:
                # today's test: the end is the window mean of where the
                # last step started, within conv_tol * h of it
                mean, _ = scalar_batch_step(ref.starts[-1:], pts.data,
                                            cfg.bandwidth_h)
                assert mean[0].tobytes() == ref.current.tobytes()
                assert kernels.sq_dist(mean, ref.starts[-1:])[0] <= thresh2
        joined = size
    assert [r.tobytes() for r in rows_seen] == \
        [np.array(w).tobytes() for w in want]


# ----------------------------------------------------------------- run_faster

def test_exhaustive_seeds_match_baseline_exactly():
    pts, _, _ = make_blobs(n=300, k=3, sigma=0.1, seed=12)
    cfg = ShiftConfig(bandwidth_h=0.3, early_stop_gamma=1.0)
    base = run_baseline(pts, cfg)
    fast = run_faster(pts, replace(cfg, n_initial=pts.n))
    assert fast.seeds_used == pts.n
    assert fast.seeds_discarded == 0
    assert np.array_equal(fast.labels, base.labels)
    assert fast.mode_set.modes.tobytes() == base.mode_set.modes.tobytes()
    assert rand_index(fast.labels, base.labels) >= 0.99


@given(data=st.data())
def test_exhaustive_seeds_match_seeded_walkers_in_other_dims(data):
    # every point walks in both engines, but only the seeded one
    # extrapolates: at every chunk size the baseline gives its own bytes,
    # and the seeded engine the modes of the scalar seeded walks
    d = data.draw(st.sampled_from(OTHER_DIMS), label="d")
    pts = data.draw(clustered_points(d), label="points")
    h = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="h")
    cfg = ShiftConfig(bandwidth_h=h, early_stop_gamma=1.0)
    walks = [follow_seeded(x, pts, cfg, cfg.max_iter) for x in pts.data]
    want = prune_modes([w.current for w in walks if w.converged], h)
    bases, fasts = [], []
    for chunk in (1, 7, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK_POINTS", chunk)
            bases.append(run_baseline(pts, cfg))
            fasts.append(run_faster(pts, replace(cfg, n_initial=pts.n)))
    for first, *rest in (bases, fasts):
        for res in rest:
            assert (res.mode_set.modes.tobytes()
                    == first.mode_set.modes.tobytes())
            assert np.array_equal(res.mode_set.support, first.mode_set.support)
            assert np.array_equal(res.labels, first.labels)
    assert fasts[0].mode_set.modes.tobytes() == want.modes.tobytes()
    assert np.array_equal(fasts[0].mode_set.support, want.support)


def test_ten_blob_protocol_finds_ten_modes():
    pts, _, centers = make_blobs(n=2000, k=10, sigma=0.1, seed=42)
    res = run_faster(pts, ShiftConfig(bandwidth_h=0.3, n_initial=128,
                                      rng_seed=0))
    assert res.mode_set.m == 10
    for c in centers:
        d = np.sqrt(((res.mode_set.modes - c) ** 2).sum(axis=1)).min()
        assert d < 0.3


# Mode counts over data seeds 0-2 of 1,500 points of each kind (5 clusters,
# estimated h): the seeded engine as `cluster` runs it, then with every
# point walking until all converge. A change to how walkers move may move
# them and must restate them here. The step extrapolation took
# noisy_circles at seed 2 from 2 modes to 1 on both paths: a ring is a
# ridge, so its mode count hangs on where the walkers stop. The secant
# step length that replaced the step-ratio rule moved none of them.
SEEDED_MODE_COUNTS = {
    "blobs": ((3, 4, 3), (3, 4, 3)),
    "large_var_blobs": ((3, 2, 3), (3, 2, 3)),
    "varied_var_blobs": ((3, 3, 3), (3, 3, 3)),
    "uniform_square": ((2, 1, 1), (2, 1, 1)),
    "noisy_circles": ((1, 2, 1), (1, 2, 1)),
    "anisotropic": ((4, 4, 2), (4, 4, 2)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_mode_counts_are_pinned(kind):
    cluster, exhaustive = [], []
    for seed in range(3):
        pts, _, _ = generate(GenSpec(kind=kind, n_points=1500, n_clusters=5,
                                     noise_sigma=0.1, rng_seed=seed))
        cfg = ShiftConfig(bandwidth_h=estimate_bandwidth(pts), rng_seed=0)
        cluster.append(run_adaptive(pts, cfg)[0].mode_set.m)
        exhaustive.append(run_faster(pts, replace(
            cfg, early_stop_gamma=1.0, n_initial=pts.n)).mode_set.m)
    assert (tuple(cluster), tuple(exhaustive)) == SEEDED_MODE_COUNTS[kind]


def test_run_deterministic_across_runs_and_threads(restore_backend):
    pts, _, _ = make_blobs(n=500, k=5, sigma=0.1, seed=3)
    cfg = ShiftConfig(bandwidth_h=0.3, n_initial=64, rng_seed=17)
    a = run_faster(pts, cfg)
    kernels.set_threads(1)
    b = run_faster(pts, cfg)
    kernels.set_threads(4)
    c = run_faster(pts, cfg)
    for other in (b, c):
        assert np.array_equal(a.labels, other.labels)
        assert a.mode_set.modes.tobytes() == other.mode_set.modes.tobytes()
        assert a.distance_evals == other.distance_evals


def test_discard_accounting():
    pts, _, _ = make_blobs(n=2000, k=10, sigma=0.1, seed=7)
    res = run_faster(pts, ShiftConfig(bandwidth_h=0.3, n_initial=80,
                                      rng_seed=145))
    survivors = res.seeds_used - res.seeds_discarded
    assert res.mode_set.support.sum() == survivors
    assert res.seeds_used == 80


def test_work_bound_counts_moving_times_n(monkeypatch):
    pts, _, _ = make_blobs(n=400, k=4, sigma=0.1, seed=5)
    seen = []
    orig = kernels.batch_step

    def spy(rows, points, h, chunk_size, index=None):
        seen.append(rows.shape[0] * points.shape[0])
        return orig(rows, points, h, chunk_size, index)

    monkeypatch.setattr(kernels, "batch_step", spy)
    res = run_faster(pts, ShiftConfig(bandwidth_h=0.3, n_initial=50,
                                      rng_seed=1))
    assert res.distance_evals == sum(seen)
    # each sweep is (moving seeds) * n; moving seeds never grows
    moving = [c // pts.n for c in seen]
    assert all(a >= b for a, b in zip(moving, moving[1:]))


def test_cell_index_built_once_per_run(monkeypatch):
    # the points never move, so each engine run sorts them by cell once and
    # every sweep's batch_step reuses that index; a controller call hands
    # its one index to every retry, also when the index is None because a
    # point lies beyond the grid's reach
    pts, _, _ = make_blobs(n=400, k=4, sigma=0.1, seed=5)
    retrying, _, _ = make_blobs(n=2000, k=20, sigma=0.1, seed=11)
    far = VectorSet(np.concatenate([retrying.data, [[1e9, 0.0]]]))
    assert kernels.cell_index(far.data, 0.3) is None
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=1)
    steps = _spy_batch_step(monkeypatch)
    built = []
    orig = kernels.cell_index

    def spy(points, h):
        built.append(h)
        return orig(points, h)

    monkeypatch.setattr(kernels, "cell_index", spy)
    adaptive = []
    for run in (lambda: run_faster(pts, replace(cfg, n_initial=50)),
                lambda: run_baseline(pts, cfg),
                lambda: run_adaptive(retrying, replace(cfg, rng_seed=5)),
                lambda: run_adaptive(far, replace(cfg, rng_seed=5))):
        built.clear()
        steps.clear()
        out = run()
        assert built == [0.3]
        assert len(steps) > 1
        if isinstance(out, tuple):
            adaptive.append(out[1].retries)
    assert adaptive == [1, 1]


def test_retry_keeps_seeds_and_adds_unused_points():
    pts, _, _ = make_blobs(n=300, k=3, sigma=0.1, seed=2)
    cfg = ShiftConfig(bandwidth_h=0.3)
    walkers = Walkers.seeded(pts, cfg.bandwidth_h)
    run_faster(pts, replace(cfg, n_initial=64, rng_seed=1), walkers=walkers)
    # the first attempt draws the sample a standalone run draws
    first = walkers.seeds.copy()
    assert pts.data[first].tobytes() == sample_seeds(pts, 64, 1).tobytes()
    for N in (128, 300):
        kept = walkers.seeds.copy()
        run_faster(pts, replace(cfg, n_initial=N, rng_seed=N),
                   walkers=walkers)
        assert walkers.seeds.size == N
        assert np.unique(walkers.seeds).size == N
        assert walkers.seeds[:kept.size].tobytes() == kept.tobytes()
    assert np.array_equal(np.sort(walkers.seeds), np.arange(pts.n))
    with pytest.raises(ValueError):
        seed_indices(10, 0, rng_seed=0)


@pytest.mark.parametrize("n,N,seed", [(1, 1, 0), (10, 3, 1), (10, 10, 2),
                                      (10, 25, 3), (5000, 128, 42)])
def test_seed_indices_with_nothing_taken_is_a_plain_choice(n, N, seed):
    ref = np.random.default_rng(seed).choice(n, min(N, n), replace=False)
    got = seed_indices(n, N, seed)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@given(n=st.integers(1, 5000), data=st.data())
def test_seed_indices_equals_the_free_point_pool(n, data):
    # the reference keeps an n-sized mask of the free points and draws
    # positions in their ascending list; ``taken`` comes in draw order,
    # as a retry passes the earlier attempt's seeds
    k = data.draw(st.integers(0, n), label="taken")
    N = data.draw(st.integers(max(k, 1), n + 5), label="N")
    seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
    taken = np.random.default_rng(seed + 1).permutation(n)[:k]
    free = np.ones(n, dtype=bool)
    free[taken] = False
    pool = np.flatnonzero(free)
    fresh = np.random.default_rng(seed).choice(
        pool.size, size=min(N, n) - k, replace=False)
    ref = np.concatenate([taken, pool[fresh]])
    got = seed_indices(n, N, seed, taken)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_seed_indices_holds_nothing_n_sized():
    # 200K points, the benchmark's size: a draw and a retry stay far below
    # the 1.6 MB of one int64 per point
    first = seed_indices(200_000, 80, 3)
    for args in ((200_000, 80, 3), (200_000, 160, 4, first)):
        tracemalloc.start()
        try:
            seed_indices(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak


def test_retry_walkers_end_where_independent_walks_end(monkeypatch):
    pts, _, _ = make_blobs(n=1000, k=5, sigma=0.1, seed=2)
    cfg = ShiftConfig(bandwidth_h=0.3, early_stop_gamma=0.8)
    walkers = Walkers.seeded(pts, cfg.bandwidth_h)
    first = run_faster(pts, replace(cfg, n_initial=32, rng_seed=1),
                       walkers=walkers)
    stragglers = ~walkers.converged
    n_stragglers = int(stragglers.sum())
    assert first.labels is None and first.seeds_discarded == n_stragglers
    assert n_stragglers >= 1
    rows_seen = _spy_batch_step(monkeypatch)
    res = run_faster(pts, replace(cfg, n_initial=64, rng_seed=2),
                     walkers=walkers)
    assert res.labels is None and res.seeds_used == 64
    # the retry steps only the stragglers and the 32 added seeds
    assert rows_seen[0] == n_stragglers + 32
    assert res.distance_evals == sum(rows_seen) * pts.n
    assert int(walkers.converged.sum()) >= 0.8 * 64
    # every kept straggler converged in the retry, and every converged
    # walker ends bit for bit where its own walk from its start ends: a
    # retry carries each walker's kept step and jump factor, so it
    # extrapolates as it would have without the retry
    assert walkers.converged[:32][stragglers].all()
    alone = walkers_at(pts.data[walkers.seeds], pts, cfg.bandwidth_h,
                       steps=np.zeros((64, pts.d)))
    lockstep(alone, pts, cfg, 1.0)
    done = walkers.converged
    assert walkers.positions[done].tobytes() == alone.positions[done].tobytes()
    assert res.mode_set.support.sum() == int(done.sum())


def test_no_converged_seeds_raises():
    pts, _, _ = make_blobs(n=400, k=4, sigma=0.3, seed=9)
    cfg = ShiftConfig(bandwidth_h=3.0, conv_tol=1e-12, max_iter=1,
                      early_stop_gamma=1.0, n_initial=10)
    with pytest.raises(NoConvergedSeedsError, match="no seeds converged"):
        run_faster(pts, cfg)


def test_kde_nondecreasing_for_seed_trajectories():
    pts, _, _ = make_blobs(n=300, k=3, sigma=0.15, seed=11)
    cfg = ShiftConfig(bandwidth_h=0.45)
    seeds = sample_seeds(pts, 12, rng_seed=2)
    sweeps, _ = lockstep(walkers_at(seeds, pts, 0.45), pts, cfg, 1.0)
    assert sweeps >= 3
    vals = np.array([kde_value(p, pts, cfg.bandwidth_h) for p in seeds])
    # the positions after t sweeps are those of a run capped at t sweeps
    for t in range(1, sweeps + 1):
        walkers = walkers_at(seeds, pts, 0.45)
        lockstep(walkers, pts, replace(cfg, max_iter=t), 1.0)
        new_vals = np.array([kde_value(p, pts, cfg.bandwidth_h)
                             for p in walkers.positions])
        assert (new_vals >= vals - 1e-12).all()
        vals = new_vals
