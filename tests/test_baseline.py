"""Classical engine: per-point trajectories, telemetry, density ascent."""

import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fastshift import (
    ShiftConfig,
    VectorSet,
    kde_value,
    lockstep,
    run_baseline,
    shift_once,
)
from fastshift import kernels

from conftest import (
    OTHER_DIMS,
    PointTrajectory,
    clustered_points,
    follow_point,
    make_blobs,
    scalar_batch_step,
    walkers_at,
)

rng = np.random.default_rng(7)


def test_shift_once_mean_of_two():
    pts = VectorSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
    new, count = shift_once((0.5, 0.1), pts, h=5.0)
    assert new.tolist() == [1.0, 0.0]
    assert count == 2


def test_shift_once_empty_window_fixpoint():
    pts = VectorSet(rng.normal(size=(20, 2)))
    x = np.array([50.0, 50.0])
    new, count = shift_once(x, pts, h=0.5)
    assert count == 0
    assert new.tolist() == x.tolist()


def test_shift_once_matches_scalar_loop():
    pts = VectorSet(rng.normal(scale=0.5, size=(200, 2)))
    x = rng.normal(size=2)
    new, count = shift_once(x, pts, h=0.4)
    ref, ref_counts = scalar_batch_step(x.reshape(1, -1), pts.data, 0.4)
    assert new.tobytes() == ref[0].tobytes()
    assert count == ref_counts[0]


def test_shift_once_builds_no_cell_index(monkeypatch):
    # one step tests every point in O(n); sorting n points per call would
    # cost more than the step
    def spy(points, h):
        raise AssertionError("shift_once built a cell index")

    monkeypatch.setattr(kernels, "cell_index", spy)
    pts = VectorSet(rng.normal(size=(500, 2)))
    new, count = shift_once(pts.data[0], pts, h=0.3)
    ref, ref_counts = scalar_batch_step(pts.data[:1], pts.data, 0.3)
    assert new.tobytes() == ref[0].tobytes() and count == ref_counts[0]


def test_shift_once_rejects_a_non_finite_position():
    pts = VectorSet(rng.normal(size=(20, 2)))
    for x in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match=r"non-finite row\(s\), at "
                                             r"index \[0\]"):
            shift_once(x, pts, h=0.5)


def test_shift_once_dimension_mismatch():
    pts = VectorSet(rng.normal(size=(5, 2)))
    with pytest.raises(ValueError):
        shift_once((1.0, 2.0, 3.0), pts, h=1.0)


def test_identical_points_one_mode_one_iteration():
    pts = VectorSet(np.array([[1.5, -2.0]] * 3))
    res = run_baseline(pts, ShiftConfig(bandwidth_h=0.5))
    assert res.mode_set.m == 1
    assert res.mode_set.modes.tolist() == [[1.5, -2.0]]
    assert res.iterations_run == 1
    assert res.labels.tolist() == [0, 0, 0]
    assert res.seeds_used == 0 and res.seeds_discarded == 0


def test_three_separated_blobs_recovered():
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    pts = VectorSet(np.concatenate(
        [c + rng.normal(scale=0.1, size=(40, 2)) for c in centers]))
    res = run_baseline(pts, ShiftConfig(bandwidth_h=0.4))
    assert res.mode_set.m == 3
    for c in centers:
        d = np.sqrt(((res.mode_set.modes - c) ** 2).sum(axis=1)).min()
        assert d < 0.4


def test_lockstep_equals_independent_trajectories():
    pts, _, _ = make_blobs(n=60, k=3, sigma=0.2, seed=4)
    cfg = ShiftConfig(bandwidth_h=0.5)
    res = run_baseline(pts, cfg)
    trajs = [follow_point(pts.data[i], pts, cfg) for i in range(pts.n)]
    assert all(isinstance(t, PointTrajectory) and t.converged for t in trajs)
    assert res.iterations_run == max(t.iterations for t in trajs)
    assert res.distance_evals == sum(t.iterations for t in trajs) * pts.n
    # the lockstep's pruned modes come from exactly these end positions
    from fastshift import prune_modes
    ends = np.stack([t.current for t in trajs])
    ref = prune_modes(ends, cfg.bandwidth_h)
    assert ref.modes.tobytes() == res.mode_set.modes.tobytes()
    assert np.array_equal(ref.support, res.mode_set.support)


@given(data=st.data())
def test_lockstep_equals_independent_trajectories_in_other_dims(data):
    d = data.draw(st.sampled_from(OTHER_DIMS), label="d")
    pts = data.draw(clustered_points(d), label="points")
    h = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="h")
    cfg = ShiftConfig(bandwidth_h=h, max_iter=50)
    walkers = walkers_at(pts.data, pts, h)
    sweeps, evals = lockstep(walkers, pts, cfg, 1.0)
    trajs = [follow_point(x, pts, cfg) for x in pts.data]
    ends = np.stack([t.current for t in trajs])
    assert walkers.positions.tobytes() == ends.tobytes()
    assert walkers.converged.tolist() == [t.converged for t in trajs]
    assert sweeps == max(t.iterations for t in trajs)
    assert evals == sum(t.iterations for t in trajs) * pts.n


def test_distance_evals_counts_window_scans_exactly(monkeypatch):
    pts, _, _ = make_blobs(n=80, k=2, sigma=0.15, seed=9)
    cfg = ShiftConfig(bandwidth_h=0.5)
    seen = []
    orig = kernels.batch_step

    def spy(rows, points, h, chunk_size, index=None):
        seen.append(rows.shape[0] * points.shape[0])
        return orig(rows, points, h, chunk_size, index)

    monkeypatch.setattr(kernels, "batch_step", spy)
    res = run_baseline(pts, cfg)
    assert res.distance_evals == sum(seen)


def test_fixpoint_does_not_move():
    pts = VectorSet(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    center = np.array([0.0, 0.0])  # mean of its own window
    new, count = shift_once(center, pts, h=2.0)
    assert count == 4
    assert new.tolist() == [0.0, 0.0]
    traj = follow_point(center, pts, ShiftConfig(bandwidth_h=2.0))
    assert traj.converged and traj.iterations == 1
    assert traj.current.tolist() == [0.0, 0.0]


def test_kde_nondecreasing_along_trajectories():
    pts, _, _ = make_blobs(n=400, k=4, sigma=0.15, seed=2)
    cfg = ShiftConfig(bandwidth_h=0.45)
    starts = pts.data[rng.choice(pts.n, size=40, replace=False)]
    for x0 in starts:
        pos = x0.copy()
        val = kde_value(pos, pts, cfg.bandwidth_h)
        for _ in range(cfg.max_iter):
            new, count = shift_once(pos, pts, cfg.bandwidth_h)
            if count == 0:
                break
            new_val = kde_value(new, pts, cfg.bandwidth_h)
            assert new_val >= val - 1e-12
            shift = np.linalg.norm(new - pos)
            pos, val = new, new_val
            if shift <= cfg.conv_tol * cfg.bandwidth_h:
                break


def test_unconverged_walkers_still_reported():
    # crank the tolerance down so nothing can converge in one sweep
    pts, _, _ = make_blobs(n=50, k=5, sigma=0.3, seed=6)
    cfg = ShiftConfig(bandwidth_h=0.5, conv_tol=1e-15, max_iter=1)
    res = run_baseline(pts, cfg)
    assert res.iterations_run == 1
    assert res.distance_evals == 50 * 50
    assert res.labels.shape == (50,)


def test_quadratic_growth_in_n():
    # fixed two sweeps for every walker: work is exactly 2 n^2; the two
    # sizes' runs alternate, so a change in machine load hits both alike
    cfg = ShiftConfig(bandwidth_h=0.3, conv_tol=1e-12, max_iter=2)
    data = {n: make_blobs(n=n, k=10, sigma=0.1, seed=5)[0]
            for n in (500, 2000, 4000)}
    run_baseline(data[500], cfg)  # warm the kernels before measuring
    walls = {2000: [], 4000: []}
    for _ in range(5):
        for n, samples in walls.items():
            samples.append(run_baseline(data[n], cfg).wall_time_s)
    t1, t2 = (statistics.median(walls[n]) for n in (2000, 4000))
    assert t2 / t1 <= 4.5, f"doubling n cost {t2 / t1:.2f}x"
