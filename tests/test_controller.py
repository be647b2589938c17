"""Seed-count steering: coverage math, band rules, retry/decay traces."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fastshift import (
    ControllerState,
    ShiftConfig,
    VectorSet,
    coverage_probability,
    min_seed_bound,
    next_seed_count,
    run_adaptive,
)
from fastshift import kernels

from conftest import make_blobs

CFG = ShiftConfig(bandwidth_h=0.3)


# ------------------------------------------------------ coverage_probability

def test_coverage_two_two_is_one_third():
    assert coverage_probability(2, 2) == pytest.approx(1.0 / 3.0)
    # direct binomial evaluation
    assert coverage_probability(2, 2) == math.comb(1, 1) / math.comb(3, 1)


def test_coverage_single_cluster_always_one():
    for n in (1, 2, 17, 1000):
        assert coverage_probability(n, 1) == 1.0


def test_coverage_more_seeds_help():
    lo = coverage_probability(40, 10)
    hi = coverage_probability(80, 10)
    assert 0.0 < lo < hi < 1.0


def test_coverage_fewer_seeds_than_clusters_is_zero():
    assert coverage_probability(3, 5) == 0.0


def test_coverage_monotone_in_n():
    for m in range(1, 21):
        prev = -1.0
        for n in range(m, 201):
            p = coverage_probability(n, m)
            assert p >= prev
            prev = p
        assert 0.0 < prev <= 1.0


def test_coverage_overflow_safe_at_scale():
    p = coverage_probability(10 ** 6, 500)
    assert 0.0 < p <= 1.0


def test_coverage_validation():
    with pytest.raises(ValueError):
        coverage_probability(0, 1)
    with pytest.raises(ValueError):
        coverage_probability(5, 0)


# ----------------------------------------------------------- min_seed_bound

def test_min_seed_bound_values():
    assert min_seed_bound(10, 8) == 80
    assert min_seed_bound(1, 8) == 8
    assert min_seed_bound(3, 1) == 3
    with pytest.raises(ValueError):
        min_seed_bound(0, 8)


# ---------------------------------------------------------- next_seed_count

def test_rule_doubles_when_under_floor():
    state = ControllerState(N=128)
    assert next_seed_count(state, 20, CFG, n=100000) == ("retry_now", 256)


def test_rule_accepts_inside_band():
    state = ControllerState(N=128)
    assert next_seed_count(state, 10, CFG, n=100000) == ("accept", 128)


def test_rule_decays_above_ceiling():
    state = ControllerState(N=512)
    assert next_seed_count(state, 10, CFG, n=100000) == ("decay", 502)


def test_rule_accepts_at_exhaustion():
    state = ControllerState(N=64)
    # floor is 8*20=160 but only 64 points exist
    assert next_seed_count(state, 20, CFG, n=64) == ("accept", 64)


def test_rule_doubling_clamps_to_n():
    state = ControllerState(N=128)
    assert next_seed_count(state, 20, CFG, n=200) == ("retry_now", 200)


@given(st.integers(1, 4000), st.integers(1, 40), st.integers(1, 4000))
def test_rule_output_always_in_range(N, M, n):
    state = ControllerState(N=N)
    action, n_next = next_seed_count(state, M, CFG, n)
    assert action in ("retry_now", "accept", "decay")
    assert 1 <= n_next <= n


# ------------------------------------------------------------- run_adaptive

def test_adaptive_accepts_ten_blobs_first_pass():
    pts, _, _ = make_blobs(n=2000, k=10, sigma=0.1, seed=42)
    res, state = run_adaptive(pts, ShiftConfig(bandwidth_h=0.3, rng_seed=0))
    assert state.history == [(128, 10, True)]
    assert state.retries == 0
    assert res.mode_set.m == 10
    assert not state.exhausted


def test_adaptive_doubles_for_twenty_blobs():
    pts, _, _ = make_blobs(n=2000, k=20, sigma=0.1, seed=11)
    res, state = run_adaptive(pts, ShiftConfig(bandwidth_h=0.3, rng_seed=5))
    assert [h[0] for h in state.history] == [128, 256]
    assert state.history[0][2] is False and state.history[1][2] is True
    assert state.retries == 1
    assert res.mode_set.m == 20


def test_adaptive_decay_sequence_of_frames():
    pts, _, _ = make_blobs(n=5000, k=10, sigma=0.1, seed=3)
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=5)
    state = ControllerState(N=512)
    seen = []
    for _ in range(5):
        res, state = run_adaptive(pts, cfg, state)
        seen.append((state.history[-1][0], state.N))
    # N strictly decreases by M=10 per frame while above the ceiling
    assert seen == [(512, 502), (502, 492), (492, 482), (482, 472), (472, 462)]
    assert res.mode_set.m == 10


def test_adaptive_accepted_runs_meet_floor():
    pts, _, _ = make_blobs(n=2000, k=20, sigma=0.1, seed=11)
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=5)
    _, state = run_adaptive(pts, cfg)
    for N, M, accepted in state.history:
        if accepted and not state.exhausted:
            assert N >= min_seed_bound(M, cfg.seed_low_L)


def test_adaptive_exhaustion_flag():
    # 24 points in 4 distant tight clusters: floor 8*4=32 can never be met,
    # so doubling caps at n and the run is accepted with the warning flag
    rng = np.random.default_rng(0)
    pts = VectorSet(np.concatenate(
        [c + 0.01 * rng.normal(size=(6, 2))
         for c in ([0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0])]))
    cfg = ShiftConfig(bandwidth_h=0.5, rng_seed=1, n_initial=4)
    res, state = run_adaptive(pts, cfg)
    assert res.mode_set.m == 4
    assert state.history[-1][0] == 24
    assert state.history[-1][2] is True
    assert state.exhausted


def test_adaptive_telemetry_accumulates_attempts(monkeypatch):
    pts, _, _ = make_blobs(n=2000, k=20, sigma=0.1, seed=11)
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=5)
    pairs = []
    orig = kernels.batch_step

    def spy(rows, points, h, chunk_size, index=None):
        pairs.append(rows.shape[0] * points.shape[0])
        return orig(rows, points, h, chunk_size, index)

    labelled = []
    orig_labels = kernels.nearest_labels

    def labels_spy(points, modes):
        labelled.append(modes.shape[0])
        return orig_labels(points, modes)

    monkeypatch.setattr(kernels, "batch_step", spy)
    monkeypatch.setattr(kernels, "nearest_labels", labels_spy)
    res, state = run_adaptive(pts, cfg)
    assert state.retries == 1
    # the counter covers every attempt's sweeps, exactly
    assert res.distance_evals == sum(pairs)
    assert len(pairs) > res.iterations_run
    # only the accepted attempt is labelled
    assert labelled == [res.mode_set.m]


def test_adaptive_without_retry_keeps_its_bytes():
    # pinned on the controller that redid every retry from scratch: a run
    # that does not retry must keep its bytes
    pts, _, _ = make_blobs(n=2000, k=10, sigma=0.1, seed=42)
    res, state = run_adaptive(pts, ShiftConfig(bandwidth_h=0.3, rng_seed=0))
    assert state.history == [(128, 10, True)]
    digest = hashlib.sha256()
    for arr, dtype in ((res.mode_set.modes, "<f8"),
                       (res.mode_set.support, "<i8"), (res.labels, "<i8"),
                       ([res.distance_evals], "<i8")):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    assert digest.hexdigest() == (
        "e9f34a6ca8ba7bcbd76713b141c3dd69807c394bdeb5a1a640a8a5c153b1676c")


def test_adaptive_deterministic():
    pts, _, _ = make_blobs(n=1000, k=10, sigma=0.1, seed=8)
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=23)
    a, _ = run_adaptive(pts, cfg)
    b, _ = run_adaptive(pts, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert a.mode_set.modes.tobytes() == b.mode_set.modes.tobytes()
    assert a.distance_evals == b.distance_evals
