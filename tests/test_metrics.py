"""Tests for the agreement metrics and the benchmark harness."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fastshift.metrics as metrics_mod
from fastshift import kernels
from fastshift.core import ModeSet, ShiftConfig
from fastshift.datagen import GenSpec
from fastshift.metrics import (
    BENCH_METHODS,
    BenchRecord,
    bench_run,
    mode_match,
    rand_index,
)


# ---------------------------------------------------------------------------
# rand_index


def rand_index_pair_loop(a, b):
    """O(n^2) reference: count agreeing pairs directly."""
    n = len(a)
    agree = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a == same_b:
                agree += 1
    return agree / math.comb(n, 2)


def test_rand_identical_labelings():
    lab = np.array([0, 0, 1, 1, 2, 2, 2])
    assert rand_index(lab, lab) == 1.0


def test_rand_relabeled_is_one():
    a = np.array([0, 0, 1, 1, 2])
    b = np.array([7, 7, 3, 3, 9])
    assert rand_index(a, b) == 1.0


def test_rand_total_disagreement():
    # one big cluster vs all singletons: every pair disagrees
    a = np.zeros(3, dtype=np.int64)
    b = np.arange(3)
    assert rand_index(a, b) == 0.0


def test_rand_matches_pair_loop():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 4, size=50)
    b = rng.integers(0, 3, size=50)
    assert rand_index(a, b) == pytest.approx(rand_index_pair_loop(a, b),
                                            rel=0, abs=1e-15)


@given(st.lists(st.integers(0, 5), min_size=2, max_size=40),
       st.permutations(list(range(6))))
def test_rand_invariant_under_relabeling(raw, perm):
    a = np.asarray(raw)
    b = (a * 2 + 1) % 7            # arbitrary second labeling
    remap = np.asarray(perm)
    assert rand_index(a, b) == rand_index(remap[a], b)


def test_rand_rejects_length_mismatch():
    with pytest.raises(ValueError):
        rand_index(np.zeros(3), np.zeros(4))


def test_rand_rejects_tiny_input():
    with pytest.raises(ValueError):
        rand_index(np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# mode_match


def as_mode_set(positions):
    arr = np.asarray(positions, dtype=np.float64)
    return ModeSet(arr, np.ones(arr.shape[0], dtype=np.int64))


def test_mode_match_exact_recovery():
    truth = np.array([[0.0, 0.0], [5.0, 5.0], [-3.0, 4.0]])
    matched, spurious, missed = mode_match(as_mode_set(truth), truth, tol=0.1)
    assert matched == 3
    assert spurious == 0
    assert missed == 0


def test_mode_match_spurious_mode():
    truth = np.array([[0.0, 0.0], [5.0, 0.0]])
    found = as_mode_set([[0.01, 0.0], [5.02, 0.0], [50.0, 50.0]])
    matched, spurious, missed = mode_match(found, truth, tol=0.1)
    assert (matched, spurious, missed) == (2, 1, 0)


def test_mode_match_missed_mode():
    truth = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 9.0]])
    found = as_mode_set([[0.0, 0.01]])
    matched, spurious, missed = mode_match(found, truth, tol=0.1)
    assert (matched, spurious, missed) == (1, 0, 2)


def test_mode_match_within_half_tolerance():
    rng = np.random.default_rng(3)
    truth = rng.uniform(-10, 10, size=(8, 2))
    found = as_mode_set(truth + rng.normal(0, 0.01, size=truth.shape))
    matched, spurious, missed = mode_match(found, truth, tol=0.3)
    assert (matched, spurious, missed) == (8, 0, 0)


def test_mode_match_greedy_takes_closest_pair_first():
    # one found mode sits between two truth modes; it must pair with the
    # nearer one and leave the other unmatched
    truth = np.array([[0.0, 0.0], [1.0, 0.0]])
    found = as_mode_set([[0.3, 0.0]])
    matched, spurious, missed = mode_match(found, truth, tol=0.5)
    assert (matched, spurious, missed) == (1, 0, 1)


def test_mode_match_rejects_bad_tolerance():
    ms = as_mode_set([[0.0, 0.0]])
    with pytest.raises(ValueError):
        mode_match(ms, np.zeros((1, 2)), tol=0.0)


def test_mode_match_rejects_nan_tolerance():
    # no distance compares greater than NaN, so a NaN tolerance used to
    # match every found mode to a truth mode however far apart they were
    found = as_mode_set([[0.0, 0.0], [5.0, 5.0]])
    truth = np.array([[100.0, 100.0], [-50.0, 3.0]])
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        mode_match(found, truth, tol=float("nan"))


# ---------------------------------------------------------------------------
# bench_run


def test_bench_methods_tuple():
    assert BENCH_METHODS == ("baseline", "faster", "faster_adaptive")


def test_bench_run_smoke():
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=0)
    series = [GenSpec(kind="blobs", n_points=800, n_clusters=10,
                      noise_sigma=0.1, rng_seed=42)]
    records = bench_run(series, ("baseline", "faster"), cfg, repeats=1)
    assert len(records) == 2
    by_method = {r.method: r for r in records}

    base = by_method["baseline"]
    fast = by_method["faster"]
    assert base.status == "ok" and fast.status == "ok"
    assert base.n_points == 800 and fast.n_points == 800
    assert base.rand_index_vs_baseline == 1.0
    assert fast.rand_index_vs_baseline >= 0.95
    assert base.modes_found == 10
    assert fast.modes_found == 10
    assert base.wall_time_s > 0.0 and fast.wall_time_s > 0.0
    assert 0 < fast.distance_evals < base.distance_evals


def test_bench_record_is_frozen():
    rec = BenchRecord("baseline", 10, 0.1, 100, 80, 2, 1.0)
    with pytest.raises(AttributeError):
        rec.method = "x"


def test_bench_peak_bytes_formula(monkeypatch):
    monkeypatch.setattr(kernels, "CHUNK_POINTS", 64)
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=0)
    series = [GenSpec(kind="blobs", n_points=500, n_clusters=5,
                      noise_sigma=0.1, rng_seed=1)]
    records = bench_run(series, ("baseline", "faster"), cfg, repeats=1)
    by_method = {r.method: r for r in records}
    # baseline batches every point as a row; faster only its surviving seeds
    assert by_method["baseline"].peak_batch_bytes == 500 * 64 * 8
    fast = by_method["faster"]
    assert fast.peak_batch_bytes % (64 * 8) == 0
    assert fast.peak_batch_bytes < by_method["baseline"].peak_batch_bytes


def test_bench_run_survives_method_failure(monkeypatch):
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=0)
    series = [GenSpec(kind="blobs", n_points=400, n_clusters=4,
                      noise_sigma=0.1, rng_seed=2)]

    real = metrics_mod._run_method

    def flaky(method, points, cfg_):
        if method == "faster":
            raise RuntimeError("synthetic failure")
        return real(method, points, cfg_)

    monkeypatch.setattr(metrics_mod, "_run_method", flaky)
    records = bench_run(series, ("baseline", "faster", "faster_adaptive"),
                        cfg, repeats=1)
    assert len(records) == 3
    by_method = {r.method: r for r in records}
    assert by_method["baseline"].status == "ok"
    assert by_method["faster"].status.startswith("error:")
    assert "synthetic failure" in by_method["faster"].status
    # the run kept going past the failure
    assert by_method["faster_adaptive"].status == "ok"


def test_bench_run_median_of_repeats(monkeypatch):
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=0)
    series = [GenSpec(kind="blobs", n_points=300, n_clusters=3,
                      noise_sigma=0.1, rng_seed=3)]
    walls = iter([1.0, 8.0, 2.0])

    class FakeResult:
        labels = np.array([0, 0, 1, 1])
        distance_evals = 1200
        seeds_used = 0
        mode_set = ModeSet(np.zeros((2, 2)), np.array([2, 2]))

        @property
        def wall_time_s(self):
            return next(walls)

    monkeypatch.setattr(metrics_mod, "_run_method",
                        lambda method, points, cfg_: FakeResult())
    records = bench_run(series, ("baseline",), cfg, repeats=3)
    assert records[0].wall_time_s == 2.0   # median of 1.0, 8.0, 2.0


def test_bench_run_rejects_unknown_method():
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=0)
    series = [GenSpec(kind="blobs", n_points=100, n_clusters=2,
                      noise_sigma=0.1, rng_seed=0)]
    with pytest.raises(ValueError):
        bench_run(series, ("nonsense",), cfg, repeats=1)


def test_bench_baseline_eval_count_cross_check():
    cfg = ShiftConfig(bandwidth_h=0.3, rng_seed=0)
    series = [GenSpec(kind="blobs", n_points=300, n_clusters=3,
                      noise_sigma=0.1, rng_seed=4)]
    records = bench_run(series, ("baseline",), cfg, repeats=1)
    rec = records[0]
    # every sweep touches at most all n walkers against all n points, and
    # at least one walker for every sweep counted
    n = 300
    assert rec.distance_evals % n == 0
    assert rec.distance_evals >= n
