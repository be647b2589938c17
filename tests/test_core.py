"""Domain types and shared primitives."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fastshift import (
    ConfigError,
    ModeSet,
    NoModesError,
    ShiftConfig,
    VectorSet,
    assign_labels,
    estimate_bandwidth,
    kde_value,
    prune_modes,
)
from fastshift import kernels
from fastshift.core import MAX_SAMPLE_CAP

from conftest import OTHER_DIMS, clustered_points, euclidean_distance, window_mask

rng = np.random.default_rng(99)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False,
                   allow_infinity=False)


# ---------------------------------------------------------------- VectorSet

def test_vectorset_coerces_and_validates():
    vs = VectorSet(np.array([[1, 2], [3, 4]]))
    assert vs.data.dtype == np.float64
    assert vs.data.flags["C_CONTIGUOUS"]
    assert (vs.n, vs.d) == (2, 2)


@pytest.mark.parametrize("bad", [
    np.array([1.0, 2.0]),
    np.empty((0, 2)),
    np.empty((2, 0)),
    np.array([[1.0, np.nan]]),
    np.array([[np.inf, 0.0]]),
])
def test_vectorset_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        VectorSet(bad)


# --------------------------------------------------------------- ShiftConfig

def test_config_defaults():
    cfg = ShiftConfig(bandwidth_h=0.5)
    assert cfg.conv_tol == 1e-3
    assert cfg.max_iter == 300
    assert cfg.early_stop_gamma == 0.95
    assert cfg.n_initial == 128
    assert cfg.min_mode_support == 1


@pytest.mark.parametrize("kwargs", [
    {"bandwidth_h": 0.0},
    {"bandwidth_h": -1.0},
    {"bandwidth_h": np.inf},
    {"bandwidth_h": 1.0, "conv_tol": 0.0},
    {"bandwidth_h": 1.0, "max_iter": 0},
    {"bandwidth_h": 1.0, "early_stop_gamma": 0.0},
    {"bandwidth_h": 1.0, "early_stop_gamma": 1.5},
    {"bandwidth_h": 1.0, "n_initial": 0},
    {"bandwidth_h": 1.0, "conv_tol": np.nan},
    {"bandwidth_h": 1.0, "rng_seed": -1},
    {"bandwidth_h": 1.0, "min_mode_support": -1},
    {"bandwidth_h": 1.0, "early_stop_gamma": np.nan},
    # the squared convergence threshold overflows
    {"bandwidth_h": 1e200},
    {"bandwidth_h": 1.0, "conv_tol": 1e300},
    {"bandwidth_h": 1e300, "conv_tol": 1e10},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ShiftConfig(**kwargs)


def test_config_accepts_largest_finite_threshold():
    # the largest product whose square is finite passes, the next one fails
    top = np.sqrt(np.finfo(np.float64).max)
    while top * top == np.inf:
        top = np.nextafter(top, 0.0)
    ShiftConfig(bandwidth_h=float(top), conv_tol=1.0)
    with pytest.raises(ConfigError, match="finite square"):
        ShiftConfig(bandwidth_h=float(np.nextafter(top, np.inf)),
                    conv_tol=1.0)


@pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda h: ShiftConfig(bandwidth_h=h),
    lambda h: prune_modes(np.array([[0.0, 0.0], [5.0, 5.0]]), h),
    lambda h: kde_value((0.0, 0.0), VectorSet(np.eye(2)), h),
], ids=["ShiftConfig", "prune_modes", "kde_value"])
def test_one_bandwidth_rule(call, h):
    # a NaN radius used to keep every candidate as its own mode and an
    # infinite one to merge them all; the density read nan and 0.0
    with pytest.raises(ConfigError, match=re.escape(
            f"bandwidth_h must be a positive finite real, got {h}")):
        call(h)


# ------------------------------------- reference helpers from conftest.py

def test_euclidean_identity_and_pythagoras():
    assert euclidean_distance((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_euclidean_dimension_mismatch():
    with pytest.raises(ValueError):
        euclidean_distance((1.0, 2.0), (1.0, 2.0, 3.0))


@given(arrays(np.float64, 5, elements=finite),
       arrays(np.float64, 5, elements=finite))
def test_euclidean_matches_scalar_loop(a, b):
    acc = 0.0
    for k in range(5):
        diff = a[k] - b[k]
        acc += diff * diff
    assert euclidean_distance(a, b) == float(np.sqrt(acc))


def test_euclidean_symmetric():
    a = rng.normal(size=4)
    b = rng.normal(size=4)
    assert euclidean_distance(a, b) == euclidean_distance(b, a)


def test_window_boundary_is_inside():
    h = 0.3
    pts = VectorSet(np.array([[h, 0.0], [h + 1e-12, 0.0]]))
    mask = window_mask((0.0, 0.0), pts, h)
    assert mask.tolist() == [True, False]


def test_window_empty_far_center():
    pts = VectorSet(rng.normal(size=(15, 2)))
    assert not window_mask((500.0, 500.0), pts, 0.5).any()


def test_window_mask_matches_scalar_check():
    pts = VectorSet(rng.uniform(-1, 1, size=(20, 2)))
    center = np.array([0.1, -0.2])
    mask = window_mask(center, pts, 0.5)
    for i in range(20):
        assert mask[i] == (euclidean_distance(center, pts.data[i]) <= 0.5)


def test_window_mask_rejects_nonpositive_h():
    pts = VectorSet(rng.normal(size=(4, 2)))
    with pytest.raises(ConfigError):
        window_mask((0.0, 0.0), pts, 0.0)


# ---------------------------------------------------------------- kde_value

def test_kde_single_point_normalization():
    h = 0.5
    x = np.array([0.3, -0.7])
    vs = VectorSet(x.reshape(1, -1))
    assert kde_value(x, vs, h) == pytest.approx(1.0 / h ** 2)


def test_kde_zero_outside_support():
    vs = VectorSet(rng.normal(size=(30, 2)))
    assert kde_value((100.0, 100.0), vs, 0.5) == 0.0


def test_kde_matches_scalar_loop():
    vs = VectorSet(rng.uniform(-1, 1, size=(50, 2)))
    x = np.array([0.05, 0.1])
    h = 0.6
    acc = 0.0
    for p in vs.data:
        d2 = (x[0] - p[0]) ** 2 + (x[1] - p[1]) ** 2
        acc += max(0.0, 1.0 - d2 / (h * h))
    assert kde_value(x, vs, h) == pytest.approx(acc / (50 * h ** 2), rel=1e-15)


def test_kde_translation_invariant():
    vs = VectorSet(rng.uniform(-1, 1, size=(40, 2)))
    x = np.array([0.2, 0.3])
    shift = np.array([17.5, -3.25])
    before = kde_value(x, vs, 0.7)
    after = kde_value(x + shift, VectorSet(vs.data + shift), 0.7)
    assert after == pytest.approx(before, rel=1e-12)


# ------------------------------------------------------- estimate_bandwidth

def test_bandwidth_two_points():
    vs = VectorSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert estimate_bandwidth(vs, quantile=0.5) == 2.0


def test_bandwidth_two_distant_blobs_larger():
    tight = VectorSet(rng.normal(scale=0.1, size=(100, 2)))
    two = np.concatenate([rng.normal(scale=0.1, size=(50, 2)),
                          rng.normal(loc=8.0, scale=0.1, size=(50, 2))])
    assert estimate_bandwidth(VectorSet(two)) > estimate_bandwidth(tight)


def test_bandwidth_full_sample_ignores_seed():
    vs = VectorSet(rng.normal(size=(60, 2)))
    a = estimate_bandwidth(vs, sample_cap=500, rng_seed=1)
    b = estimate_bandwidth(vs, sample_cap=500, rng_seed=999)
    assert a == b


def test_bandwidth_permutation_invariant_when_uncapped():
    data = rng.normal(size=(80, 2))
    perm = rng.permutation(80)
    a = estimate_bandwidth(VectorSet(data), sample_cap=100)
    b = estimate_bandwidth(VectorSet(data[perm]), sample_cap=100)
    assert a == b


@given(data=st.data())
def test_bandwidth_bits_ignore_row_order_when_uncapped(data):
    # a cap that covers every point samples all of them in an order the
    # seed picks; the sorted sum of per-point distances must not see it
    d = data.draw(st.sampled_from((2, *OTHER_DIMS)), label="d")
    x = data.draw(clustered_points(d), label="points").data
    if len(x) < 2:
        x = np.concatenate([x, x + 0.5])
    perm = np.array(data.draw(st.permutations(range(len(x))), label="perm"))
    cap = data.draw(st.integers(len(x), MAX_SAMPLE_CAP), label="cap")
    q = data.draw(st.sampled_from([0.05, 0.3, 0.9]), label="quantile")
    seeds = data.draw(st.lists(st.integers(0, 2 ** 32), min_size=2,
                               max_size=2), label="seeds")
    a = estimate_bandwidth(VectorSet(x), q, cap, seeds[0])
    b = estimate_bandwidth(VectorSet(x[perm]), q, cap, seeds[1])
    assert a.hex() == b.hex()


def test_bandwidth_identical_points_gives_zero():
    vs = VectorSet(np.zeros((10, 2)))
    assert estimate_bandwidth(vs) == 0.0


def test_bandwidth_validation():
    vs = VectorSet(rng.normal(size=(10, 2)))
    with pytest.raises(ValueError):
        estimate_bandwidth(VectorSet(np.zeros((1, 2))))
    with pytest.raises(ConfigError):
        estimate_bandwidth(vs, quantile=0.0)
    with pytest.raises(ConfigError):
        estimate_bandwidth(vs, sample_cap=0)
    with pytest.raises(ConfigError):  # one point has no neighbour
        estimate_bandwidth(vs, sample_cap=1)
    # the time is quadratic in the sample, so the cap has a ceiling
    assert estimate_bandwidth(vs, sample_cap=MAX_SAMPLE_CAP) > 0
    with pytest.raises(ConfigError, match="sample_cap"):
        estimate_bandwidth(vs, sample_cap=MAX_SAMPLE_CAP + 1)


def test_bandwidth_row_blocked_matches_full_matrix_in_bounded_memory():
    x = np.random.default_rng(5).normal(size=(3000, 2))
    # reference: the whole 3000 x 3000 matrix (72 MB), each row sorted
    d2 = (x[:, :1] - x[:, 0]) ** 2 + (x[:, 1:] - x[:, 1]) ** 2
    d2.sort(axis=1)
    kth = np.sqrt(d2[:, 900])  # floor(0.3 * 3000)
    kth.sort()
    ref = float(np.cumsum(kth)[-1] / 3000)
    del d2
    vs = VectorSet(x)
    tracemalloc.start()
    try:
        got = estimate_bandwidth(vs, quantile=0.3, sample_cap=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ref
    # one pooled block of distances and differences, plus what grows with
    # the sample (its points, indices and k-th distances); 0.60 MB measured
    assert peak <= kernels.BLOCK_FLOATS * 8 + 64 * 3000, peak


def test_bandwidth_deterministic_when_capped():
    vs = VectorSet(rng.normal(size=(300, 2)))
    assert (estimate_bandwidth(vs, sample_cap=50, rng_seed=3)
            == estimate_bandwidth(vs, sample_cap=50, rng_seed=3))


# -------------------------------------------------------------- prune_modes

def test_prune_singleton():
    ms = prune_modes(np.repeat([[1.0, 2.0]], 4, axis=0), h=0.5)
    assert ms.m == 1
    assert ms.modes.tolist() == [[1.0, 2.0]]
    assert ms.support.tolist() == [4]


def test_prune_two_close_modes_merge_toward_support():
    h = 1.0
    raw = np.repeat([[0.1 * h, 0.0], [0.0, 0.0]], [5, 3], axis=0)
    ms = prune_modes(raw, h)
    assert ms.m == 1
    # every candidate counts once; the lexicographically first one wins
    assert ms.modes.tolist() == [[0.0, 0.0]]
    assert ms.support.tolist() == [8]


def test_prune_three_collinear_hand_trace():
    h = 1.0
    raw = np.array([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]])
    ms = prune_modes(raw, h)
    # first lexicographic kills its 0.9h neighbor; 1.8h survives
    assert ms.m == 2
    assert ms.modes.tolist() == [[0.0, 0.0], [1.8, 0.0]]
    assert ms.support.tolist() == [2, 1]


def _assert_repruning_keeps_modes(ms, h):
    # the modes lie more than h apart, so each comes back on its own,
    # in lexicographic order, holding itself alone
    again = prune_modes(ms.modes, h)
    lex = np.lexsort(ms.modes.T[::-1])
    assert again.modes.tobytes() == ms.modes[lex].tobytes()
    assert again.support.tolist() == [1] * ms.m


def test_prune_idempotent():
    raw = np.repeat(rng.normal(size=(200, 2)), rng.integers(1, 6, size=200),
                    axis=0)
    _assert_repruning_keeps_modes(prune_modes(raw, h=0.6), 0.6)


@given(data=st.data())
def test_prune_idempotent_in_other_dims(data):
    d = data.draw(st.sampled_from(OTHER_DIMS), label="d")
    raw = data.draw(clustered_points(d), label="candidates").data
    h = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="h")
    _assert_repruning_keeps_modes(prune_modes(raw, h), h)


@given(data=st.data())
def test_prune_bytes_do_not_depend_on_candidate_order(data):
    # candidates on multiples of h/2 can sit exactly h apart or coincide,
    # so the visiting order would decide the ties if it were not fixed
    d = data.draw(st.integers(1, 3), label="d")
    h = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]), label="h")
    r = data.draw(st.integers(1, 30), label="r")
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=r * d,
                              max_size=r * d), label="cells")
    cands = np.array(ints, dtype=np.float64).reshape(r, d) * (h / 2)
    twins = data.draw(st.lists(st.integers(0, r - 1), max_size=r),
                      label="twins")
    cands = np.concatenate([cands, cands[twins]])
    # twins may differ only in the sign of a zero, which the sort ties
    flip = data.draw(st.lists(st.booleans(), min_size=cands.size,
                              max_size=cands.size), label="signs")
    cands[(cands == 0.0) & np.reshape(flip, cands.shape)] = -0.0
    perm = data.draw(st.permutations(range(len(cands))), label="order")
    ms = prune_modes(cands, h)
    shuffled = prune_modes(cands[perm], h)
    assert shuffled.modes.tobytes() == ms.modes.tobytes()
    assert shuffled.support.tobytes() == ms.support.tobytes()
    assert ms.support.sum() == len(cands)


def test_prune_pairwise_separation_invariant():
    raw = rng.normal(size=(150, 2))
    ms = prune_modes(raw, h=0.5)
    for i in range(ms.m):
        for j in range(i + 1, ms.m):
            assert euclidean_distance(ms.modes[i], ms.modes[j]) > 0.5


def test_prune_conserves_support_total():
    raw = rng.normal(size=(120, 2))
    supports = rng.integers(1, 9, size=120)
    ms = prune_modes(np.repeat(raw, supports, axis=0), h=0.7,
                     min_mode_support=1)
    assert ms.support.sum() == supports.sum()


def test_prune_min_support_filters_and_errors():
    raw = np.array([[0.0, 0.0], [5.0, 5.0]])
    ms = prune_modes(np.repeat(raw, [10, 1], axis=0), h=0.5,
                     min_mode_support=5)
    assert ms.m == 1 and ms.support.tolist() == [10]
    with pytest.raises(NoModesError, match="no modes survive pruning"):
        prune_modes(raw, h=0.5, min_mode_support=5)


def test_prune_validation():
    with pytest.raises(ValueError):
        prune_modes(np.empty((0, 2)), h=0.5)
    with pytest.raises(ConfigError):
        prune_modes(np.array([[0.0, 0.0]]), h=0.0)


# ------------------------------------------------------------ assign_labels

def test_assign_single_mode_all_zero():
    pts = VectorSet(rng.normal(size=(25, 2)))
    ms = ModeSet(np.array([[0.0, 0.0]]), np.array([25]))
    assert (assign_labels(pts, ms) == 0).all()


def test_assign_tie_prefers_lower_index():
    pts = VectorSet(np.array([[0.0, 0.0]]))
    ms = ModeSet(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 1]))
    assert assign_labels(pts, ms).tolist() == [0]


def test_assign_matches_scalar_loop():
    pts = VectorSet(rng.uniform(-2, 2, size=(100, 2)))
    ms = ModeSet(rng.uniform(-2, 2, size=(3, 2)), np.array([1, 1, 1]))
    labels = assign_labels(pts, ms)
    for i in range(100):
        dists = [euclidean_distance(pts.data[i], ms.modes[j]) for j in range(3)]
        assert labels[i] == int(np.argmin(dists))


def test_assign_scale_consistent():
    pts = VectorSet(rng.uniform(-2, 2, size=(60, 2)))
    ms = ModeSet(rng.uniform(-2, 2, size=(4, 2)), np.ones(4, dtype=int))
    base = assign_labels(pts, ms)
    scaled = assign_labels(VectorSet(pts.data * 3.5),
                           ModeSet(ms.modes * 3.5, ms.support))
    assert np.array_equal(base, scaled)


def test_assign_labels_bounded_with_many_modes():
    # the mode count sets the label row blocks, so 2,000 modes never build
    # the 32 MB full distance matrix
    data = rng.uniform(-2, 2, size=(2000, 2))
    modes = rng.uniform(-2, 2, size=(2000, 2))
    want = np.argmin(((data[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2),
                     axis=1)
    pts, ms = VectorSet(data), ModeSet(modes, np.ones(2000, dtype=int))
    tracemalloc.start()
    try:
        labels = assign_labels(pts, ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(labels, want)
    assert peak < 4 * 2 ** 20


def test_modeset_length_mismatch():
    with pytest.raises(ValueError):
        ModeSet(np.zeros((2, 2)), np.array([1]))
