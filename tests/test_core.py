"""Domain types and shared primitives."""

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

from conftest import euclidean_distance, window_mask

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
    assert (cfg.seed_low_L, cfg.seed_high_H) == (8, 32)
    assert cfg.min_mode_support == 1
    assert cfg.chunk_size == 4096


@pytest.mark.parametrize("kwargs", [
    {"bandwidth_h": 0.0},
    {"bandwidth_h": -1.0},
    {"bandwidth_h": np.inf},
    {"bandwidth_h": 1.0, "conv_tol": 0.0},
    {"bandwidth_h": 1.0, "max_iter": 0},
    {"bandwidth_h": 1.0, "early_stop_gamma": 0.0},
    {"bandwidth_h": 1.0, "early_stop_gamma": 1.5},
    {"bandwidth_h": 1.0, "n_initial": 0},
    {"bandwidth_h": 1.0, "seed_low_L": 8, "seed_high_H": 8},
    {"bandwidth_h": 1.0, "rng_seed": -1},
    {"bandwidth_h": 1.0, "min_mode_support": -1},
    {"bandwidth_h": 1.0, "chunk_size": 0},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ShiftConfig(**kwargs)


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


def test_bandwidth_deterministic_when_capped():
    vs = VectorSet(rng.normal(size=(300, 2)))
    assert (estimate_bandwidth(vs, sample_cap=50, rng_seed=3)
            == estimate_bandwidth(vs, sample_cap=50, rng_seed=3))


# -------------------------------------------------------------- prune_modes

def test_prune_singleton():
    ms = prune_modes(np.array([[1.0, 2.0]]), [4], h=0.5)
    assert ms.m == 1
    assert ms.modes.tolist() == [[1.0, 2.0]]
    assert ms.support.tolist() == [4]


def test_prune_two_close_modes_merge_toward_support():
    h = 1.0
    raw = np.array([[0.0, 0.0], [0.1 * h, 0.0]])
    ms = prune_modes(raw, [3, 5], h)
    assert ms.m == 1
    assert ms.modes.tolist() == [[0.1, 0.0]]  # support-5 candidate wins
    assert ms.support.tolist() == [8]


def test_prune_three_collinear_hand_trace():
    h = 1.0
    raw = np.array([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]])
    ms = prune_modes(raw, [1, 1, 1], h)
    # first lexicographic kills its 0.9h neighbor; 1.8h survives
    assert ms.m == 2
    assert ms.modes.tolist() == [[0.0, 0.0], [1.8, 0.0]]
    assert ms.support.tolist() == [2, 1]


def test_prune_idempotent():
    raw = rng.normal(size=(200, 2))
    supports = rng.integers(1, 6, size=200)
    ms = prune_modes(raw, supports, h=0.6)
    again = prune_modes(ms.modes, ms.support, h=0.6)
    assert again.modes.tobytes() == ms.modes.tobytes()
    assert np.array_equal(again.support, ms.support)


def test_prune_pairwise_separation_invariant():
    raw = rng.normal(size=(150, 2))
    ms = prune_modes(raw, np.ones(150, dtype=int), h=0.5)
    for i in range(ms.m):
        for j in range(i + 1, ms.m):
            assert euclidean_distance(ms.modes[i], ms.modes[j]) > 0.5


def test_prune_conserves_support_total():
    raw = rng.normal(size=(120, 2))
    supports = rng.integers(1, 9, size=120)
    ms = prune_modes(raw, supports, h=0.7, min_mode_support=1)
    assert ms.support.sum() == supports.sum()


def test_prune_min_support_filters_and_errors():
    raw = np.array([[0.0, 0.0], [5.0, 5.0]])
    ms = prune_modes(raw, [10, 1], h=0.5, min_mode_support=5)
    assert ms.m == 1 and ms.support.tolist() == [10]
    with pytest.raises(NoModesError, match="no modes survive pruning"):
        prune_modes(raw, [1, 1], h=0.5, min_mode_support=5)


def test_prune_validation():
    with pytest.raises(ValueError):
        prune_modes(np.empty((0, 2)), [], h=0.5)
    with pytest.raises(ValueError):
        prune_modes(np.array([[0.0, 0.0]]), [1, 2], h=0.5)
    with pytest.raises(ConfigError):
        prune_modes(np.array([[0.0, 0.0]]), [1], h=0.0)


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


def test_modeset_length_mismatch():
    with pytest.raises(ValueError):
        ModeSet(np.zeros((2, 2)), np.array([1]))
