"""Synthetic generators: determinism, layout guarantees, validation."""

import numpy as np
import pytest

from fastshift import GenSpec, gen_blobs, generate
from fastshift.datagen import ANISO_TRANSFORM, _gen_anisotropic


def test_same_spec_bit_identical():
    for kind in ("blobs", "large_var_blobs", "varied_var_blobs",
                 "uniform_square", "noisy_circles", "anisotropic"):
        spec = GenSpec(kind=kind, n_points=200, n_clusters=4,
                       noise_sigma=0.1, rng_seed=5)
        a, la, _ = generate(spec)
        b, lb, _ = generate(spec)
        assert a.data.tobytes() == b.data.tobytes(), kind
        assert np.array_equal(la, lb)


def test_blob_sizes_differ_by_at_most_one():
    spec = GenSpec(kind="blobs", n_points=103, n_clusters=10, rng_seed=0)
    _, labels, _ = gen_blobs(spec)
    sizes = np.bincount(labels, minlength=10)
    assert sizes.sum() == 103
    assert sizes.max() - sizes.min() <= 1


def test_blob_points_near_their_centers():
    spec = GenSpec(kind="blobs", n_points=10, n_clusters=10,
                   noise_sigma=0.1, rng_seed=2)
    pts, labels, centers = gen_blobs(spec)
    assert np.array_equal(labels, np.arange(10))
    dist = np.sqrt(((pts.data - centers[labels]) ** 2).sum(axis=1))
    assert (dist < 6 * 0.1).all()


def test_blob_zero_noise_hits_centers_exactly():
    spec = GenSpec(kind="blobs", n_points=30, n_clusters=3,
                   noise_sigma=0.0, rng_seed=4)
    pts, labels, centers = gen_blobs(spec)
    assert pts.data.tobytes() == centers[labels].tobytes()


def test_blob_centers_separated():
    spec = GenSpec(kind="blobs", n_points=100, n_clusters=10,
                   noise_sigma=0.1, rng_seed=9)
    _, _, centers = gen_blobs(spec)
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.linalg.norm(centers[i] - centers[j]) >= 1.0


def test_blob_placement_failure_raises():
    spec = GenSpec(kind="blobs", n_points=50, n_clusters=50,
                   noise_sigma=5.0, box_extent=1.0, rng_seed=0)
    with pytest.raises(RuntimeError, match="cannot place separated centers"):
        gen_blobs(spec)


def test_gen_blobs_rejects_other_kinds():
    with pytest.raises(ValueError):
        gen_blobs(GenSpec(kind="uniform_square", n_points=10, n_clusters=1))


def test_uniform_square_single_group():
    spec = GenSpec(kind="uniform_square", n_points=500, n_clusters=1,
                   rng_seed=3)
    pts, labels = generate(spec)[:2]
    assert (labels == 0).all()
    assert (np.abs(pts.data) <= 10.0).all()


def test_noisy_circles_zero_noise_radii_exact():
    spec = GenSpec(kind="noisy_circles", n_points=201, n_clusters=2,
                   noise_sigma=0.0, rng_seed=6)
    pts, labels = generate(spec)[:2]
    radii = np.sqrt((pts.data ** 2).sum(axis=1))
    assert np.abs(radii[labels == 0] - 1.0).max() < 1e-12
    assert np.abs(radii[labels == 1] - 0.5).max() < 1e-12
    assert (labels == 0).sum() == 101 and (labels == 1).sum() == 100


def test_large_var_blobs_triple_spread():
    wide = GenSpec(kind="large_var_blobs", n_points=4000, n_clusters=4,
                   noise_sigma=0.1, rng_seed=8)
    pts_w, labels_w, centers_w = generate(wide)
    spread = np.sqrt(((pts_w.data - centers_w[labels_w]) ** 2)
                     .sum(axis=1).mean())
    # isotropic 2-D gaussian: rms radius is sigma * sqrt(2)
    assert spread == pytest.approx(0.3 * np.sqrt(2), rel=0.1)


def test_varied_var_blobs_cycle_multipliers():
    spec = GenSpec(kind="varied_var_blobs", n_points=9000, n_clusters=3,
                   noise_sigma=0.1, rng_seed=12)
    pts, labels, centers = generate(spec)
    stds = []
    for c in range(3):
        d = pts.data[labels == c] - centers[c]
        stds.append(np.sqrt((d ** 2).sum(axis=1).mean() / 2))
    assert stds[0] == pytest.approx(0.1, rel=0.1)
    assert stds[1] == pytest.approx(0.25, rel=0.1)
    assert stds[2] == pytest.approx(0.05, rel=0.1)


def test_anisotropic_identity_equals_blobs():
    spec = GenSpec(kind="anisotropic", n_points=300, n_clusters=5,
                   noise_sigma=0.1, rng_seed=14)
    vs_id, labels_id, centers_id = _gen_anisotropic(spec, np.eye(2))
    blob_spec = GenSpec(kind="blobs", n_points=300, n_clusters=5,
                        noise_sigma=0.1, rng_seed=14)
    vs_b, labels_b, centers_b = gen_blobs(blob_spec)
    assert vs_id.data.tobytes() == vs_b.data.tobytes()
    assert np.array_equal(labels_id, labels_b)
    assert centers_id.tobytes() == centers_b.tobytes()


def test_anisotropic_applies_fixed_shear():
    spec = GenSpec(kind="anisotropic", n_points=100, n_clusters=2,
                   noise_sigma=0.1, rng_seed=15)
    pts, labels, _ = generate(spec)
    blob_spec = GenSpec(kind="blobs", n_points=100, n_clusters=2,
                        noise_sigma=0.1, rng_seed=15)
    base, _, _ = gen_blobs(blob_spec)
    assert pts.data.tobytes() == (base.data @ ANISO_TRANSFORM).tobytes()
    assert ANISO_TRANSFORM.tolist() == [[0.6, -0.6], [-0.4, 0.8]]


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(kind="spiral", n_points=10, n_clusters=1)
    with pytest.raises(ValueError):
        GenSpec(kind="blobs", n_points=5, n_clusters=6)
    with pytest.raises(ValueError):
        GenSpec(kind="blobs", n_points=10, n_clusters=2, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        GenSpec(kind="blobs", n_points=10, n_clusters=2, box_extent=0.0)
    # non-finite values, and a box whose span 2 * box_extent overflows
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            GenSpec(kind="blobs", n_points=10, n_clusters=2, noise_sigma=bad)
    for bad in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError):
            GenSpec(kind="blobs", n_points=10, n_clusters=2, box_extent=bad)
    pts, _, _ = generate(GenSpec(kind="uniform_square", n_points=10,
                                 box_extent=8e307))
    assert np.isfinite(pts.data).all()


@pytest.mark.filterwarnings("error")
def test_blobs_near_float_limit_place_centers_without_warnings():
    # squared center distances overflow to +inf, which reads as far enough
    pts, _, centers = generate(GenSpec(kind="blobs", n_points=1000,
                                       box_extent=8e307))
    assert np.isfinite(pts.data).all() and centers.shape == (10, 2)
