"""Deterministic 2-D synthetic datasets for correctness and scaling runs.

Six layouts: separated Gaussian blobs (plus wide- and mixed-variance
variants), a uniform square, two concentric noisy circles, and sheared
blobs. Same spec in, bit-identical arrays out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import VectorSet, check_seed

# per-cluster sigma multipliers for the mixed-variance layout
VARIED_MULTIPLIERS = (1.0, 2.5, 0.5)

# fixed shear applied by the anisotropic layout
ANISO_TRANSFORM = np.array([[0.6, -0.6], [-0.4, 0.8]])

_CIRCLE_RADII = (1.0, 0.5)

_MAX_PLACEMENT_TRIES = 10_000


@dataclass(frozen=True)
class GenSpec:
    kind: str
    n_points: int
    n_clusters: int = 10
    noise_sigma: float = 0.1
    rng_seed: int = 0
    box_extent: float = 10.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (self.n_points >= self.n_clusters >= 1):
            raise ValueError(f"need n_points >= n_clusters >= 1, got "
                             f"{self.n_points} and {self.n_clusters}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, "
                             f"got {self.noise_sigma}")
        if not (np.isfinite(2.0 * self.box_extent) and self.box_extent > 0):
            raise ValueError(f"box_extent must be > 0 with a finite span "
                             f"2 * box_extent, got {self.box_extent}")
        check_seed(self.rng_seed)


def _place_centers(rng: np.random.Generator, k: int, box_extent: float,
                   min_sep: float) -> np.ndarray:
    centers = np.empty((k, 2))
    placed = 0
    for _ in range(_MAX_PLACEMENT_TRIES):
        cand = rng.uniform(-box_extent, box_extent, size=(1, 2))
        # near the float limit a squared distance overflows to +inf, which
        # correctly reads as far enough
        with np.errstate(over="ignore"):
            d2 = kernels.sq_dist(centers[:placed], cand)
        if (np.sqrt(d2) < min_sep).any():
            continue
        centers[placed] = cand
        placed += 1
        if placed == k:
            return centers
    raise RuntimeError("cannot place separated centers")


def _even_sizes(n: int, k: int) -> np.ndarray:
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return sizes


def _blob_cloud(spec: GenSpec, sigma_per_cluster: np.ndarray, min_sep: float):
    rng = np.random.default_rng(spec.rng_seed)
    centers = _place_centers(rng, spec.n_clusters, spec.box_extent, min_sep)
    sizes = _even_sizes(spec.n_points, spec.n_clusters)
    labels = np.repeat(np.arange(spec.n_clusters, dtype=np.int64), sizes)
    # each cluster's points are one slice, scaled and shifted in place, so
    # no per-point sigma or center is gathered; the bits equal
    # centers + noise * sigma's, since IEEE add and multiply commute
    pts = rng.standard_normal((spec.n_points, 2))
    stops = np.cumsum(sizes)
    for lo, hi, sigma, center in zip(stops - sizes, stops, sigma_per_cluster,
                                     centers):
        pts[lo:hi] *= sigma
        pts[lo:hi] += center
    return VectorSet(pts), labels, centers


def gen_blobs(spec: GenSpec):
    """Isotropic Gaussian blobs around well-separated uniform centers.

    Centers are rejected until pairwise separation reaches 10 * noise_sigma;
    points split across clusters as evenly as possible (sizes differ by at
    most 1). Returns ``(VectorSet, true_labels, true_centers)``.
    """
    if spec.kind != "blobs":
        raise ValueError(f"gen_blobs needs kind='blobs', got {spec.kind!r}")
    sig = np.full(spec.n_clusters, spec.noise_sigma)
    return _blob_cloud(spec, sig, 10.0 * spec.noise_sigma)


def _gen_varied(spec: GenSpec):
    mult = np.array([VARIED_MULTIPLIERS[i % len(VARIED_MULTIPLIERS)]
                     for i in range(spec.n_clusters)])
    # separation keyed to the widest cluster so every blob stays distinct
    return _blob_cloud(spec, spec.noise_sigma * mult,
                       10.0 * spec.noise_sigma * mult.max())


def _gen_uniform(spec: GenSpec):
    rng = np.random.default_rng(spec.rng_seed)
    pts = rng.uniform(-spec.box_extent, spec.box_extent, (spec.n_points, 2))
    return VectorSet(pts), np.zeros(spec.n_points, dtype=np.int64), None


def _gen_circles(spec: GenSpec):
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_points
    n_outer = n - n // 2
    labels = np.zeros(n, dtype=np.int64)
    labels[n_outer:] = 1
    base_r = np.where(labels == 0, _CIRCLE_RADII[0], _CIRCLE_RADII[1])
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = base_r + rng.standard_normal(n) * spec.noise_sigma
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return VectorSet(pts), labels, None


def _gen_anisotropic(spec: GenSpec, transform: np.ndarray):
    vs, labels, centers = gen_blobs(replace(spec, kind="blobs"))
    return VectorSet(vs.data @ transform), labels, centers @ transform


_GENERATORS = {
    "blobs": gen_blobs,
    "large_var_blobs": lambda spec: gen_blobs(
        replace(spec, kind="blobs", noise_sigma=3.0 * spec.noise_sigma)),
    "varied_var_blobs": _gen_varied,
    "uniform_square": _gen_uniform,
    "noisy_circles": _gen_circles,
    "anisotropic": lambda spec: _gen_anisotropic(spec, ANISO_TRANSFORM),
}

KINDS = tuple(_GENERATORS)


def generate(spec: GenSpec):
    """Dispatch on ``spec.kind``: ``(VectorSet, labels, centers or None)``.

    Centers are reported for the blob-derived layouts (sheared centers for
    the anisotropic one); the uniform square and the circles have none.
    """
    return _GENERATORS[spec.kind](spec)
