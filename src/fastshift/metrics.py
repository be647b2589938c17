"""Agreement metrics and the timing/counter benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass
import math
import statistics

import numpy as np

from .baseline import run_baseline
from .controller import run_adaptive
from .core import ModeSet, ShiftConfig, VectorSet
from .datagen import GenSpec, generate
from .faster import run_faster
from .kernels import sq_dist_block

BENCH_METHODS = ("baseline", "faster", "faster_adaptive")


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark table row.

    ``peak_batch_bytes`` is the analytic transient-buffer size
    (rows * chunk * 8 bytes), not process RSS: it is the quantity the
    chunked design actually bounds. ``rand_index_vs_baseline`` is None
    when no baseline row exists for the same dataset. Failed rows carry
    the error in ``status`` and zeros elsewhere.
    """

    method: str
    n_points: int
    wall_time_s: float
    distance_evals: int
    peak_batch_bytes: int
    modes_found: int
    rand_index_vs_baseline: float | None
    status: str = "ok"


def rand_index(labels_a, labels_b) -> float:
    """Unadjusted Rand index: fraction of point pairs the labelings agree on.

    A pair agrees when both labelings put it in one cluster, or both split
    it. Invariant under relabeling either side. Exact integer counting.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"label lengths differ: {a.size} vs {b.size}")
    n = int(a.size)
    if n < 2:
        raise ValueError(f"need at least 2 labels, got {n}")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    nb = int(ib.max()) + 1
    joint = np.bincount(ia.astype(np.int64) * nb + ib.astype(np.int64))
    same_both = sum(math.comb(int(c), 2) for c in joint)
    same_a = sum(math.comb(int(c), 2) for c in np.bincount(ia))
    same_b = sum(math.comb(int(c), 2) for c in np.bincount(ib))
    total = math.comb(n, 2)
    return (total - same_a - same_b + 2 * same_both) / total


def mode_match(found: ModeSet, truth, tol: float):
    """Greedy one-to-one matching of found modes against reference positions.

    Pairs are considered in ascending distance order (ties by found index,
    then reference index) and matched when the distance is at most ``tol``.
    Returns ``(matched, unmatched_found, unmatched_truth)``.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    t = np.asarray(truth, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(1, -1)
    nf, nt = found.m, t.shape[0]
    d2 = sq_dist_block(found.modes, t)

    fi, ti = np.divmod(np.arange(nf * nt), nt)
    order = np.lexsort((ti, fi, d2.ravel()))
    f_free = np.ones(nf, dtype=bool)
    t_free = np.ones(nt, dtype=bool)
    tol2 = tol * tol
    matched = 0
    for p in order:
        if d2.ravel()[p] > tol2:
            break
        i, j = fi[p], ti[p]
        if f_free[i] and t_free[j]:
            f_free[i] = False
            t_free[j] = False
            matched += 1
    return matched, int(f_free.sum()), int(t_free.sum())


def _run_method(method: str, points: VectorSet, cfg: ShiftConfig):
    if method == "baseline":
        return run_baseline(points, cfg)
    if method == "faster":
        return run_faster(points, cfg.n_initial, cfg)
    if method == "faster_adaptive":
        return run_adaptive(points, cfg)[0]
    raise ValueError(f"unknown method {method!r}, expected one of {BENCH_METHODS}")


def _peak_batch_bytes(method: str, result, n: int, chunk_size: int) -> int:
    rows = n if method == "baseline" else result.seeds_used
    return rows * min(chunk_size, n) * 8


def bench_run(series: list[GenSpec], methods: list[str], cfg: ShiftConfig,
              repeats: int = 3) -> list[BenchRecord]:
    """Run each method on each generated dataset; one record per pair.

    Each dataset is generated once and shared by all methods, so the Rand
    index against the baseline labels is computed on identical input.
    Wall time is the median over ``repeats`` runs; counters come from the
    last run (runs are deterministic, so they agree). A failing method
    yields a failed record and the sweep continues.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for m in methods:
        if m not in BENCH_METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {BENCH_METHODS}")
    records = []
    for spec in series:
        points, _, _ = generate(spec)
        base_labels = None
        for method in methods:
            try:
                walls = []
                result = None
                for _ in range(repeats):
                    result = _run_method(method, points, cfg)
                    walls.append(result.wall_time_s)
                if method == "baseline":
                    base_labels = result.labels
                ri = None
                if base_labels is not None:
                    ri = rand_index(result.labels, base_labels)
                records.append(BenchRecord(
                    method=method,
                    n_points=points.n,
                    wall_time_s=statistics.median(walls),
                    distance_evals=result.distance_evals,
                    peak_batch_bytes=_peak_batch_bytes(
                        method, result, points.n, cfg.chunk_size),
                    modes_found=result.mode_set.m,
                    rand_index_vs_baseline=ri,
                ))
            except Exception as exc:  # noqa: BLE001 - failed rows are data
                records.append(BenchRecord(
                    method=method, n_points=points.n, wall_time_s=0.0,
                    distance_evals=0, peak_batch_bytes=0, modes_found=0,
                    rand_index_vs_baseline=None, status=f"error: {exc}"))
    return records
