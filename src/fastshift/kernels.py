"""Hot numeric kernels, two of them with interchangeable backends.

The window step (seed-vs-point window reductions) and nearest-mode label
assignment exist twice: a numba ``@njit`` implementation and a pure numpy
fallback. The active backend is chosen by the ``FASTSHIFT_BACKEND``
environment variable (``numba`` or ``numpy``; default ``numba`` when numba
imports) and can be switched at runtime with :func:`set_backend`. Greedy
mode pruning is numpy on both backends: it runs one vectorised pass per
accepted mode, which costs milliseconds next to the window sweeps on the
benchmark workloads, and a numba twin would be code that cannot be
measured where numba is missing.

Both backends implement the *same* reduction semantics: per row, points are
folded in ascending index order into a running sum, counts are exact
integers, and a single division produces the mean. The numpy path preserves
the fold order across chunk boundaries by carrying the accumulator into
``np.add.accumulate`` (a strict sequential scan), so results are
bit-identical for any ``chunk_size`` and for any thread count, and match
the numba loops bit for bit.

The numpy window step does not distance-test every (row, point) pair. A
uniform grid of cell side just over ``h`` groups the rows by cell, and each
group is tested only against the points of its 3^d neighbour cells, kept in
ascending index order. A point the grid drops is more than ``h`` away on
one axis, so its computed squared distance exceeds ``h * h`` and it would
have added nothing to the fold: results are the brute-force bytes. That
holds while every coordinate is within ``2**28 * h`` in magnitude and
``h * h`` is a normal float; otherwise every point is a candidate. The
numba window step tests every pair: the grid's candidate selection makes
numpy passes over all points per cell group, which may cost more than the
fused numba loop, and that has not been measured.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    import numba
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only where numba is absent
    HAS_NUMBA = False

_VALID_BACKENDS = ("numba", "numpy")

# floats in one matrix-shaped numpy buffer (512 KB), small enough to stay in
# cache; callers that block over rows size their blocks from it
BLOCK_FLOATS = 65_536


def _resolve_default() -> str:
    env = os.environ.get("FASTSHIFT_BACKEND", "").strip().lower()
    if env:
        if env not in _VALID_BACKENDS:
            raise ValueError(
                f"FASTSHIFT_BACKEND must be one of {_VALID_BACKENDS}, got {env!r}"
            )
        if env == "numba" and not HAS_NUMBA:
            warnings.warn("FASTSHIFT_BACKEND=numba but numba is not installed; "
                          "falling back to numpy")
            return "numpy"
        return env
    return "numba" if HAS_NUMBA else "numpy"


_backend = _resolve_default()


def active_backend() -> str:
    """Name of the backend used by the kernel dispatchers."""
    return _backend


def set_backend(name: str) -> None:
    """Switch kernels to ``numba`` or ``numpy`` for this process."""
    global _backend
    if name not in _VALID_BACKENDS:
        raise ValueError(f"backend must be one of {_VALID_BACKENDS}, got {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    _backend = name


def set_threads(count: int) -> int:
    """Cap the numba worker-thread count, clamped to what the host allows.

    Returns the count actually applied. Thread count never changes results:
    parallelism is across rows and each row's reduction is sequential.
    """
    if count < 1:
        raise ValueError("thread count must be >= 1")
    if not HAS_NUMBA:
        return 1
    applied = min(count, numba.config.NUMBA_NUM_THREADS)
    numba.set_num_threads(applied)
    return applied


def as_matrix(arr) -> np.ndarray:
    """Coerce to a C-contiguous float64 matrix without copying when possible."""
    return np.ascontiguousarray(arr, dtype=np.float64)


def sq_dist_block(a, b, out=None, diff=None):
    """Squared distance from every row of ``a`` to every row of ``b``.

    Returns the (rows of a) by (rows of b) matrix. Each entry folds its
    coordinates in ascending order into a zero start, the order the numba
    loops use, so both backends compare the same bits against a radius.
    The first coordinate's square is stored as is, which is the same as
    adding it to zero. One difference buffer is reused across coordinates;
    ``out`` and ``diff``, when given, are matrix-shaped buffers for the
    result and that difference.
    """
    shape = (a.shape[0], b.shape[0])
    d2 = np.empty(shape) if out is None else out
    diff = np.empty(shape) if diff is None else diff
    for k in range(a.shape[1]):
        np.subtract(a[:, k][:, None], b[:, k][None, :], out=diff)
        if k == 0:
            np.multiply(diff, diff, out=d2)
        else:
            np.multiply(diff, diff, out=diff)
            d2 += diff
    return d2


# ---------------------------------------------------------------------------
# masked-mean window step
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True, parallel=True)
    def _batch_step_numba(rows, points, h2):
        m, d = rows.shape
        n = points.shape[0]
        out = np.empty((m, d))
        counts = np.empty(m, np.int64)
        for s in prange(m):
            acc = np.zeros(d)
            cnt = 0
            for i in range(n):
                dist2 = 0.0
                for k in range(d):
                    diff = rows[s, k] - points[i, k]
                    dist2 += diff * diff
                if dist2 <= h2:
                    cnt += 1
                    for k in range(d):
                        acc[k] += points[i, k]
            counts[s] = cnt
            if cnt > 0:
                for k in range(d):
                    out[s, k] = acc[k] / cnt
            else:
                for k in range(d):
                    out[s, k] = rows[s, k]
        return out, counts


def _scratch(pool, key, shape):
    """A ``shape`` view of the buffer ``pool[key]``, grown when too small.

    One pool serves one ``batch_step`` call, so all its blocks reuse the
    same memory: the time per pair then does not depend on how the
    allocator recycles freed blocks, which page-faults when it trims and
    regrows the heap.
    """
    size = int(np.prod(shape))
    buf = pool.get(key)
    if buf is None or buf.size < size:
        buf = pool[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _batch_step_numpy(rows, points, h2, chunk_size, pool):
    # row-block so the m-by-chunk buffers stay within BLOCK_FLOATS even when
    # a caller batches every input point as a row; rows are independent, so
    # blocking cannot change any value
    m = rows.shape[0]
    blk_rows = max(1, BLOCK_FLOATS // max(1, min(chunk_size, points.shape[0])))
    if m <= blk_rows:
        return _batch_step_numpy_block(rows, points, h2, chunk_size, pool)
    out = np.empty_like(rows)
    counts = np.empty(m, np.int64)
    for lo in range(0, m, blk_rows):
        o, c = _batch_step_numpy_block(rows[lo:lo + blk_rows], points, h2,
                                       chunk_size, pool)
        out[lo:lo + blk_rows] = o
        counts[lo:lo + blk_rows] = c
    return out, counts


def _batch_step_numpy_block(rows, points, h2, chunk_size, pool):
    m, d = rows.shape
    n = points.shape[0]
    acc = np.zeros((m, d))
    counts = np.zeros(m, np.int64)
    for lo in range(0, n, chunk_size):
        blk = points[lo:lo + chunk_size]
        c = blk.shape[0]
        d2 = sq_dist_block(rows, blk, out=_scratch(pool, "d2", (m, c)),
                           diff=_scratch(pool, "diff", (m, c)))
        # the 0/1 window weights overwrite the distances they come from
        w = np.less_equal(d2, h2, out=d2)
        counts += np.count_nonzero(w, axis=1)
        # carry the running sum through a sequential scan so the fold order
        # over points is independent of where chunk boundaries fall
        buf = _scratch(pool, "scan", (m, c + 1))
        for k in range(d):
            buf[:, 0] = acc[:, k]
            np.multiply(w, blk[:, k][None, :], out=buf[:, 1:])
            np.add.accumulate(buf, axis=1, out=buf)
            acc[:, k] = buf[:, -1]
    denom = np.maximum(counts, 1).astype(np.float64)
    out = np.where(counts[:, None] > 0, acc / denom[:, None], rows)
    return out, counts


def _grid_exact(rows, points, h):
    """Whether the cell grid drops only points the kernel would reject.

    A dropped point is two or more cells from the row on some axis. With
    every coordinate within ``2**28 * h``, a computed cell position is off
    by under ``2**-23`` cells, so the exact gap on that axis exceeds
    ``h * (1 + 2**-21)``, and the few roundings in the squared distance
    cannot bring it down to ``h * h``. A normal ``h * h`` keeps the squares
    clear of underflow; a non-positive or non-finite ``h`` fails the test.
    """
    if rows.size == 0 or points.size == 0:
        return False
    if not (np.isfinite(h * h) and h * h >= np.finfo(np.float64).tiny):
        return False
    reach = 2.0 ** 28 * h
    return bool(np.abs(points).max() <= reach and np.abs(rows).max() <= reach)


def batch_step(rows, points, h, chunk_size):
    """Move each row to the mean of all points within distance ``h`` of it.

    Rows with an empty window stay put. Returns ``(new_rows, window_counts)``.
    On the numpy backend, rows are grouped by the cell of a uniform grid of
    side just over ``h`` and each group is tested only against the points
    of its 3^d neighbour cells, in ascending index order; the bytes are
    those of testing every (row, point) pair. That holds while every
    coordinate is within ``2**28 * h`` in magnitude and ``h * h`` is a
    normal float, and every point is tested otherwise. The numba backend
    tests every point. Callers count ``rows.shape[0] * points.shape[0]``
    distance evaluations per call, the nominal work of the exhaustive
    test, whatever the grid saves.
    """
    rows = as_matrix(rows)
    points = as_matrix(points)
    h2 = h * h
    if _backend == "numba":
        return _batch_step_numba(rows, points, h2)
    pool = {}
    if not _grid_exact(rows, points, h):
        return _batch_step_numpy(rows, points, h2, chunk_size, pool)
    side = h * (1.0 + 2.0 ** -20)
    lo = points.min(axis=0)
    # point cells axis by axis (d by n), so each test below is a flat pass
    pcell = np.floor((points.T - lo[:, None]) / side).astype(np.int64)
    rcell = np.floor((rows - lo) / side).astype(np.int64)
    cells, inverse = np.unique(rcell, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    out = np.empty_like(rows)
    counts = np.empty(rows.shape[0], np.int64)
    near = np.empty(points.shape[0], bool)
    for cell, members in zip(cells, np.split(order, bounds)):
        near.fill(True)
        for k, c in enumerate(cell):
            near &= np.abs(pcell[k] - c) <= 1
        out[members], counts[members] = _batch_step_numpy(
            rows[members], points[np.flatnonzero(near)], h2, chunk_size, pool)
    return out, counts


# ---------------------------------------------------------------------------
# nearest-mode labels
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True, parallel=True)
    def _nearest_labels_numba(points, modes):
        n, d = points.shape
        m = modes.shape[0]
        labels = np.empty(n, np.int64)
        for i in prange(n):
            best = 0
            best_d2 = np.inf
            for j in range(m):
                dist2 = 0.0
                for k in range(d):
                    diff = points[i, k] - modes[j, k]
                    dist2 += diff * diff
                if dist2 < best_d2:
                    best_d2 = dist2
                    best = j
            labels[i] = best
        return labels


def _nearest_labels_numpy(points, modes, chunk_size):
    n = points.shape[0]
    labels = np.empty(n, np.int64)
    for lo in range(0, n, chunk_size):
        d2 = sq_dist_block(points[lo:lo + chunk_size], modes)
        labels[lo:lo + chunk_size] = np.argmin(d2, axis=1)
    return labels


def nearest_labels(points, modes, chunk_size):
    """Index of the closest mode per point; ties go to the lower index."""
    points = as_matrix(points)
    modes = as_matrix(modes)
    if _backend == "numba":
        return _nearest_labels_numba(points, modes)
    return _nearest_labels_numpy(points, modes, chunk_size)


# ---------------------------------------------------------------------------
# greedy mode pruning (hot for the per-point baseline, where every input
# point contributes a raw mode)
# ---------------------------------------------------------------------------


def greedy_prune(cands, supports, h):
    """Greedy accept-if-farther-than-h sweep over pre-sorted candidates.

    Returns ``(accepted_indices, accumulated_supports)``. A candidate is
    accepted when no earlier accepted one lies within ``h``; otherwise its
    support is folded into the nearest earlier accepted one (the earliest
    on exact ties). The loop runs once per accepted candidate: each one is
    distance-tested against every later candidate, which updates their
    nearest accepted mode so far and whether one lies within ``h``.
    """
    cands = as_matrix(cands)
    supports = np.ascontiguousarray(supports, dtype=np.int64)
    r = cands.shape[0]
    h2 = h * h
    owner = np.zeros(r, np.int64)       # position in ``accepted``
    nearest = np.full(r, np.inf)
    covered = np.zeros(r + 1, bool)     # entry r is never covered: the end
    accepted: list[int] = []
    i = 0
    while i < r:
        owner[i] = len(accepted)
        accepted.append(i)
        d2 = sq_dist_block(cands[i + 1:], cands[i:i + 1])[:, 0]
        closer = d2 < nearest[i + 1:]
        np.copyto(nearest[i + 1:], d2, where=closer)
        np.copyto(owner[i + 1:], owner[i], where=closer)
        covered[i + 1:r] |= d2 <= h2
        # the next candidate to accept is the first later one not covered
        i += 1 + int(covered[i + 1:].argmin())
    acc_support = np.zeros(len(accepted), np.int64)
    np.add.at(acc_support, owner, supports)
    return np.asarray(accepted, dtype=np.int64), acc_support


def row_sq_dist(a, b):
    """Per-row squared distance between two equally shaped matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    d2 = np.zeros(a.shape[0])
    for k in range(a.shape[1]):
        diff = a[:, k] - b[:, k]
        d2 += diff * diff
    return d2
