"""Hot numeric kernels with two interchangeable backends.

The expensive inner loops (seed-vs-point window reductions and nearest-mode
label assignment) exist twice: a numba ``@njit`` implementation and a pure
numpy fallback. The active backend is chosen by the ``FASTSHIFT_BACKEND``
environment variable (``numba`` or ``numpy``; default ``numba`` when numba
imports) and can be switched at runtime with :func:`set_backend`.

Both backends implement the *same* reduction semantics: per row, points are
folded in ascending index order into a running sum, counts are exact
integers, and a single division produces the mean. The numpy path preserves
the fold order across chunk boundaries by carrying the accumulator into
``np.add.accumulate`` (a strict sequential scan), so results are
bit-identical for any ``chunk_size`` and for any thread count, and match
the numba loops bit for bit.
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


def sq_dist_block(a, b):
    """Squared distance from every row of ``a`` to every row of ``b``.

    Returns the (rows of a) by (rows of b) matrix. Each entry folds its
    coordinates in ascending order into a zero start, the order the numba
    loops use, so both backends compare the same bits against a radius.
    One difference buffer is reused across coordinates: fresh temporaries
    the size of the matrix cost more in page faults than in arithmetic.
    """
    d2 = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(d2)
    for k in range(a.shape[1]):
        np.subtract(a[:, k][:, None], b[:, k][None, :], out=diff)
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


def _batch_step_numpy(rows, points, h2, chunk_size):
    # row-block so the m-by-chunk distance buffer stays near 4M floats even
    # when a caller batches every input point as a row; rows are independent,
    # so blocking cannot change any value
    m = rows.shape[0]
    blk_rows = max(1, 4_000_000 // max(1, min(chunk_size, points.shape[0])))
    if m <= blk_rows:
        return _batch_step_numpy_block(rows, points, h2, chunk_size)
    out = np.empty_like(rows)
    counts = np.empty(m, np.int64)
    for lo in range(0, m, blk_rows):
        o, c = _batch_step_numpy_block(rows[lo:lo + blk_rows], points, h2,
                                       chunk_size)
        out[lo:lo + blk_rows] = o
        counts[lo:lo + blk_rows] = c
    return out, counts


def _batch_step_numpy_block(rows, points, h2, chunk_size):
    m, d = rows.shape
    n = points.shape[0]
    acc = np.zeros((m, d))
    counts = np.zeros(m, np.int64)
    for lo in range(0, n, chunk_size):
        blk = points[lo:lo + chunk_size]
        c = blk.shape[0]
        # d2 stays bound until the next chunk replaces it: freeing it here
        # lets the allocator trim and regrow the heap every chunk (128 rows
        # by 200K points on 2 CPUs: 4x the page faults, 15% more time)
        d2 = sq_dist_block(rows, blk)
        mask = d2 <= h2
        counts += mask.sum(axis=1, dtype=np.int64)
        w = mask.astype(np.float64)
        # carry the running sum through a sequential scan so the fold order
        # over points is independent of where chunk boundaries fall
        buf = np.empty((m, c + 1))
        for k in range(d):
            buf[:, 0] = acc[:, k]
            np.multiply(w, blk[:, k][None, :], out=buf[:, 1:])
            np.add.accumulate(buf, axis=1, out=buf)
            acc[:, k] = buf[:, -1]
    denom = np.maximum(counts, 1).astype(np.float64)
    out = np.where(counts[:, None] > 0, acc / denom[:, None], rows)
    return out, counts


def batch_step(rows, points, h, chunk_size):
    """Move each row to the mean of all points within distance ``h`` of it.

    Rows with an empty window stay put. Returns ``(new_rows, window_counts)``.
    Every (row, point) pair is distance-tested, so one call costs exactly
    ``rows.shape[0] * points.shape[0]`` distance evaluations.
    """
    rows = as_matrix(rows)
    points = as_matrix(points)
    h2 = h * h
    if _backend == "numba":
        return _batch_step_numba(rows, points, h2)
    return _batch_step_numpy(rows, points, h2, chunk_size)


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

if HAS_NUMBA:

    @njit(cache=True)
    def _greedy_prune_numba(cands, supports, h2):
        r, d = cands.shape
        accepted = np.empty(r, np.int64)
        acc_support = np.zeros(r, np.int64)
        n_acc = 0
        for i in range(r):
            nearest = -1
            nearest_d2 = np.inf
            inside = False
            for a in range(n_acc):
                j = accepted[a]
                dist2 = 0.0
                for k in range(d):
                    diff = cands[i, k] - cands[j, k]
                    dist2 += diff * diff
                if dist2 <= h2:
                    inside = True
                if dist2 < nearest_d2:
                    nearest_d2 = dist2
                    nearest = a
            if inside:
                acc_support[nearest] += supports[i]
            else:
                accepted[n_acc] = i
                acc_support[n_acc] = supports[i]
                n_acc += 1
        return accepted[:n_acc], acc_support[:n_acc]


def _greedy_prune_numpy(cands, supports, h2):
    accepted: list[int] = []
    acc_support: list[int] = []
    acc_pos = np.empty_like(cands)
    for i in range(cands.shape[0]):
        if accepted:
            d2 = sq_dist_block(cands[i:i + 1], acc_pos[:len(accepted)])[0]
            if bool((d2 <= h2).any()):
                acc_support[int(np.argmin(d2))] += int(supports[i])
                continue
        acc_pos[len(accepted)] = cands[i]
        accepted.append(i)
        acc_support.append(int(supports[i]))
    return (np.asarray(accepted, dtype=np.int64),
            np.asarray(acc_support, dtype=np.int64))


def greedy_prune(cands, supports, h):
    """Greedy accept-if-farther-than-h sweep over pre-sorted candidates.

    Returns ``(accepted_indices, accumulated_supports)``. A rejected
    candidate's support is folded into the nearest already-accepted one
    (first index on exact ties).
    """
    cands = as_matrix(cands)
    supports = np.ascontiguousarray(supports, dtype=np.int64)
    h2 = h * h
    if _backend == "numba":
        return _greedy_prune_numba(cands, supports, h2)
    return _greedy_prune_numpy(cands, supports, h2)


def row_sq_dist(a, b):
    """Per-row squared distance between two equally shaped matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    d2 = np.zeros(a.shape[0])
    for k in range(a.shape[1]):
        diff = a[:, k] - b[:, k]
        d2 += diff * diff
    return d2
