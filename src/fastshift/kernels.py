"""Hot numeric kernels; only the window step has two backends.

:func:`sq_dist` is every module's one numpy squared distance, and its
docstring the one statement of the coordinate fold order.

The window step (seed-vs-point window reductions) runs one group loop on
both backends, and only its inner kernel exists twice: a numba loop and
a pure numpy fallback. The loop is one plain function on every machine,
which numba compiles where it imports; where it does not, the loop runs
as plain python, which only the tests select, on small inputs, to check
its logic. :data:`BACKENDS`, the backends this machine can run with the
default first, is the one availability rule: ``FASTSHIFT_BACKEND`` picks
from it at import (any other value warns and keeps the default) and
:func:`set_backend` at runtime. Nearest-mode labels and greedy mode
pruning are numpy on both backends: each costs milliseconds next to the
window sweeps on the benchmark workloads, and a numba twin would be code
that cannot be measured where numba is missing.

The window fold, stated here once for both inner kernels: per row, the
in-window points are added in ascending index order into one running sum
per coordinate that starts at +0.0, the count is an exact integer, and
one division by it makes the mean. Chunks continue that one fold and
threads split only rows, so the bytes are the same for any
chunk size, any thread count and either backend.

A squared distance that overflows to inf is the right answer wherever a
kernel compares it, outside a window or farther than a mode, so the
window step, the labels and the pruning do not warn about it. A window
sum that overflows makes a wrong mean, and the window step raises
``RuntimeError`` rather than return it.

The window step tests each row only against the points of the cells
around it, found through the :func:`cell_index` of the points, built
once per run by the code that makes a ``core.Walkers``: the point order
plus, for each occupied cell only, its key and where its points start in
that order. One in-place sort of every point's key finds the occupied
cells, and a stable counting sort over them builds that order a block of
rows at a time; the keys are freed before the order exists, so the index
holds one int32 per point and no other n-sized array. Rows and points
share one cell key.
One sort of the rows by (key, bits) makes the blocks, one per key, and
steps each set of bit-identical rows once, since a row's result is a
function of its bits alone. The grid drops only points the kernel would
reject, so results are the brute-force bytes; callers still count every
row they pass (rows times points evaluations).

One scratch budget per block: :func:`row_blocks` sizes the blocks of
every block-shaped pass (the window step, the labels and the bandwidth
estimate) so that everything a block holds, its distances, differences,
weights, scan slots, copied columns and nearest modes, fits in one
pooled buffer of :data:`BLOCK_FLOATS` floats, or one row.
:data:`CHUNK_POINTS` caps the candidate points the window step folds at
a time, so the window step's whole tile is decided here. The window step
hands its numpy kernel a group's candidates as sorted indices, and the
kernel gathers each chunk's points into that same buffer, so no group's
candidate points are ever copied whole.
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
    # the window loop then runs as plain python, one row after another
    prange = range

# floats of scratch one block of a block-shaped pass may hold (512 KB), small
# enough to stay in cache; :func:`row_blocks` sizes every row block from it
BLOCK_FLOATS = 65_536

# candidate points per chunk of the window step; callers pass it to
# :func:`batch_step`, and it changes no bits
CHUNK_POINTS = 4096

# the backends this machine can run, the default first
BACKENDS = ("numba", "numpy") if HAS_NUMBA else ("numpy",)

_backend = (os.environ.get("FASTSHIFT_BACKEND", "").strip().lower()
            or BACKENDS[0])
if _backend not in BACKENDS:
    warnings.warn(f"FASTSHIFT_BACKEND={_backend} but {_backend} is not "
                  f"installed; falling back to {BACKENDS[0]}")
    _backend = BACKENDS[0]


def active_backend() -> str:
    """Name of the backend used by the kernel dispatchers."""
    return _backend


def set_backend(name: str) -> None:
    """Switch the window step's inner kernel to one of :data:`BACKENDS`."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    _backend = name


def set_threads(count: int) -> int:
    """Cap the numba worker-thread count, clamped to what the host allows.

    Returns the count actually applied. Thread count never changes results:
    parallelism is across rows and each row's reduction is sequential.
    """
    if count < 1:
        raise ValueError(f"thread count must be >= 1, got {count}")
    if not HAS_NUMBA:
        return 1
    applied = min(count, numba.config.NUMBA_NUM_THREADS)
    numba.set_num_threads(applied)
    return applied


def as_matrix(arr) -> np.ndarray:
    """Coerce to a C-contiguous float64 matrix without copying when possible."""
    return np.ascontiguousarray(arr, dtype=np.float64)


def row_blocks(n_rows, cols, shared=0):
    """Row slices over ``range(n_rows)``: a block's rows by ``cols`` float
    buffer, plus ``shared`` floats that do not grow with its rows, holds
    at most ``BLOCK_FLOATS`` entries, or one row."""
    step = max(1, (BLOCK_FLOATS - shared) // max(1, cols))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def sq_dist(a, b, out=None, diff=None):
    """Squared Euclidean distance along the last axis of ``a`` and ``b``.

    The leading axes broadcast: ``sq_dist(a[:, None], b)`` is the (rows of
    a) by (rows of b) matrix, ``sq_dist(a, b)`` pairs row i with row i,
    and ``sq_dist(a, p)`` measures every row of ``a`` from one point
    ``p``. At least one argument must have a leading axis. This is the
    one numpy distance fold: each entry folds its coordinates in ascending
    order into a zero start, the order the numba loop uses, so both
    backends compare the same bits against a radius. The first
    coordinate's square is stored as is, which is the same as adding it to
    zero, and each later square is added through one difference buffer
    reused across coordinates. ``out`` and ``diff``, when given, are
    buffers of the broadcast shape for the result and that difference.
    """
    diff = np.subtract(a[..., 0], b[..., 0], out=diff)
    d2 = np.multiply(diff, diff, out=out)
    for k in range(1, a.shape[-1]):
        np.subtract(a[..., k], b[..., k], out=diff)
        d2 += np.multiply(diff, diff, out=diff)
    return d2


# ---------------------------------------------------------------------------
# masked-mean window step
# ---------------------------------------------------------------------------


def _window_loop(rows, points, h2):
    """The numba backend's window step of ``rows`` over every row of
    ``points``, in the module's window fold: one pair at a time, rows in
    parallel where numba compiles it, plain python where it is missing."""
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


_batch_step_numba = (njit(cache=True, parallel=True)(_window_loop)
                     if HAS_NUMBA else _window_loop)


def scratch(pool, size):
    """The first ``size`` floats of the one buffer ``pool`` lists, grown
    when too small.

    One pool serves one call of a block loop (the window step, the labels,
    the bandwidth estimate), so all its blocks reuse the same memory: the
    time per pair then does not depend on how the allocator recycles
    freed blocks, which page-faults when it trims and regrows the heap.
    Growing frees the old buffer before it allocates.
    """
    if not pool or pool[0].size < size:
        pool.clear()
        pool.append(np.empty(size))
    return pool[0][:size]


def _batch_step_numpy_block(rows, points, h2, chunk_size, pool, take=None):
    """Window step of ``rows`` over the points ``points[take]`` (all of
    ``points`` when ``take`` is None) in chunks of at most ``chunk_size``
    points.

    The module's window fold, two coordinates per sequential scan: a
    complex slot holds coordinate 2p in its real part and 2p + 1 in its
    imaginary part, zero for an odd d's last slot, and complex addition is
    two independent double additions. Each chunk's scan starts from the
    running sum. Every point is added with a 0/1 weight, so an
    out-of-window point adds +-0.0. That changes no bits: a sum is -0.0
    only when both terms are, so the running sum is never -0.0, and adding
    a zero of either sign leaves it as it is. Counts are sums of 0/1
    floats, hence exact.

    A chunk of c points over the m rows holds a weight and a complex scan
    slot per pair, the running sums, and a contiguous copy of the chunk's
    d coordinate columns: ``(3m + d) * c + 2m`` floats in one pooled
    buffer, so the chunk is as long as ``BLOCK_FLOATS`` allows, at least
    one point. With ``take``, the chunk's points are gathered from
    ``points`` as c rows, behind their c indices, into the floats of the
    scan slots and weights, which are dead until the columns are copied
    out; those floats then number at least ``(d + 1) * c``. So the
    candidate points are never copied whole, and the gather holds nothing
    beyond the one buffer.
    """
    m, d = rows.shape
    n = points.shape[0] if take is None else take.size
    slots = 3 * m if take is None else max(3 * m, d + 1)
    chunk = max(1, min(chunk_size, (BLOCK_FLOATS - 2 * m) // (slots + d)))
    acc = np.zeros((m, (d + 1) // 2), np.complex128)
    counts = np.zeros(m)
    tally = np.empty(m)
    for lo in range(0, n, chunk):
        c = min(chunk, n - lo)
        if lo == 0 or c < chunk:
            # the views change only for a shorter last chunk
            step = scratch(pool, (slots + d) * c + 2 * m)
            split = 2 * m * (c + 1)
            # slot 0 carries the running sum into the scan; it also keeps
            # the row pitch off a power of two, which made the products
            # and the scan 5-15% slower at c = 4,096
            buf = step[:split].view(np.complex128).reshape(m, c + 1)
            first, real, imag = buf[:, 0], buf.real[:, 1:], buf.imag[:, 1:]
            # the difference is dead once the distances are summed, so it
            # reuses the scan's floats
            diff = step[:m * c].reshape(m, c)
            w = step[split:split + m * c].reshape(m, c)
            idx = step[:c].view(np.intp)
            gathered = step[c:(d + 1) * c].reshape(c, d)
            # contiguous columns: each read of a coordinate streams
            cols = step[slots * c + 2 * m:].reshape(d, c)
        if take is None:
            np.copyto(cols, points[lo:lo + c].T)
        else:
            # intp indices spare numpy its own copy of them, and valid
            # ones under "clip" spare it a copy of ``out``
            np.copyto(idx, take[lo:lo + c])
            np.copyto(cols, points.take(idx, axis=0, out=gathered,
                                        mode="clip").T)
        sq_dist(rows[:, None], cols.T, out=w, diff=diff)
        # the 0/1 window weights overwrite the distances they come from
        np.less_equal(w, h2, out=w)
        counts += np.add.reduce(w, axis=1, out=tally)
        for p in range(acc.shape[1]):
            first[:] = acc[:, p]
            np.multiply(w, cols[2 * p], out=real)
            if 2 * p + 1 < d:
                np.multiply(w, cols[2 * p + 1], out=imag)
            else:
                imag.fill(0.0)
            np.add.accumulate(buf, axis=1, out=buf)
            acc[:, p] = buf[:, -1]
    acc = acc.view(np.float64)[:, :d]
    counts = counts.astype(np.int64)
    denom = np.maximum(counts, 1).astype(np.float64)
    return np.where(counts[:, None] > 0, acc / denom[:, None], rows), counts


def _index_dtype(size):
    """int32 when every value below ``size`` fits in it, else int64."""
    return np.int32 if size <= 2 ** 31 else np.int64


def _keys(x, lo, side, axes, width):
    """Grid cell key ``major * width + minor``, as int64, of every row of
    ``x``: its cells on the first and the second key axis, each position
    clipped to ``[-2, 2**30]`` (exact, see :func:`cell_index`) and the
    minor cell clamped to ``[0, width)``, which only adds neighbour cells;
    with one key axis the key is the major cell."""
    # a position that overflows to +-inf is clipped like any far one
    with np.errstate(over="ignore"):
        pos = x[:, axes] - lo[axes]
        np.clip(np.divide(pos, side, out=pos), -2.0, 2.0 ** 30, out=pos)
    cells = np.floor(pos, out=pos).astype(np.int64)
    keys = cells[:, 0] * width
    if axes.size > 1:
        keys += np.clip(cells[:, 1], 0, width - 1)
    return keys


def cell_index(points, h):
    """Sort ``points`` once by grid cell for :func:`batch_step` at radius ``h``.

    Cells have side ``h * (1 + 2**-20)``, start at the points' per-axis
    minimum ``lo`` and are keyed on the two widest axes in axis order (the
    one axis when d = 1). Returns ``(lo, side, axes, width, cells, offsets,
    order)``: ``width`` is the number of minor cells, ``order`` sorts the
    points stably by cell key ``major * width + minor``, ``cells`` are the
    sorted keys of the occupied cells, and the points of ``cells[i]`` are
    ``order[offsets[i]:offsets[i + 1]]``, with ``offsets[-1]`` = n. Only
    ``order`` grows with n beyond the occupied cells. Returns ``None``
    when the grid is not exact: ``h * h`` is not a normal float, or a
    point's coordinate exceeds ``2**28 * h`` in magnitude or is NaN.

    ``order`` comes from a stable counting sort over the cells, a block
    of 4,096 rows at a time. Pass 1 sorts every point's key in place in
    one n-sized array, int32 while every key (below the number of major
    cells times ``width``) fits in it, else int64, and reads ``cells``
    and ``offsets`` from its runs. Pass 2, once those keys are freed,
    computes each block's keys again, ranks them against ``cells`` and
    writes the block's indices at each cell's next free place in
    ``order``, so a cell lists its points in index order. ``order`` is
    int32 while n fits in it, else int64; ``cells`` and ``offsets`` are
    int64. At 200K points the build holds the 0.8 MB keys (1.6 MB when
    int64), then the 0.8 MB ``order``, besides arrays a few times the
    occupied cells and one block's scratch.

    Exactness: the grid drops a point only when it is two or more cells
    from the row on a key axis. Every point lies in cells ``[0, 2**29 +
    2]``, and near them a computed cell position is off by under
    ``2**-23`` cells, so the exact gap on that axis exceeds ``h * (1 +
    2**-21)``, and the few roundings in the squared distance cannot bring
    it down to ``h * h``; a normal ``h * h`` keeps the squares clear of
    underflow. A row may lie anywhere finite: rounding is monotone, so a
    cell position at or past ``-2`` or ``2**30`` is more than a whole cell
    from every point, and so is the bound :func:`_keys` clips it to.
    """
    points = as_matrix(points)
    # one in-place read per column and extreme; a NaN fails the comparison
    lo = np.array([col.min(initial=np.inf) for col in points.T])
    hi = np.array([col.max(initial=-np.inf) for col in points.T])
    if not (np.isfinite(h * h) and h * h >= np.finfo(np.float64).tiny
            and points.shape[0] and hi.max() <= 2.0 ** 28 * h
            and -lo.min() <= 2.0 ** 28 * h):
        return None
    side = h * (1.0 + 2.0 ** -20)
    axes = np.sort(np.argsort(lo - hi, kind="stable")[:2])
    # the extreme point has the last cell on each axis: subtraction,
    # division and floor are monotone
    last = np.floor((hi - lo) / side)
    width = int(last[axes[1]]) + 1 if axes.size > 1 else 1
    grid = (lo, side, axes, width)
    n = points.shape[0]
    blocks = list(row_blocks(n, 16))
    # pass 1: every point's key in the narrowest dtype, sorted in place;
    # its runs are the occupied cells
    keys = np.empty(n, _index_dtype((int(last[axes[0]]) + 1) * width))
    for block in blocks:
        keys[block] = _keys(points[block], *grid)
    keys.sort()
    # a run starts where a key differs from the one before it
    offsets = np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [n]), dtype=np.int64)
    cells = keys[offsets[:-1]].astype(np.int64)
    del keys
    # pass 2: each block's points, stably sorted by cell, go to their
    # cells' next free places
    order = np.empty(n, _index_dtype(n))
    fill = offsets[:-1].copy()
    block_rows = blocks[0].stop
    for block in blocks:
        # a point's cell rank and its place in the block as one int64,
        # whose plain sort is stable and faster than a stable argsort
        rank = cells.searchsorted(_keys(points[block], *grid)) * block_rows
        rank += np.arange(rank.size)
        rank.sort()
        local = rank % block_rows + block.start
        rank //= block_rows
        heads = np.flatnonzero(np.concatenate(([True],
                                               rank[1:] != rank[:-1])))
        sizes = np.diff(heads, append=rank.size)
        at = rank[heads]
        order[np.repeat(fill[at] - heads, sizes)
              + np.arange(rank.size)] = local
        fill[at] += sizes
    return lo, side, axes, width, cells, offsets, order


def _gather(order, lows, highs):
    """The indices ``order[lows[i]:highs[i]]`` for every i, joined in
    ``order``'s dtype and sorted in place: one group's candidates in index
    order, four bytes each while ``order`` is int32. The numpy kernel
    gathers their points a chunk at a time."""
    take = np.concatenate([order[a:b] for a, b in zip(lows, highs)])
    take.sort()
    return take


def batch_step(rows, points, h, chunk_size, index=None):
    """Move each row to the mean of all points within distance ``h`` of it.

    Rows with an empty window stay put. Returns ``(new_rows, window_counts)``.
    ``index`` is the ``(lo, side, axes, width, cells, offsets, order)``
    of ``cell_index(points, h)``, built once per run and kept in the
    walkers' ``core.Walkers``; without it, all rows and points share one
    cell. Rows must be finite. A cell's rows are stepped over the
    points of its 3 by 3 neighbour cells in index order, found by
    searching ``cells`` and read from ``order`` through ``offsets``, so
    the bytes are those of testing every (row, point) pair. The numpy
    kernel gathers those points chunk by chunk from ``points`` through
    their sorted indices, and the numba kernel gets them copied once per
    group; when those cells hold every point, both read ``points``
    itself. Each set of bit-identical rows is stepped once, its result
    copied to the others. Callers count rows times points distance
    evaluations per call, whatever the grid and the deduplication save.
    """
    rows = as_matrix(rows)
    points = as_matrix(points)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite row(s), at index "
                         f"{bad[:8].tolist()}{' ...' * (bad.size > 8)}")
    h2 = h * h
    pool = []
    out = np.empty_like(rows)
    counts = np.empty(rows.shape[0], np.int64)
    n = points.shape[0]
    if index is None:
        # one cell holds every row and point, so each group's ranges cover
        # every point and no point order is needed
        width, cells, offsets, point_order = (1, np.zeros(1, np.int64),
                                              np.array([0, n]), None)
        key = np.zeros(rows.shape[0], np.int64)
    else:
        width, cells, offsets, point_order = index[3:]
        key = _keys(rows, *index[:4])
    # equal bits mean equal keys, so one sort by (key, bits) puts each
    # row's twins, the rows bit for bit equal to it, right after it;
    # comparing bits, not values, keeps 0.0 and -0.0 apart
    bits = rows.view(np.int64)
    order = np.lexsort((*bits.T, key))
    twin = np.zeros(order.size, bool)
    twin[1:] = (bits[order[1:]] == bits[order[:-1]]).all(axis=1)
    first = np.maximum.accumulate(np.where(twin, 0, np.arange(order.size)))
    twins, firsts = order[twin], order[first[twin]]
    distinct = order[~twin]
    key = key[distinct]
    new = np.ones(distinct.size, bool)
    new[1:] = key[1:] != key[:-1]
    heads = np.flatnonzero(new)
    # three ranges of cells per group, one per major neighbour cell, each
    # over the minor neighbour cells that exist, and the ranges of
    # ``point_order`` that hold their points
    minor = key[heads, None] % width
    base = key[heads, None] - minor + np.arange(-1, 2) * width
    starts = offsets[cells.searchsorted(base + np.maximum(minor - 1, 0),
                                        "left")]
    stops = offsets[cells.searchsorted(base + np.minimum(minor + 1,
                                                         width - 1), "right")]
    # only the output, the groups and one index per row outlive the sort
    del order, twin, first, key, new
    # a distance that overflows to inf is outside the window, as it is;
    # a window sum that overflows is a wrong mean, which the check after
    # the loop rejects
    with np.errstate(over="ignore"):
        for members, lows, highs in zip(np.split(distinct, heads[1:]),
                                        starts, stops):
            # the ranges are disjoint, so when they hold n points they hold
            # every point, in index order, and the kernels read ``points``
            take = None if (highs - lows).sum() == n else _gather(
                point_order, lows, highs)
            if _backend == "numba":
                # the numba loop holds no per-pair scratch, so a group is
                # one call and its rows spread over every thread
                out[members], counts[members] = _batch_step_numba(
                    rows[members], points if take is None else points[take],
                    h2)
            else:
                # rows are independent, so row blocks change no value;
                # they are sized so that a whole chunk of the numpy kernel
                # fits its budget, with the columns taking at most half
                cols = max(1, min(chunk_size,
                                  n if take is None else take.size,
                                  BLOCK_FLOATS // (2 * rows.shape[1])))
                for block in row_blocks(members.size, 3 * cols + 2,
                                        rows.shape[1] * cols):
                    sub = members[block]
                    out[sub], counts[sub] = _batch_step_numpy_block(
                        rows[sub], points, h2, chunk_size, pool, take)
            # the next group's gather must not find this one's still held
            del take
    # a twin's result is the one its first row got
    out[twins] = out[firsts]
    counts[twins] = counts[firsts]
    # finite rows have finite window means unless a sum overflowed
    if not np.isfinite(out).all():
        raise RuntimeError("overflow encountered in a window sum: a window "
                           "mean of finite points exceeds the float range")
    return out, counts


# ---------------------------------------------------------------------------
# nearest-mode labels
# ---------------------------------------------------------------------------


def nearest_labels(points, modes):
    """Index of the closest mode per point; ties go to the lower index."""
    points = as_matrix(points)
    modes = as_matrix(modes)
    m = modes.shape[0]
    labels = np.empty(points.shape[0], _index_dtype(m))
    # one pooled buffer holds a block's distances, its difference and its
    # nearest modes, so all three fit in BLOCK_FLOATS; argmin writes only
    # intp, which the labels take in their own dtype
    pool = []
    # a distance that overflows to inf is farther than any finite one
    with np.errstate(over="ignore"):
        for block in row_blocks(points.shape[0], 2 * m + 1):
            rows = points[block]
            r = rows.shape[0]
            buf = scratch(pool, (2 * m + 1) * r)
            d2, diff = buf[:2 * r * m].reshape(2, r, m)
            nearest = buf[2 * r * m:].view(np.intp)[:r]
            np.argmin(sq_dist(rows[:, None], modes, d2, diff), axis=1,
                      out=nearest)
            labels[block] = nearest
    return labels


# ---------------------------------------------------------------------------
# greedy mode pruning (hot for the per-point baseline, where every input
# point contributes a raw mode)
# ---------------------------------------------------------------------------


def greedy_prune(cands, h):
    """Greedy accept-if-farther-than-h sweep over pre-sorted candidates.

    Returns ``(accepted_indices, supports)``. Candidates are visited in
    the order given, each counting once. A candidate is accepted when no
    earlier accepted one lies within ``h``; otherwise it joins the nearest
    earlier accepted one (the earliest on exact ties). An accepted
    candidate's support is the count of candidates it holds, itself
    included. The loop runs once per accepted candidate: each one is
    distance-tested against every later candidate, which updates their
    nearest accepted mode so far and whether one lies within ``h``.
    """
    cands = as_matrix(cands)
    r = cands.shape[0]
    h2 = h * h
    owner = np.zeros(r, np.int64)       # position in ``accepted``
    nearest = np.full(r, np.inf)
    covered = np.zeros(r + 1, bool)     # entry r is never covered: the end
    accepted: list[int] = []
    i = 0
    # a distance that overflows to inf is farther than h, as it is
    with np.errstate(over="ignore"):
        while i < r:
            owner[i] = len(accepted)
            accepted.append(i)
            d2 = sq_dist(cands[i + 1:], cands[i])
            closer = d2 < nearest[i + 1:]
            np.copyto(nearest[i + 1:], d2, where=closer)
            np.copyto(owner[i + 1:], owner[i], where=closer)
            covered[i + 1:r] |= d2 <= h2
            # the next candidate to accept is the first later one not covered
            i += 1 + int(covered[i + 1:].argmin())
    support = np.bincount(owner, minlength=len(accepted)).astype(np.int64)
    return np.asarray(accepted, dtype=np.int64), support
