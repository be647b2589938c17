"""Backend contract: numba and numpy kernels agree bit for bit, and the
fold order makes results independent of chunking and threading.

Every backend test also runs a numba leg where numba is missing: the
window loop then runs as plain python, so its logic is checked on every
machine, on inputs about the size of ``ROWS`` by ``POINTS``."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastshift import kernels

from conftest import make_blobs, scalar_batch_step, scalar_greedy_prune

rng = np.random.default_rng(1234)
POINTS = rng.normal(size=(257, 3))
ROWS = POINTS[rng.choice(257, size=41, replace=False)] + 0.01
H = 0.9

BACKENDS = ["numpy", "numba"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    # set directly, since without numba ``kernels.BACKENDS`` offers only
    # numpy: no user can select the plain-python loop
    monkeypatch.setattr(kernels, "_backend", request.param)
    return request.param


# no index tests every pair; the built one is what core.Walkers holds
INDEXES = (None, kernels.cell_index(POINTS, H))


def test_batch_step_matches_scalar_loop_bitwise(backend):
    ref_out, ref_counts = scalar_batch_step(ROWS, POINTS, H)
    for index in INDEXES:
        out, counts = kernels.batch_step(ROWS, POINTS, H, 64, index)
        assert out.tobytes() == ref_out.tobytes()
        assert np.array_equal(counts, ref_counts)


def test_batch_step_chunk_size_invariant_bitwise(backend):
    for index in INDEXES:
        base, counts = kernels.batch_step(ROWS, POINTS, H, POINTS.shape[0],
                                          index)
        for chunk in (1, 7, 64, 4096):
            out, c = kernels.batch_step(ROWS, POINTS, H, chunk, index)
            assert out.tobytes() == base.tobytes(), f"chunk={chunk}"
            assert np.array_equal(c, counts)


def test_batch_step_backends_agree_bitwise(monkeypatch):
    monkeypatch.setattr(kernels, "_backend", "numba")
    a, ca = kernels.batch_step(ROWS, POINTS, H, 50)
    monkeypatch.setattr(kernels, "_backend", "numpy")
    b, cb = kernels.batch_step(ROWS, POINTS, H, 50)
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(ca, cb)


def test_batch_step_row_blocking_path_bitwise(monkeypatch):
    # enough rows per grid cell that some cell's group exceeds the numpy
    # row-block budget: m rows over a chunk of c points hold a weight and a
    # complex scan slot per pair, a running sum per row and the chunk's d
    # columns, (3m + d) * c + 2m floats, in BLOCK_FLOATS; with c =
    # min(chunk, candidates) a block holds (BLOCK_FLOATS - d * c) //
    # (3 * c + 2) rows
    big_rows = rng.normal(size=(1500, 2))
    pts = rng.normal(size=(3000, 2))
    monkeypatch.setattr(kernels, "_backend", "numpy")
    calls = []
    numpy_block = kernels._batch_step_numpy_block

    def spy(rows, points, h2, chunk_size, pool, take=None):
        cand = points if take is None else points[take]
        cols = min(chunk_size, cand.shape[0])
        budget = ((kernels.BLOCK_FLOATS - rows.shape[1] * cols)
                  // (3 * cols + 2))
        calls.append((rows.shape[0], budget))
        return numpy_block(rows, points, h2, chunk_size, pool, take)

    monkeypatch.setattr(kernels, "_batch_step_numpy_block", spy)
    index = kernels.cell_index(pts, 1.2)
    blocked, cb = kernels.batch_step(big_rows, pts, 1.2, 3000, index)
    # every call fits the budget, some take a whole row block, and together
    # they cover every row once
    assert all(r <= budget for r, budget in calls)
    assert any(r == budget for r, budget in calls)
    assert sum(r for r, _ in calls) == big_rows.shape[0]
    ref, cr = scalar_batch_step(big_rows[:13], pts, 1.2)
    assert blocked[:13].tobytes() == ref.tobytes()
    # 1,500 rows over 3,000 points take many seconds in the plain-python
    # loop, so only the compiled one runs them
    if kernels.HAS_NUMBA:
        monkeypatch.setattr(kernels, "_backend", "numba")
        nb, cn = kernels.batch_step(big_rows, pts, 1.2, 3000, index)
        assert blocked.tobytes() == nb.tobytes()
        assert np.array_equal(cb, cn)


def test_batch_step_empty_window_keeps_row(backend):
    # 1e6 is inside the points' reach (2**28 * H) and 1e9 beyond it, where
    # the row's cell positions are clipped; either way the row gets an
    # empty candidate set. A row far out on one axis alone gets its minor
    # cell clamped to the grid, so its candidates are edge cells the
    # kernel rejects
    index = kernels.cell_index(POINTS, H)
    assert index is not None
    for coord, inside in ((1e6, True), (1e9, False)):
        far = np.concatenate([np.full((1, 3), coord),
                              np.eye(3) * coord, -np.eye(3) * coord])
        assert (coord <= 2.0 ** 28 * H) is inside
        out, counts = kernels.batch_step(far, POINTS, H, 64, index)
        assert not counts.any()
        assert out.tobytes() == far.tobytes()


@settings(max_examples=200)
@given(data=st.data())
def test_batch_step_grid_matches_scalar_on_cell_boundaries(data):
    # points on integer multiples of h sit on cell corners, and rows exactly
    # +-h off a point put window edges on them: the grid must drop no point
    # the brute-force test accepts, nor keep a stray +-0.0 in the fold
    d = data.draw(st.integers(1, 3), label="d")
    h = data.draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5]), label="h")
    n = data.draw(st.integers(1, 40), label="n")
    ints = data.draw(st.lists(st.integers(-4, 4), min_size=n * d,
                              max_size=n * d), label="cells")
    pts = np.array(ints, dtype=np.float64).reshape(n, d) * h
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=8), label="rows")
    offs = data.draw(st.lists(st.sampled_from([-h, 0.0, h]),
                              min_size=len(picks) * d,
                              max_size=len(picks) * d), label="offsets")
    rows = pts[picks] + np.array(offs).reshape(len(picks), d)
    chunk = data.draw(st.sampled_from([1, 3, 64]), label="chunk")
    index = kernels.cell_index(pts, h)
    assert index is not None
    ref, ref_counts = scalar_batch_step(rows, pts, h)
    # brute force, and over the index a run builds once for its walkers
    for given in (None, index):
        out, counts = kernels.batch_step(rows, pts, h, chunk, given)
        assert out.tobytes() == ref.tobytes()
        assert np.array_equal(counts, ref_counts)


@settings(max_examples=300)
@given(data=st.data())
def test_batch_step_d_dimensional_matches_scalar(data):
    # the numpy kernel folds two coordinates per complex scan slot: odd d
    # pads the last slot, d >= 3 folds several slots, and chunks 1 and 3
    # carry every slot's running sum across chunk boundaries. Points come
    # from a few distinct ones, so windows hold several; integer multiples
    # of h sit on cell corners, rows +-h off a point on one axis put window
    # edges on them, and a -0.0 coordinate must leave no trace in a sum
    d = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8]), label="d")
    h = data.draw(st.sampled_from([0.3, 1.0, 2.5]), label="h")
    coord = st.one_of(st.integers(-2, 2).map(lambda i: i * h),
                      st.floats(-h, h, allow_subnormal=False))
    k = data.draw(st.integers(1, 6), label="distinct")
    pool = np.array(data.draw(st.lists(coord, min_size=k * d,
                                       max_size=k * d), label="pool"),
                    dtype=np.float64).reshape(k, d)
    picks = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                               max_size=40), label="points")
    pts = pool[picks]
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=pts.size,
                                       max_size=pts.size), label="signs"))
    pts[(pts == 0.0) & flip.reshape(pts.shape)] = -0.0
    m = data.draw(st.integers(1, 8), label="m")
    rows = pts[data.draw(st.lists(st.integers(0, len(picks) - 1),
                                  min_size=m, max_size=m), label="rows")]
    axes = data.draw(st.lists(st.integers(0, d - 1), min_size=m,
                              max_size=m), label="axes")
    offs = data.draw(st.lists(st.sampled_from([-h, 0.0, h]), min_size=m,
                              max_size=m), label="offsets")
    rows[np.arange(m), axes] += offs
    chunk = data.draw(st.sampled_from([1, 3, 64]), label="chunk")
    index = kernels.cell_index(pts, h)
    assert index is not None
    ref, ref_counts = scalar_batch_step(rows, pts, h)
    for given in (None, index):
        out, counts = kernels.batch_step(rows, pts, h, chunk, given)
        assert out.tobytes() == ref.tobytes()
        assert np.array_equal(counts, ref_counts)


@settings(max_examples=200)
@given(data=st.data())
def test_batch_step_twin_rows_match_scalar(data):
    # rows drawn with repeats, some with a zero coordinate flipped to -0.0:
    # bit-identical rows share one step, and rows equal only as values
    # (0.0 == -0.0) must each keep their own bits, in a window or not
    d = data.draw(st.integers(1, 3), label="d")
    h = data.draw(st.sampled_from([0.3, 1.0, 2.5]), label="h")
    n = data.draw(st.integers(1, 30), label="n")
    ints = data.draw(st.lists(st.integers(-4, 4), min_size=n * d,
                              max_size=n * d), label="cells")
    pts = np.array(ints, dtype=np.float64).reshape(n, d) * (h / 2)
    k = data.draw(st.integers(1, 4), label="distinct")
    pool = np.array(data.draw(st.lists(st.sampled_from([-4, -2, 0, 0, 1, 40]),
                                       min_size=k * d, max_size=k * d),
                              label="pool"), dtype=np.float64).reshape(k, d)
    picks = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                               max_size=12), label="rows")
    rows = pool[picks] * (h / 2)
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=rows.size,
                                       max_size=rows.size), label="signs"))
    rows[(rows == 0.0) & flip.reshape(rows.shape)] = -0.0
    chunk = data.draw(st.sampled_from([1, 3, 64]), label="chunk")
    ref, ref_counts = scalar_batch_step(rows, pts, h)
    for index in (None, kernels.cell_index(pts, h)):
        out, counts = kernels.batch_step(rows, pts, h, chunk, index)
        assert out.tobytes() == ref.tobytes()
        assert np.array_equal(counts, ref_counts)


def test_batch_step_empty_window_keeps_sign_of_zero(backend):
    # the rows are equal as values but not as bits; neither window holds a
    # point, so each row comes back as it went in
    rows = np.array([[-0.0, 1e6], [0.0, 1e6]])
    pts = POINTS[:, :2]
    for index in (None, kernels.cell_index(pts, H)):
        out, counts = kernels.batch_step(rows, pts, H, 64, index)
        assert counts.tolist() == [0, 0]
        assert out.tobytes() == rows.tobytes()


def test_batch_step_steps_each_distinct_row_once(monkeypatch):
    # five copies of every row, in scrambled order, plus a -0.0 variant:
    # the kernel sees each distinct bit pattern exactly once
    points, _, _ = make_blobs(n=3000, k=10, sigma=0.1, seed=3)
    base = np.concatenate([points.data[::60], [[0.0, 0.0], [-0.0, 0.0]]])
    rows = np.tile(base, (5, 1))[rng.permutation(5 * base.shape[0])]
    monkeypatch.setattr(kernels, "_backend", "numpy")
    seen = []
    numpy_block = kernels._batch_step_numpy_block

    def spy(r, *rest):
        seen.extend(map(bytes, r))
        return numpy_block(r, *rest)

    monkeypatch.setattr(kernels, "_batch_step_numpy_block", spy)
    ref, ref_counts = scalar_batch_step(rows, points.data, 0.3)
    for index in (None, kernels.cell_index(points.data, 0.3)):
        seen.clear()
        out, counts = kernels.batch_step(rows, points.data, 0.3, 4096, index)
        assert sorted(seen) == sorted(map(bytes, base))
        assert out.tobytes() == ref.tobytes()
        assert np.array_equal(counts, ref_counts)


def test_batch_step_twins_cost_no_memory(monkeypatch):
    # the rows crowd a few cells, so the kernel's scratch blocks are full
    # in every case and the peaks differ only by what batch_step keeps per
    # row: its output row and count, and one index into the row sort
    monkeypatch.setattr(kernels, "_backend", "numpy")
    gen = np.random.default_rng(5)
    pts = gen.normal(0.0, 0.05, size=(2000, 2))
    index = kernels.cell_index(pts, 0.5)
    half = gen.normal(0.0, 0.05, size=(2500, 2))

    def peak(rows):
        tracemalloc.start()
        try:
            kernels.batch_step(rows, pts, 0.5, 4096, index)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_row = half.itemsize * (half.shape[1] + 2)
    alone = peak(half)
    # the other half one ulp away: 5,000 distinct rows in the same cells
    distinct = peak(np.concatenate([half, np.nextafter(half, np.inf)]))
    twins = peak(np.concatenate([half, half]))
    assert distinct <= alone + half.shape[0] * per_row + 4096, (distinct,
                                                                alone)
    # a twin may cost one more index, for the row it copies
    assert twins <= distinct + half.shape[0] * 8 + 4096, (twins, distinct)


def test_batch_step_scratch_stays_two_blocks(monkeypatch):
    # all rows and points share one grid cell, so one group of 2,000 rows
    # over 3,000 candidates fills whole row blocks. The kernel's scratch,
    # a weight and a complex scan slot per pair and the chunk's columns,
    # is one BLOCK_FLOATS budget; the rest grows with the rows (output,
    # count, sort indices): here 15 B per row and candidate
    monkeypatch.setattr(kernels, "_backend", "numpy")
    gen = np.random.default_rng(9)
    pts = gen.uniform(0.0, 0.9, size=(3000, 2))
    pts[0] = 0.0
    rows = gen.uniform(0.0, 0.9, size=(2000, 2))
    index = kernels.cell_index(pts, 1.0)
    # exactly one occupied cell, key 0, holding all 3,000 points
    assert index[4].tolist() == [0] and index[5].tolist() == [0, 3000]
    tracemalloc.start()
    try:
        kernels.batch_step(rows, pts, 1.0, 4096, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernels.BLOCK_FLOATS * 8 + 64 * (2000 + 3000), peak


@pytest.mark.parametrize("d, n_rows, h", [(8, 40, 3.0), (50, 20, 9.5)])
def test_batch_step_wide_rows_bitwise_within_budget(monkeypatch, d, n_rows,
                                                    h):
    # at d = 50 the columns of a 4,096-point chunk alone would take three
    # budgets, so the kernel shrinks the chunk (to 668 points for 16 rows)
    # and the scratch stays one BLOCK_FLOATS budget; numpy may add its two
    # 8,192-element ufunc buffers, and the rest grows with the rows
    monkeypatch.setattr(kernels, "_backend", "numpy")
    gen = np.random.default_rng(d)
    pts = gen.normal(size=(2000, d))
    rows = pts[:n_rows] + 0.01
    ref, ref_counts = scalar_batch_step(rows, pts, h)
    kernels.batch_step(rows, pts, h, 4096)
    tracemalloc.start()
    try:
        out, counts = kernels.batch_step(rows, pts, h, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(counts, ref_counts) and counts.min() > 1
    assert peak <= (kernels.BLOCK_FLOATS + 2 * 8192) * 8 + 64 * rows.size, peak


def test_batch_step_without_grid_reads_points_in_place(monkeypatch):
    # points near 1e9 are beyond the grid's reach at h = 0.5, so every row
    # shares one cell with all 200K points: the kernel reads them where
    # they are, and the peak is its two scratch blocks, not a copy of them
    monkeypatch.setattr(kernels, "_backend", "numpy")
    gen = np.random.default_rng(11)
    pts = 1e9 + gen.uniform(0.0, 100.0, size=(200_000, 2))
    rows = pts[gen.choice(pts.shape[0], size=64, replace=False)]
    assert kernels.cell_index(pts, 0.5) is None
    tracemalloc.start()
    try:
        kernels.batch_step(rows, pts, 0.5, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def test_batch_step_grid_coordinate_limit_bitwise(backend):
    h = 0.3
    reach = 2.0 ** 28 * h
    grid = np.arange(-3, 4) * h
    for edge, gridded in ((reach, True), (np.nextafter(reach, np.inf), False)):
        # a lattice whose corner sits on the limit, plus its mirror far away
        near_edge = np.array([[edge - a * h / 2, b] for a in range(8)
                              for b in grid])
        pts = np.concatenate([near_edge, -near_edge[::5]])
        rows = np.concatenate([near_edge[::3] - [h, 0.0],
                               near_edge[1::4] + [0.0, h], -near_edge[:2]])
        index = kernels.cell_index(pts, h)
        assert (index is not None) is gridded
        assert bool(np.abs(rows).max() <= reach) is gridded
        out, counts = kernels.batch_step(rows, pts, h, 16, index)
        ref, ref_counts = scalar_batch_step(rows, pts, h)
        assert out.tobytes() == ref.tobytes(), f"edge={edge!r}"
        assert np.array_equal(counts, ref_counts)


def test_batch_step_keys_beyond_int32_bitwise(backend, monkeypatch):
    # two clusters about 2**27 cells apart on both key axes: major cells
    # times minor cells exceed int32, so the point keys are int64, while
    # the point order still fits int32; the grid gives the brute-force bytes
    assert kernels._index_dtype(2 ** 31) is np.int32
    assert kernels._index_dtype(2 ** 31 + 1) is np.int64
    h = 0.3
    far = 2.0 ** 27 * h
    near = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, -0.2], [h, h], [-h, 0.0]])
    pts = np.concatenate([near, near + far])
    rows = np.concatenate([near + [0.05, 0.1], near + far - [h, 0.0]])
    dtypes = []
    keys = kernels._keys

    def spy(*args):
        out = keys(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(kernels, "_keys", spy)
    index = kernels.cell_index(pts, h)
    assert index is not None
    # one row block, keyed once per pass of the counting sort, which gives
    # the cells, offsets and order of a stable argsort
    assert dtypes == [np.int64, np.int64]
    assert index[6].dtype == np.int32
    for got, want in zip(index[4:], _argsort_cell_index(pts, h)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    out, counts = kernels.batch_step(rows, pts, h, 4, index)
    ref, ref_counts = kernels.batch_step(rows, pts, h, 4)
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(counts, ref_counts)
    assert counts.min() >= 1


def test_cell_index_200k_keeps_an_int32_order():
    # the index holds one int32 per point, and the counting sort that
    # builds it holds no intp order: its n-sized int32 keys are freed
    # before the order exists, so the peak is the 0.8 MB order plus a
    # block's scratch, and it rises by at most 0.45 times the points'
    # bytes (0.34 measured; 0.77 with an argsort)
    points, _, _ = make_blobs(n=200_000, k=10, sigma=0.1, seed=42)
    kernels.cell_index(points.data[:2000], 0.3)
    tracemalloc.start()
    try:
        index = kernels.cell_index(points.data, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index[6].dtype == np.int32
    assert index[4].dtype == index[5].dtype == np.int64
    assert peak <= 0.45 * points.data.nbytes, peak / points.data.nbytes


@pytest.mark.parametrize("case, bound", [
    # 200K uniform points at h = 1e-3, about one per cell (195,094 cells):
    # pass 2's order, fill, cells and offsets set the peak, 1.83 times
    # the points' bytes (2.57 with the merged per-block uniques)
    ("one_point_per_cell", 1.92),
    # two tight blobs 2**27 cells apart, 9 cells: the keys need int64, so
    # pass 1 holds 8 bytes per point and peaks at 0.57 times the points
    # (0.34 with the merged per-block uniques, the one costlier case)
    ("int64_keys", 0.59),
])
def test_cell_index_200k_build_peak(case, bound):
    # bounds are the measured peak plus 5%
    gen = np.random.default_rng(0)
    if case == "one_point_per_cell":
        h, pts = 1e-3, gen.uniform(-1.0, 1.0, size=(200_000, 2))
    else:
        h, pts = 0.3, gen.normal(0.0, 0.05, size=(200_000, 2))
        pts[::2] += 2.0 ** 27 * h
    kernels.cell_index(pts[:2000], h)
    tracemalloc.start()
    try:
        index = kernels.cell_index(pts, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index[6].dtype == np.int32
    assert peak <= bound * pts.nbytes, peak / pts.nbytes


def _argsort_cell_index(points, h):
    """``cell_index``'s cells, offsets and order from one stable argsort
    of every point's int64 key, on the grid ``cell_index`` chose."""
    lo, side, axes, width = kernels.cell_index(points, h)[:4]
    keys = kernels._keys(points, lo, side, axes, width)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    offsets = np.append(starts, keys.size).astype(np.int64)
    return (keys[starts], offsets,
            order.astype(kernels._index_dtype(order.size)))


@settings(max_examples=60)
@given(d=st.integers(1, 3), n=st.one_of(st.integers(1, 60),
                                        st.integers(4000, 13_000)),
       h=st.sampled_from([0.1, 0.3, 1.0]), sites=st.integers(1, 50),
       spread=st.sampled_from([1.0, 20.0]), far=st.booleans(),
       sparse=st.one_of(st.none(), st.integers(4097, 16_384)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cell_index_counting_sort_matches_a_stable_argsort(d, n, h, sites,
                                                           spread, far,
                                                           sparse, seed):
    # points drawn with repeats from a few sites around the origin, so
    # cells hold many points and coordinates go negative; n spans one to
    # four row blocks of 4,096. A ``sparse`` draw is that many points,
    # two to four row blocks, uniform over a box of about 8 cells per
    # point on the key axes, so most occupied cells hold one point and
    # the sorted keys are nearly all distinct. Half the points moved
    # 2**27 cells away on every axis make keys beyond int32 when d > 1
    gen = np.random.default_rng(seed)
    if sparse is None:
        pool = gen.uniform(-spread, spread, size=(sites, d))
        pts = pool[gen.integers(0, sites, size=n)]
        pts += gen.normal(0.0, h / 4, size=pts.shape) * gen.integers(
            0, 2, n)[:, None]
    else:
        box = h * (8 * sparse) ** (1 / min(d, 2)) / 2
        pts = gen.uniform(-box, box, size=(sparse, d))
    if far:
        pts[::2] += 2.0 ** 27 * h
    index = kernels.cell_index(pts, h)
    assert index is not None
    for got, want in zip(index[4:], _argsort_cell_index(pts, h)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=300)
@given(data=st.data())
def test_neighbour_ranges_hold_exactly_the_neighbour_cells(data):
    # each row coordinate is a cell edge of the grid, a point's coordinate
    # or one h off it, or far beyond the grid's reach, so rows sit on cell
    # edges and corners and get clipped major and clamped minor cells. A
    # row's three ranges are disjoint and hold exactly the points whose
    # major cell is within one of the row's and whose minor cell is within
    # one of the row's, both worked out from ``_keys`` of every point
    d = data.draw(st.integers(1, 3), label="d")
    h = data.draw(st.sampled_from([0.3, 1.0]), label="h")
    n = data.draw(st.integers(1, 40), label="n")
    ints = data.draw(st.lists(st.integers(-4, 4), min_size=n * d,
                              max_size=n * d), label="cells")
    pts = np.array(ints, dtype=np.float64).reshape(n, d) * h
    index = kernels.cell_index(pts, h)
    assert index is not None
    lo, side, _, width, _, _, order = index
    m = data.draw(st.integers(1, 8), label="m")
    coord = st.one_of(
        st.integers(-3, 10).map(lambda i: ("edge", i)),
        st.tuples(st.integers(0, n - 1), st.sampled_from([-h, 0.0, h])),
        st.sampled_from([2.0 ** 31 * h, 1e300, -1e300]).map(
            lambda x: ("far", x)))
    rows = np.empty((m, d))
    for r in range(m):
        for k in range(d):
            kind, value = data.draw(coord, label="coord")
            if kind == "edge":
                rows[r, k] = lo[k] + value * side
            elif kind == "far":
                rows[r, k] = value
            else:
                rows[r, k] = pts[kind, k] + value
    row_keys = kernels._keys(rows, *index[:4])
    point_keys = kernels._keys(pts, *index[:4])
    starts, stops = kernels._neighbour_ranges(index, row_keys)
    assert starts.shape == stops.shape == (m, 3)
    assert (starts <= stops).all() and (stops[:, :-1] <= starts[:, 1:]).all()
    for key, a, b in zip(row_keys, starts, stops):
        near = ((np.abs(point_keys // width - key // width) <= 1)
                & (np.abs(point_keys % width - key % width) <= 1))
        got = np.concatenate([order[i:j] for i, j in zip(a, b)])
        assert np.array_equal(np.sort(got), np.flatnonzero(near))


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_cell_keys_every_row_to_zero_and_covers_every_point(d, n):
    index = kernels._one_cell(n, d)
    rows = np.array([[1e308] * d, [-1e308] * d, [0.0] * d, [-0.0] * d,
                     [1e308, -0.0, -1e308][:d]])
    keys = kernels._keys(rows, *index[:4])
    assert keys.tolist() == [0] * rows.shape[0]
    starts, stops = kernels._neighbour_ranges(index, keys)
    for a, b in zip(starts, stops):
        assert sorted(i for lo, hi in zip(a, b) for i in range(lo, hi)) \
            == list(range(n))


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_batch_step_chunk_gather_matches_scalar_bitwise(monkeypatch, d,
                                                        chunk):
    # the numpy kernel gathers each chunk of a group's candidates from the
    # points through their indices; single rows at d = 5 gather more
    # floats than their scan slots hold, which the chunk length absorbs
    monkeypatch.setattr(kernels, "_backend", "numpy")
    gen = np.random.default_rng(d)
    pts = np.concatenate([gen.normal(c, 0.3, size=(300, d))
                          for c in (-4.0, 0.0, 4.0)])
    pts[gen.integers(0, pts.shape[0], 40)] *= -1.0
    rows = np.concatenate([pts[::37] + 0.05, pts[:1] + 6.0])
    takes = []
    numpy_block = kernels._batch_step_numpy_block

    def spy(r, p, h2, chunk_size, pool, take=None):
        takes.append(take is not None and take.size < p.shape[0])
        return numpy_block(r, p, h2, chunk_size, pool, take)

    monkeypatch.setattr(kernels, "_batch_step_numpy_block", spy)
    ref, ref_counts = scalar_batch_step(rows, pts, 1.0)
    out, counts = kernels.batch_step(rows, pts, 1.0, chunk,
                                     kernels.cell_index(pts, 1.0))
    assert takes and all(takes)
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(counts, ref_counts)


def test_batch_step_200k_copies_no_candidates(monkeypatch):
    # beside the points and their index, the window step holds one scratch
    # budget, a group's int32 candidate indices and what grows with the
    # rows, and numpy may add its two 8,192-element ufunc buffers: 0.70 MB
    # measured. A copy of a group's candidate points would add 16 bytes
    # per candidate, 0.32 MB here (0.98 MB measured with it)
    monkeypatch.setattr(kernels, "_backend", "numpy")
    points, _, _ = make_blobs(n=200_000, k=10, sigma=0.1, seed=42)
    index = kernels.cell_index(points.data, 0.3)
    rows = points.data[::400]
    sizes = []
    numpy_block = kernels._batch_step_numpy_block

    def spy(r, p, h2, chunk_size, pool, take=None):
        assert take.dtype == np.int32
        sizes.append(take.size)
        return numpy_block(r, p, h2, chunk_size, pool, take)

    monkeypatch.setattr(kernels, "_batch_step_numpy_block", spy)
    kernels.batch_step(rows, points.data, 0.3, 4096, index)
    monkeypatch.undo()
    monkeypatch.setattr(kernels, "_backend", "numpy")
    tracemalloc.start()
    try:
        kernels.batch_step(rows, points.data, 0.3, 4096, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ((kernels.BLOCK_FLOATS + 2 * 8192) * 8 + 4 * max(sizes)
                    + 64 * rows.size), (peak, max(sizes))


def test_cell_index_reach_reads_columns_in_place():
    # the bounds are read column by column in place: at 200K points out of
    # reach nothing n-sized is made before the grid is refused. The reach
    # is inclusive, and a NaN is never within it
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(200_000, 2))
    h = 2.0 ** -29
    kernels.cell_index(pts, h)
    tracemalloc.start()
    try:
        assert kernels.cell_index(pts, h) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096, peak
    reach = 2.0 ** 28 * 0.3
    for x, gridded in (([[reach, -reach]], True),
                       ([[np.nextafter(reach, np.inf), 0.0]], False),
                       ([[0.0, -np.nextafter(reach, np.inf)]], False),
                       ([[0.0, np.nan]], False), ([[np.nan, 0.0]], False),
                       (np.empty((0, 2)), False)):
        assert (kernels.cell_index(np.asarray(x), 0.3) is not None) is gridded


@settings(max_examples=150)
@given(data=st.data())
def test_batch_step_far_rows_match_scalar_on_the_grid(data):
    # rows anywhere finite, out to +-1e300 * h on one axis or on all of
    # them, are keyed on the grid with their cell positions clipped: the
    # bytes are the brute-force ones, no numpy warning is raised, and the
    # kernel gets fewer pairs than rows times points on clustered points
    d = data.draw(st.integers(1, 3), label="d")
    h = data.draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5]), label="h")
    sites = data.draw(st.integers(2, 4), label="sites")
    gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    # clusters 8 h apart on every axis, so no row's cells hold every point
    centres = np.repeat(np.arange(sites)[:, None] * 8.0 * h, d, axis=1)
    pts = centres[gen.integers(0, sites, 40)] + gen.uniform(-h, h, (40, d))
    m = data.draw(st.integers(1, 8), label="m")
    rows = pts[gen.integers(0, pts.shape[0], m)] + gen.uniform(-h, h, (m, d))
    # in units of h: near the points and the -2 clip bound, around the
    # 2**30 one, and far beyond it
    scale = st.one_of(st.floats(0.0, 4.0), st.floats(2.0 ** 27, 2.0 ** 31),
                      st.floats(2.0 ** 31, 1e300))
    for r in range(m):
        far = data.draw(scale, label="far") * h * data.draw(
            st.sampled_from([-1.0, 1.0]), label="sign")
        if data.draw(st.booleans(), label="every axis"):
            rows[r] = far
        else:
            rows[r, data.draw(st.integers(0, d - 1), label="axis")] = far
    chunk = data.draw(st.sampled_from([1, 7, 4096]), label="chunk")
    index = kernels.cell_index(pts, h)
    assert index is not None
    pairs = []
    numpy_block = kernels._batch_step_numpy_block

    def spy(r, p, h2, chunk_size, pool, take=None):
        pairs.append(r.shape[0] * (p.shape[0] if take is None else take.size))
        return numpy_block(r, p, h2, chunk_size, pool, take)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(kernels, "_backend", "numpy")
        mp.setattr(kernels, "_batch_step_numpy_block", spy)
        warnings.simplefilter("error")
        out, counts = kernels.batch_step(rows, pts, h, chunk, index)
    # the reference's squares of far rows overflow to inf, as they should
    with np.errstate(over="ignore"):
        ref, ref_counts = scalar_batch_step(rows, pts, h)
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(counts, ref_counts)
    assert sum(pairs) < m * pts.shape[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_step_rejects_non_finite_rows(backend, bad):
    # a non-finite row has no window mean: it is named up front, with or
    # without an index, rather than met as an overflow after the sweep
    rows = ROWS.copy()
    rows[[3, 17], 1] = bad
    for index in INDEXES:
        with pytest.raises(ValueError, match=r"2 non-finite row\(s\), at "
                                             r"index \[3, 17\]"):
            kernels.batch_step(rows, POINTS, H, 64, index)


def test_batch_step_overflow_raises_only_for_a_wrong_mean(backend):
    # squared distances between points near +-1e307 overflow to inf, which
    # is outside the window: no warning, no error, and each row keeps its
    # own point. 100 copies of one such point overflow their window sum, a
    # wrong mean that raises, on either backend
    pts = np.array([[1e307, 0.0], [-1e307, 0.0], [0.0, 1e307]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, counts = kernels.batch_step(pts, pts, 1.0, 64)
    assert out.tobytes() == pts.tobytes() and counts.tolist() == [1, 1, 1]
    crowd = np.concatenate([np.repeat(pts[:1], 100, axis=0), pts[1:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="overflow encountered in a "
                                               "window sum"):
            kernels.batch_step(pts, crowd, 1.0, 64)


def test_batch_step_underflowing_window_tests_every_point(backend):
    # h * h underflows to 0, so the kernel accepts a point 2.5 h away whose
    # square underflows too; the grid would drop it, so it must stand aside
    h = 1e-170
    pts = np.array([[0.0], [2.5e-170]])
    rows = np.array([[0.0]])
    assert kernels.cell_index(pts, h) is None
    out, counts = kernels.batch_step(rows, pts, h, 64)
    ref, ref_counts = scalar_batch_step(rows, pts, h)
    assert counts.tolist() == ref_counts.tolist() == [2]
    assert out.tobytes() == ref.tobytes()


def test_batch_step_grid_prunes_candidates(monkeypatch):
    # a protocol window holds about one of 10 separated blobs; a silent
    # fall back to testing every pair would pass the rows times n here
    points, _, _ = make_blobs(n=3000, k=10, sigma=0.1, seed=3)
    rows = points.data[::50]
    monkeypatch.setattr(kernels, "_backend", "numpy")
    pairs = []
    numpy_block = kernels._batch_step_numpy_block

    def spy(r, p, h2, chunk_size, pool, take=None):
        cand = p if take is None else p[take]
        pairs.append(r.shape[0] * cand.shape[0])
        return numpy_block(r, p, h2, chunk_size, pool, take)

    monkeypatch.setattr(kernels, "_batch_step_numpy_block", spy)
    out, counts = kernels.batch_step(rows, points.data, 0.3, 4096,
                                     kernels.cell_index(points.data, 0.3))
    assert sum(pairs) < rows.shape[0] * points.n / 4
    ref, ref_counts = scalar_batch_step(rows, points.data, 0.3)
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(counts, ref_counts)


def test_batch_step_numba_kernel_gets_grid_blocks(monkeypatch):
    # both backends run the same block loop: the numba kernel gets exactly
    # the numpy kernel's blocks, which together hold every row once
    points, _, _ = make_blobs(n=3000, k=10, sigma=0.1, seed=3)
    rows = points.data[::50]
    index = kernels.cell_index(points.data, 0.3)

    def blocks_of(backend, name):
        seen = []
        step = getattr(kernels, name)

        # the numpy kernel gathers its candidates ``p[take]`` chunk by
        # chunk, and the numba kernel gets them copied once per group
        def kernel(r, p, h2, *rest):
            take = rest[2] if len(rest) > 2 else None
            cand = p if take is None else p[take]
            seen.append((r.tobytes(), cand.tobytes(), h2))
            return step(r, p, h2, *rest)

        monkeypatch.setattr(kernels, "_backend", backend)
        monkeypatch.setattr(kernels, name, kernel)
        out, _ = kernels.batch_step(rows, points.data, 0.3, 4096, index)
        return seen, out

    numpy_seen, numpy_out = blocks_of("numpy", "_batch_step_numpy_block")
    numba_seen, numba_out = blocks_of("numba", "_batch_step_numba")
    assert numba_seen == numpy_seen
    assert len(numba_seen) > 1 and all(h2 == 0.3 * 0.3
                                       for _, _, h2 in numba_seen)
    # grid blocks: no block's candidates are all the points
    assert all(len(p) < points.data.nbytes for _, p, _ in numba_seen)
    member_rows = np.concatenate([np.frombuffer(r).reshape(-1, 2)
                                  for r, _, _ in numba_seen])
    assert sorted(map(bytes, member_rows)) == sorted(map(bytes, rows))
    assert numba_out.tobytes() == numpy_out.tobytes()


def test_row_blocks_bound_every_buffer():
    for n_rows, cols in ((0, 5), (1, 1), (1000, 300), (7, 10 ** 6)):
        spans = [range(n_rows)[b] for b in kernels.row_blocks(n_rows, cols)]
        assert [i for span in spans for i in span] == list(range(n_rows))
        # at most BLOCK_FLOATS entries per buffer, or a single row
        assert all(len(span) * cols <= kernels.BLOCK_FLOATS or len(span) == 1
                   for span in spans)
    # blocks are as large as the bound allows: 218 rows of 300
    assert len(list(kernels.row_blocks(1000, 300))) == 5


def test_scratch_growth_never_holds_two_buffers():
    pool = []
    tracemalloc.start()
    try:
        for size in (1_000, 30_000, 60_000, 20_000):
            buf = kernels.scratch(pool, size)
            assert buf.size == size and len(pool) == 1
            del buf
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 60_000 * 8 + 1024


def test_thread_count_does_not_change_bits(monkeypatch):
    if not kernels.HAS_NUMBA:
        pytest.skip("numba not installed")
    monkeypatch.setattr(kernels, "_backend", "numba")
    kernels.set_threads(1)
    a, _ = kernels.batch_step(ROWS, POINTS, H, 64)
    applied = kernels.set_threads(4)  # clamped to the host allowance
    b, _ = kernels.batch_step(ROWS, POINTS, H, 64)
    assert applied >= 1
    assert a.tobytes() == b.tobytes()


def test_set_threads_validation():
    with pytest.raises(ValueError, match="thread count must be >= 1, got 0"):
        kernels.set_threads(0)


def test_nearest_labels_matches_argmin(backend):
    # 600 modes make the labels run in several row blocks
    for m, blocks in ((6, 1), (600, 3)):
        modes = rng.normal(size=(m, 3))
        assert len(list(kernels.row_blocks(POINTS.shape[0], m))) == blocks
        labels = kernels.nearest_labels(POINTS, modes)
        d2 = ((POINTS[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(labels, np.argmin(d2, axis=1))


def test_nearest_labels_are_int32_and_equal_int64_argmin():
    # labels take int32 while every mode index fits; argmin writes intp
    # into one block's scratch, so no n-sized int64 array is made: the
    # peak is the labels, one budget and numpy's two 8,192-element ufunc
    # buffers
    modes = rng.normal(size=(600, 3))
    d2 = ((POINTS[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
    ref = np.argmin(d2, axis=1).astype(np.int64)
    labels = kernels.nearest_labels(POINTS, modes)
    assert labels.dtype == np.int32
    assert np.array_equal(labels, ref)
    pts = np.random.default_rng(2).normal(size=(50_000, 2))
    kernels.nearest_labels(pts, modes[:10, :2])
    tracemalloc.start()
    try:
        labels = kernels.nearest_labels(pts, modes[:10, :2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.dtype == np.int32
    assert peak <= (4 * pts.shape[0] + (kernels.BLOCK_FLOATS + 2 * 8192) * 8
                    + 16384), peak


def test_nearest_labels_tie_goes_to_lower_index(backend):
    modes = np.array([[1.0, 0.0], [-1.0, 0.0]])
    pts = np.array([[0.0, 0.0], [0.0, 5.0]])
    labels = kernels.nearest_labels(pts, modes)
    assert labels.tolist() == [0, 0]


def test_greedy_prune_backends_agree(monkeypatch):
    # pruning is numpy on both backends; each must give the reference's
    # indices and supports exactly
    cands = rng.normal(size=(300, 2))
    ref_idx, ref_sup = scalar_greedy_prune(cands, 0.8)
    for name in BACKENDS:
        monkeypatch.setattr(kernels, "_backend", name)
        idx, sup = kernels.greedy_prune(cands, 0.8)
        assert idx.dtype == sup.dtype == np.int64
        assert np.array_equal(idx, ref_idx), name
        assert np.array_equal(sup, ref_sup), name
    # every accepted pair is separated by more than h
    kept = cands[idx]
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            assert np.linalg.norm(kept[i] - kept[j]) > 0.8
    assert sup.sum() == len(cands)


@settings(max_examples=200)
@given(data=st.data())
def test_greedy_prune_matches_scalar_on_ties(data):
    # candidates on multiples of h/2 put accepted modes exactly h away and
    # make a rejected candidate equidistant from several accepted ones
    d = data.draw(st.integers(1, 3), label="d")
    h = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]), label="h")
    r = data.draw(st.integers(1, 40), label="r")
    ints = data.draw(st.lists(st.integers(-4, 4), min_size=r * d,
                              max_size=r * d), label="cells")
    cands = np.array(ints, dtype=np.float64).reshape(r, d) * (h / 2)
    if data.draw(st.booleans(), label="coincident"):
        cands[:] = cands[0]
    idx, sup = kernels.greedy_prune(cands, h)
    ref_idx, ref_sup = scalar_greedy_prune(cands, h)
    assert idx.dtype == sup.dtype == np.int64
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(sup, ref_sup)
    assert sup.sum() == r


def test_greedy_prune_folds_support_into_nearest(backend):
    # (0.8, 0) lies within h of both accepted modes and counts toward the
    # nearer one, (1.5, 0), not the earlier one
    cands = np.array([[0.0, 0.0], [1.5, 0.0], [0.8, 0.0], [10.0, 0.0],
                      [10.1, 0.0]])
    idx, merged = kernels.greedy_prune(cands, 1.0)
    assert idx.tolist() == [0, 1, 3]
    assert merged.tolist() == [1, 2, 2]


def _scalar_sq_dist(u, v):
    """The numba loop's fold: ascending coordinates into a zero start."""
    d2 = 0.0
    for x, y in zip(u.tolist(), v.tolist()):
        d2 += (x - y) * (x - y)
    return d2


def test_sq_dist_rows_match_scalar():
    a = rng.normal(size=(20, 4))
    b = rng.normal(size=(20, 4))
    got = kernels.sq_dist(a, b)
    for i in range(20):
        assert got[i] == _scalar_sq_dist(a[i], b[i])


# -0.0 against 0.0, and squares that overflow to inf, next to plain values
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200]),
                   st.floats(-1e3, 1e3))


@settings(max_examples=200)
@given(data=st.data())
def test_sq_dist_is_the_scalar_fold_bitwise(data):
    d = data.draw(st.sampled_from([1, 2, 3, 8]), label="d")
    m = data.draw(st.integers(1, 6), label="m")
    c = data.draw(st.integers(1, 5), label="c")
    a, b = (np.array(data.draw(st.lists(COORDS, min_size=r * d,
                                        max_size=r * d))).reshape(r, d)
            for r in (m, c))
    k = min(m, c)
    if data.draw(st.booleans(), label="equal rows"):
        b[:k] = a[:k]
    want = np.array([[_scalar_sq_dist(u, v) for v in b] for u in a])
    with np.errstate(over="ignore"):
        block = kernels.sq_dist(a[:, None], b)
        pooled = kernels.sq_dist(a[:, None], b, out=np.empty((m, c)),
                                 diff=np.empty((m, c)))
        rows = kernels.sq_dist(a[:k], b[:k])
        point = kernels.sq_dist(a, b[0])
    assert block.tobytes() == pooled.tobytes() == want.tobytes()
    assert rows.tobytes() == want.diagonal().tobytes()
    assert point.tobytes() == want[:, 0].tobytes()
