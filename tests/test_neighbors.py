import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from daodet import neighbors
from daodet.dataset import Dataset
from daodet.detectors import score_dao
from daodet.lid import estimate_profile
from daodet.neighbors import (
    build_neighbor_graph,
    cached_neighbor_graph,
    distance_matrix,
    euclidean,
    graph_cache_key,
    kdist_column,
    load_graph,
    save_graph,
    select_knn_all,
    select_knn_rows,
)
from daodet.synthgen import SynthSpec, generate

from conftest import fake_graph


def brute_oracle(points, kmax):
    """Per-query python loop with explicit (distance, index) sorting."""
    n = len(points)
    indices = np.empty((n, kmax), dtype=np.int32)
    dists = np.empty((n, kmax))
    for i in range(n):
        pairs = []
        for j in range(n):
            if j != i:
                pairs.append((float(euclidean(points[i], points[j])), j))
        pairs.sort()
        indices[i] = [j for _, j in pairs[:kmax]]
        dists[i] = [d for d, _ in pairs[:kmax]]
    return indices, dists


def test_hand_geometry_1d():
    g = build_neighbor_graph(np.array([[0.0], [1.0], [3.0]]), kmax=2)
    np.testing.assert_array_equal(g.indices[0], [1, 2])
    np.testing.assert_allclose(g.distances[0], [1.0, 3.0])
    np.testing.assert_array_equal(g.indices[1], [0, 2])
    np.testing.assert_array_equal(g.indices[2], [1, 0])


def test_equidistant_tie_prefers_smaller_index():
    # points 0, -1, +1: both neighbors of point 0 sit at distance 1
    g = build_neighbor_graph(np.array([[0.0], [-1.0], [1.0]]), kmax=1)
    assert g.indices[0, 0] == 1


@pytest.mark.parametrize("path", ["brute", "full_matrix"])
def test_matches_python_oracle(path, rng):
    pts = rng.standard_normal((60, 3))
    if path == "brute":
        g = build_neighbor_graph(pts, kmax=10)
        indices, distances = g.indices, g.distances
    else:  # the timing harness selects from one full distance matrix
        indices, distances = select_knn_all(distance_matrix(pts), 10)
    oi, od = brute_oracle(pts, 10)
    np.testing.assert_array_equal(indices, oi)
    np.testing.assert_array_equal(distances, od)


def test_brute_matches_oracle_random_200x8(rng):
    pts = rng.standard_normal((200, 8))
    g = build_neighbor_graph(pts, kmax=25)
    oi, od = brute_oracle(pts, 25)
    np.testing.assert_array_equal(g.indices, oi)
    np.testing.assert_array_equal(g.distances, od)


def test_brute_matches_oracle_with_ties():
    # integer lattice generates many exactly tied distances
    xs, ys = np.meshgrid(np.arange(7.0), np.arange(7.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    g = build_neighbor_graph(pts, kmax=12)
    oi, od = brute_oracle(pts, 12)
    np.testing.assert_array_equal(g.indices, oi)
    np.testing.assert_array_equal(g.distances, od)


def _tie_heavy_points(dim):
    lattice = st.tuples(*[st.integers(-3, 3).map(float)] * dim)
    tenths = st.tuples(*[st.floats(-1, 1).map(lambda x: round(x, 1))] * dim)
    return st.lists(st.one_of(lattice, tenths), min_size=2, max_size=24, unique=True).map(
        np.array
    )


def _builds(mp):
    """Yield (leaf rows, store cap) for leaves of 4, 16 and 64 points at
    store caps 0, one block and unlimited, with the build set to them."""
    for leaf_rows in (4, 16, 64):
        for cap in (0, leaf_rows * leaf_rows * 8, 1 << 62):
            mp.setattr(neighbors, "_LEAF_ROWS", leaf_rows)
            mp.setattr(neighbors, "_STORE_BYTES", cap)
            yield leaf_rows, cap


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(_tie_heavy_points))
def test_graph_equals_oracle_on_ties_for_every_kmax(pts):
    n = len(pts)
    oi, od = brute_oracle(pts, n - 1)
    with pytest.MonkeyPatch.context() as mp:
        for _ in _builds(mp):  # 4-point leaves: up to six of them
            for kmax in range(1, n):
                g = build_neighbor_graph(pts, kmax=kmax)
                assert np.array_equal(g.indices, oi[:, :kmax])
                assert g.distances.tobytes() == od[:, :kmax].tobytes()


def _row_oracle(points, kmax):
    """brute_oracle with one euclidean call and one (distance, index)
    lexsort per query; on integer points every distance is exact, so it
    cannot depend on how the call reduces."""
    n = len(points)
    indices = np.empty((n, kmax), dtype=np.int32)
    dists = np.empty((n, kmax))
    for i in range(n):
        d = euclidean(points[i], points)
        order = np.lexsort((np.arange(n), d))
        order = order[order != i][:kmax]
        indices[i], dists[i] = order, d[order]
    return indices, dists


_LATTICE = np.column_stack([a.ravel() for a in np.meshgrid(np.arange(40.0), np.arange(40.0))])


@pytest.mark.parametrize("leaf_rows", [4, 16, 64, 100])
def test_pruned_graph_equals_oracle_on_a_lattice(leaf_rows, monkeypatch):
    # 1600 points with many exactly tied distances. 100-point leaves are
    # 10x10 squares, one step apart: a row on a leaf's face ties neighbors
    # inside the leaf and across the face, at distance 1.
    oi, od = _row_oracle(_LATTICE, 780)
    small = _LATTICE[(_LATTICE < 7).all(axis=1)]
    assert [a.tobytes() for a in _row_oracle(small, 48)] == [
        a.tobytes() for a in brute_oracle(small, 48)
    ]
    monkeypatch.setattr(neighbors, "_LEAF_ROWS", leaf_rows)
    for cap in (0, leaf_rows * leaf_rows * 8, 1 << 62):
        monkeypatch.setattr(neighbors, "_STORE_BYTES", cap)
        for kmax in (1, 4, 10, 12, 100, 780):
            g = build_neighbor_graph(_LATTICE, kmax)
            assert g.indices.tobytes() == oi[:, :kmax].tobytes()
            assert g.distances.tobytes() == od[:, :kmax].tobytes()


def test_blocked_distance_rows_equal_single_call(monkeypatch):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((9, 2))
    # Squared differences underflow between rows 0, 1, 4 and 5, and
    # overflow from rows 2 and 6.
    pts[[0, 1, 4, 5]] = [[0.0, 0.0], [2.49e-191, 0.0], [0.0, 3e-191], [0.0, 5.49e-191]]
    pts[[2, 6]] = [[1e200, -1e200], [-3e200, 0.0]]
    calls = []

    def counted(a, b):
        calls.append((a.shape[0], b.shape[1]))
        return euclidean(a, b)

    # Chunks of rows 0-3, 4-7 and 8, each computing its columns from its
    # first row on. One row per block over 9 columns and two over 5 (a row's
    # temporaries take 8 bytes per column for each of d + 2 values): rows
    # 1|2 and 5|6 sit on either side of a block edge, 3|4 of a chunk edge.
    monkeypatch.setattr(neighbors, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 2 * 8 * 5 * (2 + 2))
    monkeypatch.setattr(neighbors, "euclidean", counted)
    blocked = distance_matrix(pts)
    assert calls == [(1, 9)] * 4 + [(2, 5)] * 2 + [(1, 1)]
    single = euclidean(pts[:, None], pts[None])
    assert blocked.tobytes() == single.tobytes()
    assert blocked[0, 1] == blocked[1, 0] == 2.49e-191 and np.isfinite(blocked[2]).all()


@pytest.mark.parametrize("dim", [1, 2, 3, 32])
def test_repeated_differences_keep_every_distance_bit(dim, monkeypatch):
    # euclidean repeats the (m, 1, d) rows along the columns and subtracts
    # in place; other shapes subtract by broadcasting. Both are the same
    # subtraction, so every distance keeps its bits, the rescued ones too.
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((40, dim))
    pts[:6] *= 1e-200  # squared differences underflow
    pts[6:12] *= 1e300  # squared differences overflow
    n = pts.shape[0]
    single = euclidean(pts[:, None], pts[None])
    broadcast = euclidean(np.broadcast_to(pts[:, None], (n, n, dim)), pts[None])
    assert single.tobytes() == broadcast.tobytes()
    assert np.isfinite(single).all() and (single[:6, :6][~np.eye(6, dtype=bool)] > 0.0).all()
    monkeypatch.setattr(neighbors, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 3 * 8 * n * (dim + 2))  # 3 rows a call
    assert distance_matrix(pts).tobytes() == single.tobytes()
    out = np.full((n + 3, 2 * n), np.nan)
    neighbors._fill_distances(pts, pts, out[2 : n + 2, 1::2])
    assert np.ascontiguousarray(out[2 : n + 2, 1::2]).tobytes() == single.tobytes()


@pytest.mark.parametrize("rows", [1, 2])
def test_gather_equals_fancy_index_for_every_k(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    n, kmax = 7, 6
    indices = [rng.permutation(np.delete(np.arange(n), i))[:kmax] for i in range(n)]
    g = fake_graph(indices, np.sort(rng.uniform(0.5, 2.0, (n, kmax)), axis=1))
    values = rng.standard_normal(n)
    for k in range(1, kmax + 1):
        # Chunks of `rows` rows: the last chunk of 7 rows is a short one.
        monkeypatch.setattr(neighbors, "_GATHER_BYTES", rows * 8 * k)
        for vals in (values, kdist_column(g, k)):  # contiguous and strided
            got = g.gather(vals, k)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == vals[g.indices[:, :k]].tobytes()
    for k in (0, kmax + 1):
        with pytest.raises(ValueError, match="out of range"):
            g.gather(values, k)


def _strided(rng, shape):
    """Points at an odd stride and offset inside a larger array."""
    rows, dim = shape
    return (rng.standard_normal((3 * rows + 1, 2 * dim + 3)) * 4.0)[1::3, 3::2]


@pytest.mark.parametrize("dim", [1, 2, 7, 32, 64])
def test_euclidean_is_symmetric_bitwise(dim):
    rng = np.random.default_rng(dim)
    a, b = _strided(rng, (13, dim)), _strided(rng, (11, dim))
    # Rows whose squared differences underflow or overflow take the rescue.
    a[:3], b[:3] = 0.0, 0.0
    a[1], a[2, 0], b[2, 0] = 2.49e-191, 3e-200, -1e-200
    a[3], b[3] = 1e200, -1e200
    a[4, -1], b[4, -1] = 1e154, -3e154
    ab = euclidean(a[:, None, :], b[None, :, :])
    ba = euclidean(b[:, None, :], a[None, :, :])
    assert ab.tobytes() == np.ascontiguousarray(ba.T).tobytes()
    assert ab[1, 0] > 0.0 and ab[2, 2] > 0.0 and ab[0, 0] == 0.0
    assert np.isfinite(ab[3, 3]) and np.isfinite(ab[4, 4])


def _points_with_rescue_rows(n):
    """Gaussian points in 3-d with near-coincident rows (their squared
    differences underflow) and far-out rows (theirs overflow), which fall in
    leaves of their own and at the edges of others."""
    pts = np.random.default_rng(n).standard_normal((n, 3))
    for j, i in enumerate(r for r in (0, 127, 128) if r < n):
        pts[i] = [j * 2.49e-191, 0.0, 0.0]
    for j, i in enumerate(r for r in (64, 129, 255, 256) if r < n):
        pts[i] = [(j + 1) * 1e200 * (-1) ** j, 1e200, 0.0]
    return pts


@pytest.mark.parametrize("n", [127, 128, 129, 257])
def test_graph_equals_oracle_for_every_store_cap(n, monkeypatch):
    pts = _points_with_rescue_rows(n)
    oi, od = brute_oracle(pts, n - 1)
    for _ in _builds(monkeypatch):
        for kmax in (1, n // 2, n - 1):
            g = build_neighbor_graph(pts, kmax)
            assert g.indices.tobytes() == oi[:, :kmax].tobytes()
            assert g.distances.tobytes() == od[:, :kmax].tobytes()


def _index_coded_points(n, d, seed):
    """Points whose column 0 is their index, so a spy can count pairs."""
    rng = np.random.default_rng(seed)
    return np.column_stack([np.arange(n, dtype=np.float64), rng.random((n, d - 1))])


def _count_pairs(monkeypatch, n):
    """An (n, n) count of the pairs that euclidean computes from now on,
    for index-coded points."""
    counts = np.zeros((n, n), dtype=np.uint8)

    def counted(a, b):
        counts[np.ix_(a[:, 0, 0].astype(int), b[0, :, 0].astype(int))] += 1
        return euclidean(a, b)

    monkeypatch.setattr(neighbors, "euclidean", counted)
    return counts


def _pair_total(monkeypatch):
    """A one-element list holding the number of pairs that euclidean
    computes from now on."""
    total = [0]

    def counted(a, b):
        total[0] += int(np.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
        return euclidean(a, b)

    monkeypatch.setattr(neighbors, "euclidean", counted)
    return total


def test_each_pair_computed_once_with_an_unlimited_store(monkeypatch):
    n, kmax = 600, 300
    pts = _index_coded_points(n, 2, 1)
    leaf = np.empty(n, dtype=int)
    for i, idx in enumerate(neighbors._leaves(pts)):
        leaf[idx] = i
    counts = _count_pairs(monkeypatch, n)
    for cap in (1 << 62, 0):
        monkeypatch.setattr(neighbors, "_STORE_BYTES", cap)
        counts[:] = 0
        build_neighbor_graph(pts, kmax)
        assert counts.max() == 1  # each leaf's rows, once
        across = (counts & counts.T).astype(bool) & (leaf[:, None] != leaf[None, :])
        # Two leaves that both need a block compute it once, while it fits.
        assert across.any() == (cap == 0)

    # distance_matrix: each chunk of 128 rows from its diagonal on, mirrored.
    counts[:] = 0
    distance_matrix(pts)
    chunk = np.arange(n) // 128
    np.testing.assert_array_equal(counts, chunk[:, None] <= chunk[None, :])


# Pairs computed by the build at the default leaf size and store cap.
DESK_PAIRS = 775000  # 30.3% of n^2
LOWDIM_PAIRS = 268535  # 4.7% of n^2


def test_pinned_pair_counts(monkeypatch):
    # The desk shape: two clusters of 800 points in 32-d at kmax 780, where
    # no row's neighbors cross clusters. The floor is each within-cluster
    # pair once, 25% of n^2; the index-order tile store computed 1380352
    # pairs (54%).
    desk = generate(SynthSpec(dim_c2=16, seed=42))[0].points
    total = _pair_total(monkeypatch)
    build_neighbor_graph(desk, 780)
    assert total[0] == DESK_PAIRS < 1380352

    # A 2400x2 input at kmax 100, where the per-point pruned path that the
    # one build replaced computed 413746 pairs (7.2%).
    total[0] = 0
    build_neighbor_graph(_index_coded_points(2400, 2, 2), 100)
    assert total[0] == LOWDIM_PAIRS < 413746


# Coordinates from subnormals to 1e300 in magnitude, with both zeros.
_coordinate = (
    st.floats(-1e300, 1e300, allow_subnormal=True)
    | st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 290))
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])
)


_SUBNORMAL_PAIR = np.array([-5.831153781648e-311, 1.42033098865543e-310])


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(*[hnp.arrays(np.float64, d, elements=_coordinate)] * 3)
    )
)
# Subnormal differences: euclidean lands one step above their hypot, so
# only the absolute margin keeps the far bound above it.
@example((_SUBNORMAL_PAIR, np.array([-1.5336246132874e-310, -2.96329338020006e-310]),
          _SUBNORMAL_PAIR))
def test_euclidean_bounds_every_coordinate_gap(abc):
    """The build's bounds, in any order of summation: the distance is at
    least each |fl(a_c - b_c)|, so at least the gap between a box holding a
    and a box holding b, or the point b itself, and at most their far bound."""
    a, b, c = abc
    lo, hi = np.minimum(a, c), np.maximum(a, c)  # a box holding a (and c)
    for box_b in ((b, b), (np.minimum(b, c[::-1]), np.maximum(b, c[::-1]))):
        gap, far = neighbors._box_bounds(lo, hi, *box_b)
        for perm in (np.arange(a.size), np.arange(a.size)[::-1], np.roll(np.arange(a.size), 1)):
            dist = euclidean(a[perm], b[perm])
            assert dist >= np.max(np.abs(a - b))
            assert dist >= gap
            assert dist <= far


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e300])
@pytest.mark.parametrize("dim", [2, 3])
def test_pruned_graph_equals_oracle_at_extreme_scales(scale, dim, monkeypatch):
    # Subnormal, underflowing-square and overflowing-square coordinates.
    n, kmax = 700, 100
    pts = np.random.default_rng(dim).standard_normal((n, dim)) * scale
    oi, od = _row_oracle(pts, kmax)
    for _ in _builds(monkeypatch):
        g = build_neighbor_graph(pts, kmax)
        assert g.indices.tobytes() == oi.tobytes()
        assert g.distances.tobytes() == od.tobytes()


def _lexsort_select(dist_rows, self_idx, k, labels=None):
    """The (distance, index) order by one full two-key lexsort per row,
    over every column but the query's own; labels are the columns' indices
    (default: their positions)."""
    m, n = dist_rows.shape
    labels = np.arange(n) if labels is None else labels
    cols = np.broadcast_to(np.arange(n), (m, n))
    keep = cols != np.asarray(self_idx)[:, None]
    cols = cols[keep].reshape(m, n - 1)
    d = np.asarray(dist_rows)[keep].reshape(m, n - 1)
    order = np.lexsort((labels[cols], d), axis=1)[:, :k]
    return np.take_along_axis(labels[cols], order, axis=1), np.take_along_axis(d, order, axis=1)


def _assert_selects_like_lexsort(dist, self_idx, ks):
    before = dist.tobytes(order="A")
    for k in ks:
        got_i, got_d = select_knn_rows(dist, self_idx, k)
        ref_i, ref_d = _lexsort_select(dist, self_idx, k)
        np.testing.assert_array_equal(got_i, ref_i)
        assert got_d.tobytes() == ref_d.tobytes()
    assert dist.tobytes(order="A") == before


def _from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@pytest.mark.filterwarnings("error")
def test_select_knn_rows_matches_lexsort_and_keeps_input():
    rng = np.random.default_rng(3)
    dist = rng.integers(1, 4, size=(14, 15)).astype(np.float64)
    dist[0] = 2.0  # one tie spans the whole row
    dist[1, ::2] = np.inf  # tied infinities
    dist[2] = np.arange(15.0)[::-1]  # strictly ordered, no tie
    dist[3, 4:] = np.nan  # NaNs sort last, ties among them by index
    dist[4, [1, 2, 9, 12]] = np.nan
    dist[4, [0, 6]] = np.inf
    dist[5, [0, 13]] = np.inf  # two infinities tie at k = n - 1
    dist[12, [2, 5, 9]] = -0.0  # -0.0 ties with 0.0, by index
    dist[12, [3, 7]] = 0.0
    # Distances zero to three ulps above 1.0 share truncated keys and fall
    # in each run of four columns, so the index tie-break alone is wrong.
    dist[13] = _from_bits(np.float64(1.0).view(np.uint64) + np.arange(15, dtype=np.uint64)[::-1] % 4)
    dist.flags.writeable = False
    before = dist.tobytes()
    self_idx = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 6, 13])
    for k in range(1, 15):
        got_i, got_d = select_knn_rows(dist, self_idx, k)
        ref_i, ref_d = _lexsort_select(dist, self_idx, k)
        np.testing.assert_array_equal(got_i, ref_i)
        assert got_d.tobytes() == ref_d.tobytes()
    assert dist.tobytes() == before


@pytest.mark.filterwarnings("error")
def test_select_knn_rows_orders_nan_ties_by_index():
    nan = np.nan
    idx, dist = select_knn_rows(np.array([[1.0, nan, nan, nan]]), np.array([0]), 2)
    np.testing.assert_array_equal(idx, [[1, 2]])
    assert np.isnan(dist).all()


@pytest.mark.filterwarnings("error")
def test_select_knn_rows_never_selects_self():
    nan, inf = np.nan, np.inf
    # A NaN or +inf elsewhere in the row still sorts before the query itself.
    idx, dist = select_knn_rows(np.array([[nan, 5.0, nan]]), np.array([1]), 2)
    np.testing.assert_array_equal(idx, [[0, 2]])
    assert np.isnan(dist).all()
    idx, dist = select_knn_rows(np.array([[0.0, 1.0, inf]]), np.array([0]), 2)
    np.testing.assert_array_equal(idx, [[1, 2]])
    np.testing.assert_array_equal(dist, [[1.0, inf]])


# Bit patterns that stress the packed keys: signed NaNs with payloads,
# signalling NaNs, subnormals of both signs, and signed zeros and infinities.
_HOSTILE_BITS = [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
    0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF, 0x0000000000000001, 0x8000000000000001,
    0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, 0x8000000000000000, 0xFFF0000000000000,
]


def _near(value):
    """value and the values one to three ulps further from zero, which
    can share a truncated key."""
    return st.integers(0, 3).map(
        lambda j: float(_from_bits(np.float64(value).view(np.uint64) + np.uint64(j)))
    )


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(2, 12)),
        elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.5, np.inf, np.nan])
        | st.floats(0.0, 4.0)
        | st.sampled_from(_HOSTILE_BITS).map(lambda u: float(_from_bits(u)))
        | st.floats(-4.0, 4.0, allow_subnormal=True)
        | _near(1.0)
        | _near(-2.5)
        | _near(3e-310),
    ),
    st.data(),
)
def test_select_knn_rows_matches_lexsort_for_every_k(dist, data):
    m, n = dist.shape
    self_idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    # Point indices out of column order, as a graph build passes them.
    labels = np.array(data.draw(st.permutations(range(3 * n))))[:n]
    # Warnings are errors inside the body only: under the filterwarnings
    # mark, Hypothesis's own failure report would raise one and abort the run.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(1, n):
            for cols in (None, labels):
                got_i, got_d = select_knn_rows(dist, self_idx, k, cols)
                ref_i, ref_d = _lexsort_select(dist, self_idx, k, cols)
                np.testing.assert_array_equal(got_i, ref_i)
                assert got_d.tobytes() == ref_d.tobytes()


def _colliding_rows(n, k):
    """Rows whose distinct distances share truncated keys, in an order the
    index tie-break gets wrong (descending distance at ascending columns).
    Column 0 is each row's own. Row 0's collision group straddles the k
    boundary when k < 4, row 1's lies inside the first k and row 2 holds
    only distances at most three ulps apart."""
    one = np.float64(1.0).view(np.uint64)
    group = _from_bits(one + np.arange(3, -1, -1, dtype=np.uint64))
    rows = np.full((3, n), 2.0)
    g = min(4, n - 1)
    rows[0, np.linspace(1, n - 1, g).astype(int)] = group[-g:]
    g = min(4, k)
    rows[1, 1 : 1 + k - g] = 0.5
    rows[1, n - g :] = group[-g:]
    rng = np.random.default_rng(n)
    rows[2] = _from_bits(one + rng.integers(0, 4, n).astype(np.uint64))
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 1024, 1025, 2049])
def test_select_knn_rows_repairs_truncated_key_collisions(n):
    for k in sorted({1, 2, 3, n // 2, n - 2, n - 1} & set(range(1, n))):
        _assert_selects_like_lexsort(_colliding_rows(n, k), np.zeros(3, dtype=int), [k])
    if n >= 1024:
        # The straddling group's two smallest distances sit in its two last
        # columns, which the index tie-break alone would leave out.
        group_cols = np.linspace(1, n - 1, 4).astype(int)
        idx, dist = select_knn_rows(_colliding_rows(n, 2), np.zeros(3, dtype=int), 2)
        assert idx[0].tolist() == [n - 1, group_cols[2]]
        assert dist[0, 0] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("layout", ["fortran", "strided", "read_only"])
def test_select_knn_rows_layouts_are_read_not_written(layout):
    rng = np.random.default_rng(11)
    base = rng.integers(0, 5, size=(6, 40)).astype(np.float64)
    base[1, 3:9] = np.nan
    base[2, 5] = -0.0
    base[3] = _from_bits(np.float64(1.0).view(np.uint64) + rng.integers(0, 4, 40, np.uint64))
    if layout == "fortran":
        dist = np.asfortranarray(base)
    elif layout == "strided":
        wide = np.zeros((12, 80))
        wide[::2, ::2] = base
        dist = wide[::2, ::2]
    else:
        dist = base.copy()
        dist.flags.writeable = False
    assert dist.flags.c_contiguous == (layout == "read_only")
    _assert_selects_like_lexsort(dist, np.array([0, 5, 39, 1, 20, 7]), range(1, 40))


def test_stored_distances_equal_distance_fn(rng):
    pts = rng.standard_normal((50, 5))
    g = build_neighbor_graph(pts, kmax=8)
    for i in range(50):
        for j in range(8):
            assert g.distances[i, j] == euclidean(pts[i], pts[g.indices[i, j]])


def test_kdist_lookup_and_range():
    g = build_neighbor_graph(np.array([[0.0], [1.0], [3.0]]), kmax=2)
    assert kdist_column(g, 1)[0] == 1.0
    assert kdist_column(g, 2)[0] == 3.0
    with pytest.raises(ValueError, match="out of range"):
        kdist_column(g, 3)
    with pytest.raises(ValueError, match="out of range"):
        kdist_column(g, 0)


def test_kmax_bounds(rng):
    pts = rng.standard_normal((5, 2))
    with pytest.raises(ValueError, match="kmax"):
        build_neighbor_graph(pts, kmax=5)
    with pytest.raises(ValueError, match="kmax"):
        build_neighbor_graph(pts, kmax=0)


def test_near_coincident_distance_does_not_underflow():
    # The squared differences of these pairs underflow to 0 or a subnormal.
    assert euclidean(np.array([0.0]), np.array([2.49e-191])) == 2.49e-191
    assert euclidean(np.array([5e-324, 0.0]), np.zeros(2)) == 5e-324
    pair = euclidean(np.array([[3e-200, 4e-200], [0.0, 0.0]]), np.zeros(2))
    np.testing.assert_allclose(pair, [5e-200, 0.0], rtol=1e-15, atol=0)


def test_far_apart_distance_does_not_overflow():
    # Squared differences of these pairs overflow to inf.
    pts = np.array([[0.0], [1e200], [3e200], [7e200], [1.5e201]])
    g = build_neighbor_graph(pts, kmax=3)
    assert g.distances[0].tolist() == [1e200, 3e200, 7e200]
    assert g.distances[1, :2].tolist() == [1e200, 2e200]
    assert g.distances[2].tolist() == [2e200, 3e200, 4e200]
    for i in range(5):
        np.testing.assert_array_equal(g.distances[i], np.abs(pts[i, 0] - pts[g.indices[i], 0]))
    assert euclidean(np.array([3e200, 4e200]), np.zeros(2)) == pytest.approx(5e200, rel=1e-15)
    scores = score_dao(g, 2, estimate_profile("mle", g, 3)).scores
    assert np.all(np.isfinite(scores)) and np.all(scores > 0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_distance_beyond_float_range_rejected():
    assert euclidean(np.array([1.5e308, 1.5e308]), np.zeros(2)) == np.inf
    for leaf_rows in (64, 1):
        with pytest.MonkeyPatch.context() as mp:
            # One-point leaves: a far bound, so R, and a gap are infinite.
            mp.setattr(neighbors, "_LEAF_ROWS", leaf_rows)
            for pts in (
                np.array([[0.0, 0.0], [1.5e308, 1.5e308], [1.0, 1.0]]),  # finite differences
                np.array([[-1.5e308], [1.5e308], [0.0]]),  # the difference itself overflows
            ):
                with pytest.raises(ValueError, match="non-finite distances"):
                    build_neighbor_graph(pts, kmax=2)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["tiles", "pruned"])
def test_non_finite_input_rejected_on_both_paths(path, bad, monkeypatch):
    # The build checks only the last column: rows are non-decreasing and
    # selection sorts NaN last. "tiles" is one leaf holding every point, so
    # every pair in one block; "pruned" is leaves of 8 points and no store.
    pts = np.random.default_rng(5).standard_normal((40, 2))
    pts[7, 1] = bad
    monkeypatch.setattr(neighbors, "_LEAF_ROWS", 64 if path == "tiles" else 8)
    if path == "pruned":
        monkeypatch.setattr(neighbors, "_STORE_BYTES", 0)
    with pytest.raises(ValueError) as rejected:
        build_neighbor_graph(pts, kmax=5)
    assert str(rejected.value) == (
        "non-finite distances in graph: a pairwise distance exceeds the float range"
        " or the input is not finite"
    )


def test_duplicate_points_rejected():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="duplicate"):
        build_neighbor_graph(pts, kmax=2)


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(5, 20), st.integers(1, 3)),
        elements=st.floats(-50, 50, allow_nan=False),
    )
)
# Distinct points whose squared difference underflows to 0 once read as
# duplicates; the graph must keep them apart.
@example(np.array([[0.0], [2.49e-191], [1.0], [2.0], [3.0]]))
def test_rows_sorted_and_self_excluded(pts):
    if len(np.unique(pts, axis=0)) != len(pts):
        return
    kmax = len(pts) - 1
    g = build_neighbor_graph(pts, kmax=kmax)
    n = len(pts)
    for i in range(n):
        assert i not in g.indices[i]
        assert np.all(np.diff(g.distances[i]) >= 0)
        # kdist monotone in k
        for k in range(1, kmax):
            assert kdist_column(g, k + 1)[i] >= kdist_column(g, k)[i]


def test_permutation_invariance(rng):
    pts = rng.standard_normal((30, 4))
    perm = rng.permutation(30)
    g = build_neighbor_graph(pts, kmax=6)
    gp = build_neighbor_graph(pts[perm], kmax=6)
    inv = np.argsort(perm)
    # neighbor lists map through the relabeling
    np.testing.assert_array_equal(inv[g.indices[perm[0]]], gp.indices[0])
    np.testing.assert_allclose(g.distances[perm], gp.distances, rtol=0, atol=0)


def test_cache_roundtrip_and_format(tmp_path, rng):
    pts = rng.standard_normal((40, 3))
    g = build_neighbor_graph(pts, kmax=7)
    path = tmp_path / "g.knn"
    save_graph(g, path)
    back = load_graph(path, n_features=3, n=40, kmax=7)
    np.testing.assert_array_equal(back.indices, g.indices)
    np.testing.assert_array_equal(back.distances, g.distances)

    raw = path.read_bytes()
    n, kmax = struct.unpack_from("<II", raw, 0)
    assert (n, kmax) == (40, 7)
    idx = np.frombuffer(raw, dtype="<u4", count=n * kmax, offset=8).reshape(n, kmax)
    dist = np.frombuffer(raw, dtype="<f8", count=n * kmax, offset=8 + 4 * n * kmax)
    np.testing.assert_array_equal(idx, g.indices)
    np.testing.assert_array_equal(dist.reshape(n, kmax), g.distances)
    assert len(raw) == 8 + n * kmax * 12


def test_every_graph_path_returns_int32_indices(tmp_path, monkeypatch):
    pts = np.random.default_rng(3).standard_normal((60, 2))
    tiles = build_neighbor_graph(pts, kmax=5)
    selected, _ = select_knn_all(distance_matrix(pts), 5)
    path = tmp_path / "g.knn"
    save_graph(tiles, path)
    loaded = load_graph(path, n_features=2, n=60, kmax=5)
    wide = fake_graph(tiles.indices.astype(np.int64), tiles.distances)
    wide_path = tmp_path / "wide.knn"
    save_graph(wide, wide_path)
    assert wide_path.read_bytes() == path.read_bytes()
    monkeypatch.setattr(neighbors, "_LEAF_ROWS", 8)
    pruned = build_neighbor_graph(pts, kmax=5)
    for indices in (tiles.indices, pruned.indices, selected, loaded.indices, wide.indices):
        assert indices.dtype == np.int32
        assert indices.tobytes() == tiles.indices.tobytes()


def test_cached_graph_reused(tmp_path, rng):
    pts = rng.standard_normal((25, 2))
    ds = Dataset(points=pts, name="c")
    g1, problem = cached_neighbor_graph(ds, 5, tmp_path)
    assert problem is None
    files = list(tmp_path.glob("*.knn"))
    assert len(files) == 1
    # The key format pins the names of existing cache files.
    expected = hashlib.sha256(pts.tobytes() + b"|kmax=5|metric=euclidean").hexdigest()
    assert files[0].stem == expected == graph_cache_key(ds, 5)
    g2, problem = cached_neighbor_graph(ds, 5, tmp_path)
    assert problem is None
    np.testing.assert_array_equal(g1.indices, g2.indices)
    np.testing.assert_array_equal(g1.distances, g2.distances)
    # different kmax is a different cache entry
    cached_neighbor_graph(ds, 6, tmp_path)
    assert len(list(tmp_path.glob("*.knn"))) == 2


def _truncate(raw, n, kmax):
    return raw[:-5]


def _swap_header(raw, n, kmax):  # same size, so only the expected n and kmax catch it
    return struct.pack("<II", kmax, n) + raw[8:]


def _grow_header_n(raw, n, kmax):
    return struct.pack("<II", n + 1, kmax) + raw[8:]


def _index_out_of_range(raw, n, kmax):
    return raw[:8] + struct.pack("<I", n) + raw[12:]


def _distance_block(raw, n, kmax):
    return np.frombuffer(raw, dtype="<f8", offset=8 + 4 * n * kmax).copy()


def _nan_distance(raw, n, kmax):
    dist = _distance_block(raw, n, kmax)
    dist[3] = np.nan
    return raw[: 8 + 4 * n * kmax] + dist.tobytes()


def _self_index(raw, n, kmax):  # row 0 lists point 0
    return raw[:8] + struct.pack("<I", 0) + raw[12:]


def _repeated_index(raw, n, kmax):  # row 0 lists its first neighbor twice
    return raw[:12] + raw[8:12] + raw[16:]


def _swapped_distances(raw, n, kmax):  # row 0's first two distances, now decreasing
    dist = _distance_block(raw, n, kmax)
    assert dist[0] < dist[1]
    dist[[0, 1]] = dist[[1, 0]]
    return raw[: 8 + 4 * n * kmax] + dist.tobytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate,
        _swap_header,
        _grow_header_n,
        _index_out_of_range,
        _nan_distance,
        _self_index,
        _repeated_index,
        _swapped_distances,
    ],
)
def test_corrupt_cache_entry_is_rebuilt(corrupt, tmp_path, rng):
    pts = rng.standard_normal((25, 2))
    fresh = build_neighbor_graph(pts, 5)
    cached_neighbor_graph(pts, 5, tmp_path)
    (path,) = tmp_path.glob("*.knn")
    good = path.read_bytes()
    path.write_bytes(corrupt(good, 25, 5))
    with pytest.raises(ValueError, match=path.name) as rejected:
        load_graph(path, n_features=2, n=25, kmax=5)
    g, problem = cached_neighbor_graph(pts, 5, tmp_path)
    assert problem == str(rejected.value)
    np.testing.assert_array_equal(g.indices, fresh.indices)
    np.testing.assert_array_equal(g.distances, fresh.distances)
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
