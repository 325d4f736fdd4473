import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from daodet.dataset import Dataset
from daodet.detectors import score_dao
from daodet.lid import estimate_profile
from daodet.neighbors import (
    build_neighbor_graph,
    cached_neighbor_graph,
    euclidean,
    graph_cache_key,
    kdist,
    load_graph,
    save_graph,
)


def brute_oracle(points, kmax):
    """Per-query python loop with explicit (distance, index) sorting."""
    n = len(points)
    indices = np.empty((n, kmax), dtype=np.int64)
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


@pytest.mark.parametrize("method", ["brute", "kdtree"])
def test_matches_python_oracle(method, rng):
    pts = rng.standard_normal((60, 3))
    g = build_neighbor_graph(pts, kmax=10, method=method)
    oi, od = brute_oracle(pts, 10)
    np.testing.assert_array_equal(g.indices, oi)
    np.testing.assert_array_equal(g.distances, od)


def test_kdtree_equals_brute_random_200x8(rng):
    pts = rng.standard_normal((200, 8))
    gb = build_neighbor_graph(pts, kmax=25, method="brute")
    gk = build_neighbor_graph(pts, kmax=25, method="kdtree")
    np.testing.assert_array_equal(gb.indices, gk.indices)
    np.testing.assert_array_equal(gb.distances, gk.distances)


def test_kdtree_equals_brute_with_ties(rng):
    # integer lattice generates many exactly tied distances
    xs, ys = np.meshgrid(np.arange(7.0), np.arange(7.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    gb = build_neighbor_graph(pts, kmax=12, method="brute")
    gk = build_neighbor_graph(pts, kmax=12, method="kdtree")
    np.testing.assert_array_equal(gb.indices, gk.indices)
    np.testing.assert_array_equal(gb.distances, gk.distances)


def test_stored_distances_equal_distance_fn(rng):
    pts = rng.standard_normal((50, 5))
    g = build_neighbor_graph(pts, kmax=8)
    for i in range(50):
        for j in range(8):
            assert g.distances[i, j] == euclidean(pts[i], pts[g.indices[i, j]])


def test_kdist_lookup_and_range():
    g = build_neighbor_graph(np.array([[0.0], [1.0], [3.0]]), kmax=2)
    assert kdist(g, 0, 1) == 1.0
    assert kdist(g, 0, 2) == 3.0
    with pytest.raises(ValueError, match="out of range"):
        kdist(g, 0, 3)
    with pytest.raises(ValueError, match="out of range"):
        kdist(g, 0, 0)


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
    for pts in (
        np.array([[0.0, 0.0], [1.5e308, 1.5e308], [1.0, 1.0]]),  # finite differences
        np.array([[-1.5e308], [1.5e308], [0.0]]),  # the difference itself overflows
    ):
        with pytest.raises(ValueError, match="non-finite distances"):
            build_neighbor_graph(pts, kmax=2)


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
            assert kdist(g, i, k + 1) >= kdist(g, i, k)


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
    back = load_graph(path, n_features=3)
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


def test_cached_graph_reused(tmp_path, rng):
    pts = rng.standard_normal((25, 2))
    ds = Dataset(points=pts, name="c")
    g1 = cached_neighbor_graph(ds, 5, tmp_path)
    files = list(tmp_path.glob("*.knn"))
    assert len(files) == 1
    assert files[0].stem == graph_cache_key(ds, 5, "euclidean")
    g2 = cached_neighbor_graph(ds, 5, tmp_path)
    np.testing.assert_array_equal(g1.indices, g2.indices)
    np.testing.assert_array_equal(g1.distances, g2.distances)
    # different kmax is a different cache entry
    cached_neighbor_graph(ds, 6, tmp_path)
    assert len(list(tmp_path.glob("*.knn"))) == 2
