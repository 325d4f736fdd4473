"""Exact k-nearest-neighbor graphs.

A NeighborGraph holds, for every point, its kmax nearest neighbors sorted
by ascending distance, ties broken by ascending point index. The query
point is never its own neighbor. Brute force and the KD-tree produce
bit-identical graphs; brute force doubles as the correctness oracle.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import EUCLIDEAN, SUPPORTED_METRICS, Dataset

_CHUNK_ROWS = 256
_LEAF_SIZE = 16
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class NeighborGraph:
    """Sorted kNN index lists and distances for all points, up to kmax."""

    indices: np.ndarray    # (n, kmax) int64
    distances: np.ndarray  # (n, kmax) float64, non-decreasing along rows
    kmax: int
    n_features: int
    metric: str = EUCLIDEAN
    tie_rule: str = "ascending-index"

    def __post_init__(self):
        self.indices.flags.writeable = False
        self.distances.flags.writeable = False

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def neighborhoods(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """First k neighbor indices and distances per point (views)."""
        _check_k(self, k)
        return self.indices[:, :k], self.distances[:, :k]


def _check_k(graph: NeighborGraph, k: int) -> None:
    if not 1 <= k <= graph.kmax:
        raise ValueError(f"k={k} out of range [1, kmax={graph.kmax}]")


def kdist(graph: NeighborGraph, i: int, k: int) -> float:
    """Distance from point i to its k-th nearest neighbor."""
    _check_k(graph, k)
    return float(graph.distances[i, k - 1])


def kdist_column(graph: NeighborGraph, k: int) -> np.ndarray:
    """kdist for all points at once."""
    _check_k(graph, k)
    return graph.distances[:, k - 1]


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The canonical distance: sqrt of the einsum-reduced squared diff.

    Every distance stored in a graph comes from this exact evaluation, so
    brute force, the KD-tree, and spot checks agree bitwise.

    Points closer than about 1e-154 have squared differences that underflow,
    and points farther apart than about 1e154 have squared differences that
    overflow. So a sum below the smallest normal float with a non-zero
    difference, or an infinite sum with finite differences, is recomputed
    after scaling by the largest absolute difference (as ``hypot`` does).
    Only those entries change; identical points stay at 0, and a distance
    beyond the float range stays infinite.
    """
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    sq = np.einsum("...i,...i->...", diff, diff)
    dist = np.sqrt(sq)
    rescue = sq < _TINY
    if np.max(sq, initial=0.0) == np.inf:  # one reduction keeps the common case cheap
        rescue |= sq == np.inf
    rescue = np.flatnonzero(rescue)
    if rescue.size == 0:
        return dist
    dist = np.asarray(dist)  # writable even for a single pair
    sub = diff.reshape(-1, diff.shape[-1])[rescue]
    scale = np.abs(sub).max(axis=-1)
    ok = (scale > 0.0) & (scale < np.inf)
    scaled = sub[ok] / scale[ok, None]
    with np.errstate(over="ignore"):  # beyond the float range: inf, rejected by the graph
        dist.flat[rescue[ok]] = scale[ok] * np.sqrt(np.einsum("...i,...i->...", scaled, scaled))
    return dist[()]  # a scalar again for one pair


def _distance_rows(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distances from points[rows] to all points (euclidean, chunked)."""
    return euclidean(points[rows][:, None, :], points[None, :, :])


def select_knn_rows(dist_rows: np.ndarray, self_idx: np.ndarray, k: int):
    """Exact k smallest entries per row under the (distance, index) order.

    dist_rows: (m, n) distances from m queries to all n points; self_idx
    gives each query's own column, which is excluded. Returns (indices,
    distances) of shape (m, k), rows sorted ascending, ties by index.
    """
    m, n = dist_rows.shape
    d = dist_rows.copy()
    d[np.arange(m), self_idx] = np.inf
    if k < n - 1:
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
    else:
        part = np.broadcast_to(np.arange(n), (m, n)).copy()
    pd = np.take_along_axis(d, part, axis=1)
    kth = pd.max(axis=1)
    # Rows where entries equal to the k-th distance straddle the partition
    # boundary must be rebuilt so the smallest indices win.
    n_eq_all = (d == kth[:, None]).sum(axis=1)
    n_eq_sel = (pd == kth[:, None]).sum(axis=1)
    for r in np.flatnonzero(n_eq_all > n_eq_sel):
        below = np.flatnonzero(d[r] < kth[r])
        ties = np.flatnonzero(d[r] == kth[r])[: k - below.size]
        part[r] = np.concatenate([below, ties])
        pd[r] = d[r, part[r]]
    order = np.lexsort((part, pd), axis=1)[:, :k]
    return np.take_along_axis(part, order, axis=1).astype(np.int64), np.take_along_axis(
        pd, order, axis=1
    )


def _build_brute(points: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    n = points.shape[0]
    indices = np.empty((n, kmax), dtype=np.int64)
    distances = np.empty((n, kmax), dtype=np.float64)
    for start in range(0, n, _CHUNK_ROWS):
        rows = np.arange(start, min(start + _CHUNK_ROWS, n))
        d = _distance_rows(points, rows)
        indices[rows], distances[rows] = select_knn_rows(d, rows, kmax)
    return indices, distances


def select_knn_all(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN selection for every row of a full pairwise-distance matrix.

    Row i's own column is the excluded self entry. Chunked so per-call
    allocations stay small.
    """
    n = dists.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    out = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        rows = np.arange(start, stop)
        indices[rows], out[rows] = select_knn_rows(dists[start:stop], rows, k)
    return indices, out


class KdTree:
    """Static KD-tree with median splits on the widest-spread dimension."""

    def __init__(self, points: np.ndarray, leaf_size: int = _LEAF_SIZE):
        self.points = points
        self.leaf_size = leaf_size
        # Nodes as parallel lists: split dim/value for internal nodes,
        # point-index arrays for leaves.
        self.split_dim: list[int] = []
        self.split_val: list[float] = []
        self.children: list[tuple[int, int]] = []
        self.leaf_pts: list[np.ndarray | None] = []
        self.root = self._build(np.arange(points.shape[0]))

    def _build(self, idx: np.ndarray) -> int:
        node = len(self.split_dim)
        self.split_dim.append(-1)
        self.split_val.append(0.0)
        self.children.append((-1, -1))
        self.leaf_pts.append(None)
        if idx.size <= self.leaf_size:
            self.leaf_pts[node] = idx
            return node
        sub = self.points[idx]
        spreads = sub.max(axis=0) - sub.min(axis=0)
        dim = int(np.argmax(spreads))
        if spreads[dim] == 0.0:  # all points identical along every axis
            self.leaf_pts[node] = idx
            return node
        order = np.argsort(sub[:, dim], kind="stable")
        half = idx.size // 2
        left_idx, right_idx = idx[order[:half]], idx[order[half:]]
        self.split_dim[node] = dim
        self.split_val[node] = float(self.points[right_idx[0], dim])
        self.children[node] = (self._build(left_idx), self._build(right_idx))
        return node

    def query(self, q: np.ndarray, qi: int, k: int):
        """k nearest neighbors of points[qi] under the (distance, index) order."""
        # Bounded candidate list kept as (dist, idx) pairs; worst element last.
        best_d = np.full(k, np.inf)
        best_i = np.full(k, -1, dtype=np.int64)

        def visit(node: int):
            nonlocal best_d, best_i
            leaf = self.leaf_pts[node]
            if leaf is not None:
                cand = leaf[leaf != qi]
                if cand.size == 0:
                    return
                d = euclidean(self.points[cand], q[None, :])
                all_d = np.concatenate([best_d, d])
                all_i = np.concatenate([best_i, cand])
                keep = np.lexsort((all_i, all_d))[:k]
                best_d, best_i = all_d[keep], all_i[keep]
                return
            dim, val = self.split_dim[node], self.split_val[node]
            left, right = self.children[node]
            gap = q[dim] - val
            near, far = (left, right) if gap < 0 else (right, left)
            visit(near)
            # The far side can still hold an equal-distance smaller index,
            # so only a strictly larger plane gap allows pruning.
            if abs(gap) <= best_d[-1]:
                visit(far)

        visit(self.root)
        return best_i, best_d


def _build_kdtree(points: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    n = points.shape[0]
    tree = KdTree(points)
    indices = np.empty((n, kmax), dtype=np.int64)
    distances = np.empty((n, kmax), dtype=np.float64)
    for i in range(n):
        indices[i], distances[i] = tree.query(points[i], i, kmax)
    return indices, distances


def build_neighbor_graph(
    data: Dataset | np.ndarray,
    kmax: int,
    method: str = "brute",
    metric: str = EUCLIDEAN,
) -> NeighborGraph:
    """Exact kNN graph for all points; ``method`` is 'brute' or 'kdtree'."""
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if metric not in SUPPORTED_METRICS:
        raise ValueError(f"unsupported metric {metric!r}")
    n = points.shape[0]
    if not 1 <= kmax <= n - 1:
        raise ValueError(f"kmax={kmax} out of range [1, {n - 1}]")
    if method == "brute":
        indices, distances = _build_brute(points, kmax)
    elif method == "kdtree":
        indices, distances = _build_kdtree(points, kmax)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not np.isfinite(distances).all():
        raise ValueError(
            "non-finite distances in graph: a pairwise distance exceeds the float range"
            " or the input is not finite"
        )
    if distances[:, 0].min() <= 0.0:
        raise ValueError("zero distance in graph: input contains duplicate points")
    return NeighborGraph(
        indices=indices,
        distances=distances,
        kmax=kmax,
        n_features=points.shape[1],
        metric=metric,
    )


# ---------------------------------------------------------------------------
# Binary cache: little-endian header {n, kmax} as uint32, then the index
# block (uint32, row-major) and the distance block (float64, row-major).
# ---------------------------------------------------------------------------

def graph_cache_key(data: Dataset | np.ndarray, kmax: int, metric: str = EUCLIDEAN) -> str:
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(points).tobytes())
    h.update(f"|kmax={kmax}|metric={metric}".encode())
    return h.hexdigest()


def save_graph(graph: NeighborGraph, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", graph.n, graph.kmax))
        fh.write(graph.indices.astype("<u4").tobytes())
        fh.write(graph.distances.astype("<f8").tobytes())


def load_graph(path: str | Path, n_features: int, metric: str = EUCLIDEAN) -> NeighborGraph:
    raw = Path(path).read_bytes()
    n, kmax = struct.unpack_from("<II", raw, 0)
    off = 8
    idx_bytes = n * kmax * 4
    indices = np.frombuffer(raw, dtype="<u4", count=n * kmax, offset=off).reshape(n, kmax)
    distances = np.frombuffer(
        raw, dtype="<f8", count=n * kmax, offset=off + idx_bytes
    ).reshape(n, kmax)
    return NeighborGraph(
        indices=indices.astype(np.int64),
        distances=distances.astype(np.float64),
        kmax=int(kmax),
        n_features=n_features,
        metric=metric,
    )


def cached_neighbor_graph(
    data: Dataset | np.ndarray,
    kmax: int,
    cache_dir: str | Path,
    method: str = "brute",
    metric: str = EUCLIDEAN,
) -> NeighborGraph:
    """Build the graph or load it from ``cache_dir`` when already stored."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    path = cache_dir / f"{graph_cache_key(points, kmax, metric)}.knn"
    if path.exists():
        return load_graph(path, n_features=points.shape[1], metric=metric)
    graph = build_neighbor_graph(data, kmax, method=method, metric=metric)
    save_graph(graph, path)
    return graph
