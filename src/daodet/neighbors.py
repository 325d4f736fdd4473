"""Exact k-nearest-neighbor graphs.

A NeighborGraph holds, for every point, its kmax nearest neighbors sorted
by ascending distance, ties broken by ascending point index. The query
point is never its own neighbor. Graphs are built by brute force with the
canonical ``euclidean`` distance, so they are bitwise reproducible.
"""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset

_CHUNK_ROWS = 256
# Cap on the (rows, n, d) difference temporary of one euclidean call.
_BLOCK_BYTES = 4 << 20
_TINY = np.finfo(np.float64).tiny
# Selection keys: the sign bit, the +inf bit pattern, the one key every
# NaN maps to (quiet-NaN bits with the sign set, above every number) and
# the query's own key, above every other.
_SIGN = np.uint64(1 << 63)
_INF_BITS = np.uint64(0x7FF0000000000000)
_NAN_KEY = np.uint64(0xFFF8000000000000)
_SELF_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class NeighborGraph:
    """Sorted kNN index lists and distances for all points, up to kmax."""

    indices: np.ndarray    # (n, kmax) int64
    distances: np.ndarray  # (n, kmax) float64, non-decreasing along rows
    kmax: int
    n_features: int

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
    graphs, the timing harness and spot checks agree bitwise.

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


def _distance_rows(
    points: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Distances from points[rows] to all points, bitwise equal to one
    ``euclidean(points[rows][:, None, :], points[None, :, :])`` call.

    Each euclidean call covers a block of rows small enough that its
    (block, n, d) difference temporary stays under _BLOCK_BYTES; every pair
    is still reduced by the same einsum, so only the peak memory changes.
    The rows are written into ``out`` (rows.size, n) when it is given.
    """
    n, dim = points.shape
    if out is None:
        out = np.empty((rows.size, n))
    block = max(1, _BLOCK_BYTES // (8 * n * max(dim, 1)))
    for start in range(0, rows.size, block):
        stop = min(start + block, rows.size)
        out[start:stop] = euclidean(points[rows[start:stop]][:, None, :], points[None, :, :])
    return out


def _order_keys(bits: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns (uint64, in place) to keys whose unsigned
    order is the float order: -0.0 equals +0.0 and every NaN is one key
    above +inf.
    """
    mag = bits & ~_SIGN
    neg = (bits >= _SIGN) & (mag != 0)
    np.bitwise_or(mag, _SIGN, out=bits)
    np.invert(bits, out=bits, where=neg)
    bits[mag > _INF_BITS] = _NAN_KEY
    return bits


def select_knn_rows(dist_rows: np.ndarray, self_idx: np.ndarray, k: int):
    """Exact k smallest entries per row under the (distance, index) order.

    dist_rows: (m, n) distances from m queries to all n points; self_idx
    gives each query's own column, which is excluded. Returns (indices,
    distances) of shape (m, k), rows sorted ascending, ties by index.
    dist_rows itself is left unmodified.
    """
    src = np.asarray(dist_rows, dtype=np.float64)
    m, n = src.shape
    rows = np.arange(m)
    # One uint64 key per entry: distance bits that order as the distances,
    # with the low b bits replaced by the column, so keys are distinct and
    # equal distances order by index. The bits are copied, never computed
    # on. Without a sign bit or a NaN the raw bits already order.
    b = max(1, (n - 1).bit_length())
    mask = np.uint64((1 << b) - 1)
    raw = src.view(np.uint64)
    slow = bool(raw.max(initial=0) > _INF_BITS)  # a sign bit or a NaN
    if slow:
        keys = _order_keys(np.array(raw, order="C"))
        keys &= ~mask
    else:
        keys = np.bitwise_and(raw, ~mask, order="C")
    keys |= np.arange(n, dtype=np.uint64)
    keys[rows, self_idx] = _SELF_KEY
    if k < n - 1:
        keys.partition(k, axis=1)
    sel = keys[:, : k + 1]
    sel.sort(axis=1)
    idx = (sel[:, :k] & mask).astype(np.int64)
    flat = src.reshape(-1)  # a view unless src is not C-contiguous
    offsets = (rows * n)[:, None]
    dist = np.take(flat, idx + offsets)

    def exact_keys(values):  # keys of gathered distances, without truncation
        bits = values.view(np.uint64)
        return _order_keys(bits.copy()) if slow else bits

    def tied(block, limit, block_rows):
        # Columns whose key is at most limit, grouped by row, with their
        # exact keys and where each row's group starts.
        inside = block <= limit[:, None]
        counts = np.count_nonzero(inside, axis=1)
        rr = np.repeat(np.arange(block.shape[0]), counts)
        cols = (block[inside] & mask).astype(np.int64)
        ex = exact_keys(np.take(flat, block_rows[rr] * n + cols))
        return rr, cols, ex, np.cumsum(counts) - counts

    # Distinct distances that agree above the low b bits share a truncated
    # key and so fall back to index order. A row is wrong only where its
    # exact distances decrease, or where the k-th and (k+1)-th share a
    # truncated key and a column past the k-th is exactly smaller than it.
    # Such rows are rebuilt from every column whose truncated key is at
    # most the k-th's, by an exact (distance, index) lexsort.
    kth = sel[:, k - 1] | mask
    exact = exact_keys(dist)
    bad = (exact[:, 1:] < exact[:, :-1]).any(axis=1)
    wide = np.flatnonzero(sel[:, k] <= kth)
    if wide.size:
        _, _, ex, starts = tied(keys[wide, k:], kth[wide], wide)
        bad[wide] |= np.minimum.reduceat(ex, starts) < exact[wide, k - 1]
    redo = np.flatnonzero(bad)
    if redo.size:
        rr, cols, ex, starts = tied(keys[redo], kth[redo], redo)
        order = np.lexsort((cols, ex, rr))
        idx[redo] = cols[order[starts[:, None] + np.arange(k)]]
        dist[redo] = np.take(flat, idx[redo] + offsets[redo])
    return idx, dist


def _select_by_chunks(n: int, k: int, chunk_rows) -> tuple[np.ndarray, np.ndarray]:
    """kNN of all n points, one _CHUNK_ROWS chunk of queries at a time.

    chunk_rows(rows) returns the (rows.size, n) distances of that chunk.
    """
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        rows = np.arange(start, stop)
        indices[start:stop], distances[start:stop] = select_knn_rows(chunk_rows(rows), rows, k)
    return indices, distances


def select_knn_all(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN selection for every row of a full pairwise-distance matrix.

    Row i's own column is the excluded self entry. Chunked so per-call
    allocations stay small.
    """
    return _select_by_chunks(dists.shape[0], k, lambda rows: dists[rows[0] : rows[-1] + 1])


def build_neighbor_graph(data: Dataset | np.ndarray, kmax: int) -> NeighborGraph:
    """Exact kNN graph for all points, by brute force over row chunks."""
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= kmax <= n - 1:
        raise ValueError(f"kmax={kmax} out of range [1, {n - 1}]")
    # One chunk buffer for the whole build, so no chunk faults in fresh pages.
    buf = np.empty((min(_CHUNK_ROWS, n), n))
    indices, distances = _select_by_chunks(
        n, kmax, lambda rows: _distance_rows(points, rows, out=buf[: rows.size])
    )
    if not np.isfinite(distances).all():
        raise ValueError(
            "non-finite distances in graph: a pairwise distance exceeds the float range"
            " or the input is not finite"
        )
    if distances[:, 0].min() <= 0.0:
        raise ValueError("zero distance in graph: input contains duplicate points")
    return NeighborGraph(
        indices=indices, distances=distances, kmax=kmax, n_features=points.shape[1]
    )


# ---------------------------------------------------------------------------
# Binary cache: little-endian header {n, kmax} as uint32, then the index
# block (uint32, row-major) and the distance block (float64, row-major).
# ---------------------------------------------------------------------------

def graph_cache_key(data: Dataset | np.ndarray, kmax: int) -> str:
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(points).tobytes())
    # The metric suffix is kept so existing cache file names stay valid.
    h.update(f"|kmax={kmax}|metric=euclidean".encode())
    return h.hexdigest()


def save_graph(graph: NeighborGraph, path: str | Path) -> None:
    """Write the graph to ``path`` atomically.

    The bytes go to a sibling temp file that then replaces ``path``, so
    readers, including other processes sharing the cache directory, see
    either no entry or a complete one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<II", graph.n, graph.kmax))
            fh.write(np.ascontiguousarray(graph.indices, dtype="<u4"))
            fh.write(np.ascontiguousarray(graph.distances, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_graph(
    path: str | Path, n_features: int, n: int | None = None, kmax: int | None = None
) -> NeighborGraph:
    """Read a graph written by save_graph.

    Raises ValueError naming the file unless its size is 8 + 12*n*kmax for
    the {n, kmax} in its header, that header equals ``n`` and ``kmax`` where
    they are given, and every index is below n.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"corrupt graph cache file {path}: {size} bytes, no header")
        file_n, file_kmax = struct.unpack("<II", header)
        count = file_n * file_kmax
        if size != 8 + 12 * count:
            raise ValueError(
                f"corrupt graph cache file {path}: {size} bytes, header n={file_n}"
                f" kmax={file_kmax} needs {8 + 12 * count}"
            )
        if (n is not None and file_n != n) or (kmax is not None and file_kmax != kmax):
            raise ValueError(
                f"corrupt graph cache file {path}: header n={file_n} kmax={file_kmax},"
                f" expected n={n} kmax={kmax}"
            )
        indices = np.fromfile(fh, dtype="<u4", count=count)
        distances = np.fromfile(fh, dtype="<f8", count=count)
    if count and indices.max() >= file_n:
        raise ValueError(f"corrupt graph cache file {path}: neighbor index >= n={file_n}")
    return NeighborGraph(
        indices=indices.astype(np.int64).reshape(file_n, file_kmax),
        distances=distances.reshape(file_n, file_kmax),
        kmax=int(file_kmax),
        n_features=n_features,
    )


def cached_neighbor_graph(
    data: Dataset | np.ndarray, kmax: int, cache_dir: str | Path
) -> NeighborGraph:
    """Build the graph or load it from ``cache_dir`` when already stored.

    A corrupt entry is rebuilt and overwritten, with a warning.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    path = cache_dir / f"{graph_cache_key(points, kmax)}.knn"
    if path.exists():
        try:
            return load_graph(path, n_features=points.shape[1], n=points.shape[0], kmax=kmax)
        except ValueError as exc:
            warnings.warn(f"rebuilding graph cache entry: {exc}", stacklevel=2)
    graph = build_neighbor_graph(data, kmax)
    save_graph(graph, path)
    return graph
