"""Exact k-nearest-neighbor graphs.

A NeighborGraph holds, for every point, its kmax nearest neighbors sorted
by ascending distance, ties broken by ascending point index. The query
point is never its own neighbor. Every stored distance is the canonical
``euclidean`` value, so graphs are bitwise reproducible. Builds compute all
pairs, or, in low dimensions, all pairs but those an exact bound rules out.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, _replacing

_CHUNK_ROWS = 128
# Cap on the (rows, columns, d) difference temporary of one euclidean call.
_BLOCK_BYTES = 4 << 20
# Cap on the bytes of distance tiles a graph build keeps for later chunks.
# The whole store, (n/2)^2 * 8 bytes at its peak, fits up to n of about 2000;
# beyond that, the tiles that do not fit are recomputed.
_STORE_BYTES = 8 << 20
# The pruned build runs for d <= _PRUNE_MAX_D and n >= _PRUNE_N_PER_K * (kmax + 1)
# when the store cannot hold every tile; there it was faster than the tile path
# on every input of the measured grid (BENCH_box_pruning.json). Its leaves hold
# at most _LEAF_ROWS points.
_PRUNE_MAX_D = 2
_PRUNE_N_PER_K = 6
_LEAF_ROWS = 64
_TINY = np.finfo(np.float64).tiny
# Selection keys: the +inf bit pattern, above which lie only the bits of
# negatives, -0.0 and NaNs, and the query's own key, above every other.
_INF_BITS = np.uint64(0x7FF0000000000000)
_SELF_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class NeighborGraph:
    """Sorted kNN index lists and distances for all points, up to kmax."""

    indices: np.ndarray    # (n, kmax) int32: n < 2**31 for any graph an n^2 build reaches
    distances: np.ndarray  # (n, kmax) float64, non-decreasing along rows
    kmax: int
    n_features: int

    def __post_init__(self):
        if self.indices.dtype != np.int32:  # other integer indices are converted once
            object.__setattr__(self, "indices", self.indices.astype(np.int32))
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


def kdist_column(graph: NeighborGraph, k: int) -> np.ndarray:
    """Each point's distance to its k-th nearest neighbor."""
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


def _fill_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write the distances from the rows of ``a`` to the rows of ``b`` into ``out``.

    Each ``euclidean`` call covers a block of rows small enough that its
    (block, len(b), d) difference temporary stays under _BLOCK_BYTES; every
    pair is still reduced by the same einsum, so the values are those of one
    call over all the rows and columns.
    """
    block = max(1, _BLOCK_BYTES // (8 * max(b.size, 1)))
    for lo in range(0, a.shape[0], block):
        out[lo : lo + block] = euclidean(a[lo : lo + block, None, :], b[None, :, :])


def distance_matrix(data: Dataset | np.ndarray) -> np.ndarray:
    """All pairwise distances, bitwise equal to one
    ``euclidean(points[:, None, :], points[None, :, :])`` call, from the
    rows of ``_chunk_distances``: the graph build's tiling, which computes
    each pair once while its store holds every tile (n up to about 2000)."""
    points = _points(data)
    out = np.empty((points.shape[0],) * 2)
    for start, rows in _chunk_distances(points):
        out[start : start + rows.shape[0]] = rows
    return out


def _chunk_distances(points: np.ndarray):
    """Yield (start, rows): the distances from each _CHUNK_ROWS chunk of
    points, in order, to all points, as a (chunk rows, n) view of one
    buffer that the next chunk overwrites.

    A chunk computes its columns from its first row onwards and keeps copies
    of the tiles that the nearest later chunks need, while the tiles held
    stay within _STORE_BYTES. A later chunk takes those columns from the
    tiles, transposed (``euclidean`` is symmetric bit for bit), and computes
    the columns whose tiles did not fit.
    """
    n = points.shape[0]
    bounds = list(range(0, n, _CHUNK_ROWS)) + [n]
    # One buffer for the whole build, so no chunk faults in fresh pages.
    buf = np.empty((min(_CHUNK_ROWS, n), n))
    store: dict[tuple[int, int], np.ndarray] = {}  # (from chunk, for chunk) -> tile
    held = 0
    for c in range(len(bounds) - 1):
        start, stop = bounds[c], bounds[c + 1]
        rows = buf[: stop - start]
        runs = []  # column ranges to compute, adjacent ones merged
        for p in range(c + 1):
            tile = store.pop((p, c), None)  # never one for the chunk's own columns
            if tile is not None:
                rows[:, bounds[p] : bounds[p + 1]] = tile.T
                held -= tile.nbytes
            elif runs and runs[-1][1] == bounds[p]:
                runs[-1][1] = bounds[p + 1]
            else:
                runs.append([bounds[p], bounds[p + 1]])
        runs[-1][1] = n  # the last run ends with the chunk's own columns
        for lo, hi in runs:
            _fill_distances(points[start:stop], points[lo:hi], rows[:, lo:hi])
        for q in range(c + 1, len(bounds) - 1):
            tile = rows[:, bounds[q] : bounds[q + 1]]
            if held + tile.nbytes > _STORE_BYTES:
                break
            store[c, q] = tile.copy()
            held += tile.nbytes
        yield start, rows


def select_knn_rows(dist_rows: np.ndarray, self_idx: np.ndarray, k: int):
    """Exact k smallest entries per row under the (distance, index) order.

    dist_rows: (m, n) distances from m queries to all n points; self_idx
    gives each query's own column, which is excluded. Returns (indices,
    distances) of shape (m, k), int32 and float64, rows sorted ascending,
    ties by index.
    dist_rows itself is left unmodified.
    """
    src = np.asarray(dist_rows, dtype=np.float64)
    self_idx = np.asarray(self_idx)
    m, n = src.shape
    rows = np.arange(m)
    # One uint64 key per entry: the distance's raw bits with the low b bits
    # replaced by the column, so keys are distinct and equal distances order
    # by index. The bits are copied, never computed on. They order as the
    # distances only without a sign bit or a NaN.
    b = max(1, (n - 1).bit_length())
    mask = np.uint64((1 << b) - 1)
    raw = src.view(np.uint64)
    signed = bool(raw.max(initial=0) > _INF_BITS)  # read before the keys, while raw is warm
    keys = np.bitwise_and(raw, ~mask, order="C")
    keys |= np.arange(n, dtype=np.uint64)
    keys[rows, self_idx] = _SELF_KEY
    if k < n - 1:
        keys.partition(k, axis=1)
    sel = keys[:, : k + 1]
    sel.sort(axis=1)
    idx = (sel[:, :k] & mask).astype(np.int32)
    flat = src.reshape(-1)  # a view unless src is not C-contiguous
    dist = np.take(flat, idx + (rows * n)[:, None])

    # Distinct distances that agree above the low b bits share a truncated
    # key and so fall back to index order. A row is wrong only where its
    # selected distances decrease, or where the k-th and (k+1)-th share a
    # truncated key and a column left out is exactly below the k-th. Such
    # rows, and rows with a sign bit or a NaN, are re-sorted whole by a
    # stable float sort: NaN last, -0.0 equal to 0.0, ties in index order.
    bits = dist.view(np.uint64)
    bad = (bits[:, 1:] < bits[:, :-1]).any(axis=1)
    if signed:
        bad |= (raw > _INF_BITS).any(axis=1)
    wide = np.flatnonzero(sel[:, k] <= (sel[:, k - 1] | mask))
    if wide.size:
        kth = bits[wide, k - 1, None]
        below = np.count_nonzero(raw[wide] < kth, axis=1)
        below -= raw[wide, self_idx[wide]] < kth[:, 0]  # the query is never a candidate
        bad[wide] |= below > np.count_nonzero(bits[wide] < kth, axis=1)
    redo = np.flatnonzero(bad)
    if redo.size:
        order = np.argsort(src[redo], axis=1, kind="stable")
        order = order[order != self_idx[redo, None]].reshape(redo.size, n - 1)[:, :k]
        idx[redo] = order
        dist[redo] = np.take_along_axis(src[redo], order, axis=1)
    return idx, dist


def _select_by_chunks(n: int, k: int, chunks) -> tuple[np.ndarray, np.ndarray]:
    """kNN of all n points, one chunk of queries at a time.

    chunks yields (start, rows), the distances from queries start onwards
    to all n points, covering all n queries.
    """
    indices = np.empty((n, k), dtype=np.int32)
    distances = np.empty((n, k), dtype=np.float64)
    for start, rows in chunks:
        stop = start + rows.shape[0]
        indices[start:stop], distances[start:stop] = select_knn_rows(
            rows, np.arange(start, stop), k
        )
    return indices, distances


def select_knn_all(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN selection for every row of a full pairwise-distance matrix.

    Row i's own column is the excluded self entry. Chunked so per-call
    allocations stay small.
    """
    n = dists.shape[0]
    chunks = ((start, dists[start : start + _CHUNK_ROWS]) for start in range(0, n, _CHUNK_ROWS))
    return _select_by_chunks(n, k, chunks)


def _leaves(points: np.ndarray) -> list[np.ndarray]:
    """Spatial leaf chunks: the point indices, split at the median of the
    widest axis until each part holds at most _LEAF_ROWS points."""
    leaves, parts = [], [np.arange(points.shape[0])]
    while parts:
        idx = parts.pop()
        if idx.size <= _LEAF_ROWS:
            leaves.append(idx)
            continue
        sub = points[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            axis = np.argmax(sub.max(axis=0) - sub.min(axis=0))
        half = idx.size // 2
        order = np.argpartition(sub[:, axis], half)
        parts += [idx[order[half:]], idx[order[:half]]]
    return leaves


def _box_bounds(lo: np.ndarray, hi: np.ndarray, coords: np.ndarray):
    """Each point p's bounds (gap, far) on its ``euclidean`` distance to any
    point a of the box [lo, hi]. ``coords`` holds the points' coordinates as
    rows, (d, n), so that the reductions over the axes run over whole rows.

    gap = max_c max(fl(lo_c - p_c), fl(p_c - hi_c)), at most 0 inside the
    box. Rounding is monotonic, so |fl(a_c - p_c)| is at least the gap on
    one axis; a sum of non-negative floats rounds to at least each term,
    and sqrt(fl(x * x)) = |x|, so the distance is at least every
    |fl(a_c - p_c)|, in any summation order. The rescue path returns at
    least its scale, the largest of them.

    far is the hypot over the axes of r_c = max(fl(p_c - lo_c), fl(hi_c -
    p_c)), raised by d * 2**-50 relative and d * 2**-1070 absolute. By
    monotonic rounding |fl(a_c - p_c)| <= r_c. ``euclidean`` exceeds the
    exact norm of those differences by at most d + 3 roundings on either
    path, plus half a subnormal step; each of the d - 1 hypot calls falls
    short by at most one ulp or one subnormal step. The relative margin
    covers the roundings and the absolute one, exact on the subnormal grid,
    the steps. (Summed squares would underflow below about 1e-154.)
    """
    d = coords.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        below, above = lo[:, None] - coords, coords - hi[:, None]
        far = np.hypot.reduce(-np.minimum(below, above), axis=0)  # -fl(lo - p) = fl(p - lo)
        return np.maximum(below, above).max(axis=0), far * (1 + d * 2**-50) + d * 2**-1070


def _select_pruned(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """kNN of all points, one spatial leaf of queries at a time, over only
    the columns that the box bound cannot rule out.

    Each leaf row is within every point's far bound of it, so it has at
    least k other points within R, the (k + 1)-th smallest far bound over
    all n points. A column whose gap is strictly greater than R is
    therefore farther than every row's k-th neighbor and ties none, so it
    is dropped. The rest are computed once, in ascending index order, so
    ``select_knn_rows`` breaks ties by index as over all n columns.
    """
    n = points.shape[0]
    indices = np.empty((n, k), dtype=np.int32)
    distances = np.empty((n, k), dtype=np.float64)
    coords = np.ascontiguousarray(points.T)
    for leaf in _leaves(points):
        queries = points[leaf]
        lo, hi = queries.min(axis=0), queries.max(axis=0)
        gap, far = _box_bounds(lo, hi, coords)
        # NaN bounds sort last; a NaN R keeps every column.
        cols = np.flatnonzero(~(gap > np.partition(far, k)[k]))
        rows = np.empty((leaf.size, cols.size))
        _fill_distances(queries, points[cols], rows)
        pos, distances[leaf] = select_knn_rows(rows, np.searchsorted(cols, leaf), k)
        indices[leaf] = cols[pos]
    return indices, distances


def _prunes(n: int, kmax: int, d: int) -> bool:
    """Whether build_neighbor_graph takes the pruned path. While the store
    holds every tile, (n/2)^2 * 8 bytes, the tile path computes each pair
    once, which pruning did not beat on the measured grid."""
    return d <= _PRUNE_MAX_D and n >= _PRUNE_N_PER_K * (kmax + 1) and 2 * n * n > _STORE_BYTES


def _points(data: Dataset | np.ndarray) -> np.ndarray:
    return data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)


def build_neighbor_graph(data: Dataset | np.ndarray, kmax: int) -> NeighborGraph:
    """Exact kNN graph for all points: over row chunks and the tile store,
    or, in low dimensions with n large against kmax, over spatial leaves
    whose pairs beyond an exact box bound are skipped."""
    points = _points(data)
    n = points.shape[0]
    if not 1 <= kmax <= n - 1:
        raise ValueError(f"kmax={kmax} out of range [1, {n - 1}]")
    if _prunes(n, kmax, points.shape[1]):
        indices, distances = _select_pruned(points, kmax)
    else:
        indices, distances = _select_by_chunks(n, kmax, _chunk_distances(points))
    # Rows are non-decreasing with NaN last, so the last column is finite
    # only when every column is.
    if not np.isfinite(distances[:, -1]).all():
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
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(_points(data)).tobytes())
    # The metric suffix is kept so existing cache file names stay valid.
    h.update(f"|kmax={kmax}|metric=euclidean".encode())
    return h.hexdigest()


def save_graph(graph: NeighborGraph, path: str | Path) -> None:
    """Write the graph to ``path`` atomically.

    The bytes go to a sibling temp file that then replaces ``path``, so
    readers, including other processes sharing the cache directory, see
    either no entry or a complete one.
    """
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(struct.pack("<II", graph.n, graph.kmax))
        fh.write(np.ascontiguousarray(graph.indices, dtype="<u4"))
        fh.write(np.ascontiguousarray(graph.distances, dtype="<f8"))


def load_graph(path: str | Path, n_features: int, n: int, kmax: int) -> NeighborGraph:
    """Read a graph written by save_graph.

    Raises ValueError naming the file unless its size is 8 + 12*n*kmax, its
    header holds ``n`` and ``kmax``, every index is below n, is not the
    row's own point and appears once in its row, and every row's distances
    are finite, positive and non-decreasing: the structure of every graph
    that build_neighbor_graph returns.
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
        if file_n != n or file_kmax != kmax:
            raise ValueError(
                f"corrupt graph cache file {path}: header n={file_n} kmax={file_kmax},"
                f" expected n={n} kmax={kmax}"
            )
        indices = np.fromfile(fh, dtype="<u4", count=count).reshape(n, kmax)
        distances = np.fromfile(fh, dtype="<f8", count=count).reshape(n, kmax)
    ordered = np.sort(indices, axis=1)
    problem = None
    if indices.max(initial=0) >= n:
        problem = f"neighbor index >= n={n}"
    elif (indices == np.arange(n, dtype=np.uint32)[:, None]).any():
        problem = "a row lists its own point"
    elif (ordered[:, 1:] == ordered[:, :-1]).any():
        problem = "a row lists one neighbor twice"
    elif not (
        # A NaN fails every comparison, so the pass over neighboring columns
        # rules it out, and the first and last columns bound the rest.
        (distances[:, :1] > 0.0).all()
        and (distances[:, 1:] >= distances[:, :-1]).all()
        and (distances[:, -1:] < np.inf).all()
    ):
        problem = "a row's distances are not positive, finite and non-decreasing"
    if problem is not None:
        raise ValueError(f"corrupt graph cache file {path}: {problem}")
    # Every index is below n < 2**31, so the block reads as int32 in place.
    return NeighborGraph(
        indices=indices.view("<i4"), distances=distances, kmax=kmax, n_features=n_features
    )


def cached_neighbor_graph(
    data: Dataset | np.ndarray, kmax: int, cache_dir: str | Path
) -> tuple[NeighborGraph, str | None]:
    """(graph, problem): the graph from ``cache_dir``, built and stored there
    when missing or corrupt; problem is the load_graph message that rejected
    a corrupt entry, else None."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    points = _points(data)
    path = cache_dir / f"{graph_cache_key(points, kmax)}.knn"
    problem = None
    if path.exists():
        try:
            return load_graph(path, points.shape[1], points.shape[0], kmax), None
        except ValueError as exc:
            problem = str(exc)
    graph = build_neighbor_graph(points, kmax)
    save_graph(graph, path)
    return graph, problem
