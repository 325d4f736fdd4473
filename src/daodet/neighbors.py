"""Exact k-nearest-neighbor graphs.

A NeighborGraph holds, for every point, its kmax nearest neighbors sorted
by ascending distance, ties broken by ascending point index. The query
point is never its own neighbor. Every stored distance is the canonical
``euclidean`` value, so graphs are bitwise reproducible. A build computes
the pairs of spatial leaves that an exact box bound cannot rule out, each
pair once while its store has room.

``leaf_selections`` is the build: it yields one leaf's rows of the graph
at a time, in one buffer that the next leaf overwrites, so a caller that
keeps only part of each row never holds the (n, kmax) graph. ``run``
without ``--cache`` consumes it that way. ``build_neighbor_graph``
assembles the rows into a full graph, which the cache, ``knn-cache`` and
``lid`` use.
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
# Cap on the temporaries of one blocked euclidean call, of lid's row blocks
# and of the DAO sweep's row blocks.
_BLOCK_BYTES = 4 << 20
# Cap on the bytes of leaf blocks a graph build keeps for later leaves; the
# blocks that do not fit are recomputed.
_STORE_BYTES = 1 << 20
# The build's spatial leaves hold at most _LEAF_ROWS points.
_LEAF_ROWS = 64
# Cap on the intp indices of one chunk of NeighborGraph.gather.
_GATHER_BYTES = 1 << 18
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

    def gather(self, values: np.ndarray, k: int) -> np.ndarray:
        """``values[indices[:, :k]]``: each point's first k neighbors' values,
        as a new (n, k) float64 block.

        ``take`` runs over contiguous intp rows, in chunks whose indices stay
        under _GATHER_BYTES. Every index is below n, so ``mode="clip"``
        changes no value; it lets ``take`` write ``out`` unbuffered.
        """
        _check_k(self, k)
        values = np.ascontiguousarray(values, dtype=np.float64)
        out = np.empty((self.n, k))
        rows = max(1, _GATHER_BYTES // (8 * k))
        for lo in range(0, self.n, rows):  # one chunk's indices held at a time
            nb = self.indices[lo : lo + rows, :k].astype(np.intp)
            np.take(values, nb, out=out[lo : lo + rows], mode="clip")
            del nb
        return out


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
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if a.ndim == 3 and a.shape[1] == 1 and shape == (a.shape[0], shape[1], a.shape[2]):
        # The (m, 1, d) rows against (1, c, d) columns: the same subtraction
        # over one long loop, not c loops of d elements.
        diff = np.repeat(a, shape[1], axis=1)
        diff -= b
    else:
        diff = a - b
    sq = np.einsum("...i,...i->...", diff, diff)
    rescue = sq < _TINY
    if np.max(sq, initial=0.0) == np.inf:  # one reduction keeps the common case cheap
        rescue |= sq == np.inf
    dist = np.sqrt(sq, out=sq if isinstance(sq, np.ndarray) else None)  # in place for arrays
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
    temporaries, the (block, len(b), d) differences, the (block, len(b))
    distances and their masks, stay under _BLOCK_BYTES; every pair is still
    reduced by the same einsum, so the values are those of one call over
    all the rows and columns.
    """
    block = max(1, _BLOCK_BYTES // (8 * max(b.size + 2 * b.shape[0], 1)))
    for lo in range(0, a.shape[0], block):
        out[lo : lo + block] = euclidean(a[lo : lo + block, None, :], b[None, :, :])


def distance_matrix(data: Dataset | np.ndarray) -> np.ndarray:
    """All pairwise distances, bitwise equal to one
    ``euclidean(points[:, None, :], points[None, :, :])`` call: each chunk
    of _CHUNK_ROWS rows is computed from its diagonal onwards and mirrored
    below it (``euclidean`` is symmetric bit for bit)."""
    points = _points(data)
    n = points.shape[0]
    out = np.empty((n, n))
    for lo in range(0, n, _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        _fill_distances(points[lo:hi], points[lo:], out[lo:hi, lo:])
        out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def select_knn_rows(dist_rows: np.ndarray, self_idx: np.ndarray, k: int, cols=None, out=None):
    """Exact k smallest entries per row under the (distance, index) order.

    dist_rows: (m, n) distances from m queries to n points; self_idx gives
    each query's own column, which is excluded. cols gives each column's
    point index, distinct and non-negative (default: the column's
    position); ties break by it, and the indices returned are these.
    Returns (indices, distances) of shape (m, k), int32 and float64, rows
    sorted ascending, ties by index: new arrays, or ``out``'s pair of
    C-contiguous arrays written in place.
    dist_rows itself is left unmodified.
    """
    src = np.asarray(dist_rows, dtype=np.float64)
    self_idx = np.asarray(self_idx)
    m, n = src.shape
    labels = np.arange(n) if cols is None else np.asarray(cols)
    rows = np.arange(m)
    # One uint64 key per entry: the distance's raw bits with the low b bits
    # replaced by the column's index, so keys are distinct and equal
    # distances order by index. The bits are copied, never computed on. They
    # order as the distances only without a sign bit or a NaN.
    top = int(labels.max())
    b = max(1, top.bit_length())
    mask = np.uint64((1 << b) - 1)
    raw = src.view(np.uint64)
    signed = bool(raw.max(initial=0) > _INF_BITS)  # read before the keys, while raw is warm
    keys = np.bitwise_and(raw, ~mask, order="C")
    keys |= labels.astype(np.uint64)
    keys[rows, self_idx] = _SELF_KEY
    if k < n - 1:
        keys.partition(k, axis=1)
    sel = keys[:, : k + 1]
    sel.sort(axis=1)
    wide = np.flatnonzero(sel[:, k] <= (sel[:, k - 1] | mask))
    idx, dist = (np.empty((m, k), dtype=np.int32), np.empty((m, k))) if out is None else out
    low = sel[:, :k]
    low &= mask  # the keys are done with: each selected column's index, in place
    idx[...] = low
    if cols is None:
        pos = idx.astype(np.intp)
    else:  # each selected index's column
        pos = np.empty(top + 1, dtype=np.intp)
        pos[labels] = np.arange(n)
        pos = pos[idx]
    pos += (rows * n)[:, None]
    # Every position is in range, so "clip" changes none; it lets take write
    # dist unbuffered. The flat src is a view unless src is not C-contiguous.
    np.take(src.reshape(-1), pos, out=dist, mode="clip")

    # Distinct distances that agree above the low b bits share a truncated
    # key and so fall back to index order. A row is wrong only where its
    # selected distances decrease, or where the k-th and (k+1)-th share a
    # truncated key and a column left out is exactly below the k-th. Such
    # rows, and rows with a sign bit or a NaN, are re-sorted whole by a
    # stable float sort over the columns in index order: NaN last, -0.0
    # equal to 0.0, ties in index order.
    bits = dist.view(np.uint64)
    bad = (bits[:, 1:] < bits[:, :-1]).any(axis=1)
    if signed:
        bad |= (raw > _INF_BITS).any(axis=1)
    if wide.size:
        kth = bits[wide, k - 1, None]
        below = np.count_nonzero(raw[wide] < kth, axis=1)
        below -= raw[wide, self_idx[wide]] < kth[:, 0]  # the query is never a candidate
        bad[wide] |= below > np.count_nonzero(bits[wide] < kth, axis=1)
    redo = np.flatnonzero(bad)
    if redo.size:
        by_index = np.argsort(labels)
        order = by_index[np.argsort(src[redo][:, by_index], axis=1, kind="stable")]
        order = order[order != self_idx[redo, None]].reshape(redo.size, n - 1)[:, :k]
        idx[redo] = labels[order]
        dist[redo] = np.take_along_axis(src[redo], order, axis=1)
    return idx, dist


def select_knn_all(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN selection for every row of a full pairwise-distance matrix.

    Row i's own column is the excluded self entry. Chunked so per-call
    allocations stay small.
    """
    n = dists.shape[0]
    indices = np.empty((n, k), dtype=np.int32)
    distances = np.empty((n, k), dtype=np.float64)
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        select_knn_rows(dists[lo:hi], np.arange(lo, hi), k, out=(indices[lo:hi], distances[lo:hi]))
    return indices, distances


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


def _box_bounds(lo_a, hi_a, lo_b, hi_b):
    """Bounds (gap, far) on the ``euclidean`` distance between any point a
    of the box [lo_a, hi_a] and any point b of the box [lo_b, hi_b]. The
    axes run along the first dimension, so the reductions over them run
    over whole rows; the other dimensions broadcast. A point p is the box
    [p, p].

    Per axis, g_c = max(0, fl(lo_b - hi_a), fl(lo_a - hi_b)) and r_c =
    max(fl(hi_b - lo_a), fl(hi_a - lo_b)). Rounding is monotonic, so g_c <=
    |fl(a_c - b_c)| <= r_c.

    gap is the larger of max_c g_c and H(g) lowered by d * 2**-50 relative
    and d * 2**-1070 absolute; far is H(r) raised by the same margins, where H
    is ``_hypot``. A sum of non-negative floats rounds to at least each
    term and sqrt(fl(x * x)) = |x|, so the distance is at least every
    |fl(a_c - b_c)|, in any summation order; the rescue path returns at
    least its scale, the largest of them. So it is at least max_c g_c.
    ``euclidean`` is within d + 3 roundings of the exact norm of the rounded
    differences on either path, plus half a subnormal step. H is within
    3d - 1 roundings of the exact hypot: the largest quotient is exactly 1,
    so d - 1 quotients, d - 1 squares, d - 1 additions, the sqrt and the
    product round, and a quotient that underflows drops a term below
    2**-1022 of a sum of at least 1. With the margin's own two roundings
    that is at most 4d + 4 roundings, within the 8d of the relative margin;
    for d = 1 both are exact. The absolute margin covers the subnormal
    steps. (Summed squares unscaled would underflow below about 1e-154.)
    """
    d = lo_a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
        r = np.maximum(hi_b - lo_a, hi_a - lo_b)
        low = _hypot(g) * (1 - d * 2**-50) - d * 2**-1070
        return np.maximum(g.max(axis=0), low), _hypot(r) * (1 + d * 2**-50) + d * 2**-1070


def _hypot(x: np.ndarray) -> np.ndarray:
    """The hypot over the first axis of the non-negative x, as
    top * sqrt(sum_c (x_c / top)**2) with top its largest term; top itself
    where that is NaN (top zero, infinite or NaN)."""
    top = x.max(axis=0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        q = x / top
        return np.fmax(top * np.sqrt(np.einsum("i...,i...->...", q, q)), top)


def _points(data: Dataset | np.ndarray) -> np.ndarray:
    return data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)


def _check_kmax(n: int, kmax: int) -> None:
    if not 1 <= kmax <= n - 1:
        raise ValueError(f"kmax={kmax} out of range [1, {n - 1}]")


def leaf_selections(data: Dataset | np.ndarray, kmax: int):
    """Yield (ids, indices, distances) for each spatial leaf of queries in
    turn: the leaf's point ids and their rows of the exact kNN graph at
    kmax, over the leaves that an exact box bound cannot rule out. The two
    (len(ids), kmax) arrays are views of one buffer that the next leaf
    overwrites.

    The points are taken in leaf order. Every point of leaf b is within
    far(a, b) of every row of leaf a, so those rows have at least kmax other
    points within R_a, the smallest far(a, b) whose leaves hold kmax + 1
    points. A leaf whose gap to leaf a is strictly greater than R_a is
    therefore farther than every row's kmax-th neighbor and ties none, so
    leaf a skips it, and takes every other leaf whole. A block that two
    leaves both need is computed once, by the first of them, and its
    transpose serves the other from a store capped at _STORE_BYTES
    (``euclidean`` is symmetric bit for bit); a block that did not fit is
    recomputed. ``select_knn_rows`` breaks ties by point index, whatever
    the order of the columns.

    A leaf with a non-finite distance raises at once. A leaf with a zero
    distance raises only after the last leaf has been checked for
    non-finite ones, and no later leaf is yielded, so a full graph and the
    stream fail with the same message.
    """
    points = _points(data)
    n = points.shape[0]
    _check_kmax(n, kmax)
    leaves = _leaves(points)
    order = np.concatenate(leaves)  # the point at each position of the leaf order
    pts = points[order]
    starts = np.cumsum([0] + [leaf.size for leaf in leaves])
    sizes = np.diff(starts)
    lo, hi = np.minimum.reduceat(pts, starts[:-1]).T, np.maximum.reduceat(pts, starts[:-1]).T
    gap, far = _box_bounds(lo[:, :, None], hi[:, :, None], lo[:, None, :], hi[:, None, :])
    by_far = np.argsort(far, axis=1)  # NaN last; a NaN R keeps every leaf
    count = np.cumsum(sizes[by_far], axis=1)
    R = np.take_along_axis(far, by_far, 1)[np.arange(sizes.size), np.argmax(count > kmax, 1)]
    need = ~(gap > R[:, None])  # need[a, b]: leaf a's rows take leaf b's points as columns
    shared = need & need.T
    leaf_of = np.repeat(np.arange(sizes.size), sizes)

    # One buffer each for the distances and the selections of the whole
    # build, the first grown to the widest leaf block.
    buf = np.empty(0)
    top = int(sizes.max())
    selected = np.empty((top, kmax), dtype=np.int32), np.empty((top, kmax))
    store: dict[tuple[int, int], np.ndarray] = {}  # (for leaf, from leaf) -> block
    zero = False
    for a, rows in enumerate(np.split(pts, starts[1:-1])):
        m = rows.shape[0]
        kept = [b for b in np.flatnonzero(shared[a, :a]).tolist() if (a, b) in store]
        # Room for the blocks of the nearest later partners.
        later = np.flatnonzero(shared[a, a + 1 :]) + a + 1
        held = sum(block.nbytes for block in store.values())
        later = later[held + np.cumsum(m * sizes[later] * 8) <= _STORE_BYTES]
        mine = need[a].copy()
        mine[kept] = False
        fresh = np.flatnonzero(mine[leaf_of])
        cols = np.concatenate([fresh, *(np.arange(starts[b], starts[b + 1]) for b in kept)])
        if buf.size < m * cols.size:
            buf = np.empty(m * cols.size)
        out = buf[: m * cols.size].reshape(m, cols.size)
        _fill_distances(rows, pts[fresh], out[:, : fresh.size])
        if kept:  # their points as columns
            np.concatenate([store.pop((a, b)) for b in kept], out=out[:, fresh.size :].T)
        own = np.searchsorted(fresh, starts[a]) + np.arange(m)
        idx, dist = (part[:m] for part in selected)
        select_knn_rows(out, own, kmax, order[cols], out=(idx, dist))
        for b, at in zip(later.tolist(), np.searchsorted(fresh, starts[later]).tolist()):
            store[b, a] = out[:, at : at + sizes[b]].copy()
        # Rows are non-decreasing with NaN last, so the last column is
        # finite only when every column is.
        if not np.isfinite(dist[:, -1]).all():
            raise ValueError(
                "non-finite distances in graph: a pairwise distance exceeds the float range"
                " or the input is not finite"
            )
        zero = zero or dist[:, 0].min() <= 0.0
        if not zero:
            yield leaves[a], idx, dist
    if zero:
        raise ValueError("zero distance in graph: input contains duplicate points")


def build_neighbor_graph(data: Dataset | np.ndarray, kmax: int) -> NeighborGraph:
    """Exact kNN graph for all points: the rows of ``leaf_selections``."""
    points = _points(data)
    _check_kmax(points.shape[0], kmax)
    indices = np.empty((points.shape[0], kmax), dtype=np.int32)
    distances = np.empty((points.shape[0], kmax), dtype=np.float64)
    for ids, idx, dist in leaf_selections(points, kmax):
        indices[ids], distances[ids] = idx, dist
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
        fh.write(np.ascontiguousarray(graph.indices, dtype="<i4"))  # as <u4: no index is negative
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
