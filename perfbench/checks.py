"""Output checks for one repetition of a workload.

At the default seed every output is compared with the SHA-256 hashes stored
in ``expected.json``: ``records.csv`` (runtime columns blanked, since they
are measurements), every report artifact and, where the chain writes the
graph cache, every ``.knn`` entry (named by its key, a hash of the points). At any other seed an independent oracle
spot-checks sampled datasets: sampled graph rows must equal the canonical
distance ``sqrt(sum((a - b) ** 2))`` (as an einsum reduction) with ties
broken by ascending index, and every record's AUC must equal the all-pairs
Mann-Whitney count at the record's k. Checks are made per dataset; a file
that belongs to no single dataset fails all of them when it differs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct
from pathlib import Path

import numpy as np

RUNTIME_COLUMNS = ("runtime_mean_s", "runtime_std_s")
ORACLE_ROWS = 16


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_records(path: Path, blank_runtime: bool) -> tuple[str, dict[str, list[dict]], dict[str, str]]:
    """(file hash, rows per dataset, row hash per dataset).

    With ``blank_runtime`` the runtime columns are emptied before hashing.
    """
    raw = path.read_bytes()
    rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
    header, body = rows[0], rows[1:]
    if blank_runtime:
        blank = [header.index(c) for c in RUNTIME_COLUMNS]
        for row in body:
            for j in blank:
                row[j] = ""
        raw = _csv_bytes([header] + body)
    per_dataset: dict[str, list[list[str]]] = {}
    for row in body:
        per_dataset.setdefault(row[0], []).append(row)
    hashes = {name: sha256_bytes(_csv_bytes(r)) for name, r in per_dataset.items()}
    dicts = {name: [dict(zip(header, r)) for r in rs] for name, rs in per_dataset.items()}
    return sha256_bytes(raw), dicts, hashes


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def read_dataset(csv_path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Points and labels of a generated dataset CSV (label is the last column)."""
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    return np.ascontiguousarray(table[:, :-1]), table[:, -1].astype(np.int64)


def cache_file(cache: Path, points: np.ndarray, kmax: int) -> Path:
    """The cache entry of a dataset: SHA-256 of the points' bytes and the key suffix."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(points).tobytes())
    h.update(f"|kmax={kmax}|metric=euclidean".encode())
    return cache / f"{h.hexdigest()}.knn"


def digest(workload, data: Path, rep: Path, cache: Path | None) -> dict:
    """Hashes of one repetition's outputs, per file and per dataset."""
    files = {}
    records_hash, _, row_hashes = read_records(rep / "records.csv", workload.timing)
    files["records.csv"] = records_hash
    report = rep / "report"
    if report.is_dir():
        for path in sorted(report.iterdir()):
            files[f"report/{path.name}"] = sha256_file(path)
    if workload.cold_cache:  # the chain wrote these graph cache entries
        for path in sorted(cache.glob("*.knn")):
            files[f"cache/{path.name}"] = sha256_file(path)
    datasets = {path.stem: {"records": row_hashes.get(path.stem)}
                for path in sorted(data.glob("*.csv"))}
    return {"files": files, "datasets": datasets}


def compare(expected: dict, observed: dict) -> dict[str, str]:
    """Failing dataset -> reason, comparing two digests."""
    failed = {}
    for name, want in expected["datasets"].items():
        got = observed["datasets"].get(name)
        if got != want:
            failed[name] = f"outputs of {name} differ: expected {want}, got {got}"
    for name in observed["datasets"].keys() - expected["datasets"].keys():
        failed[name] = f"unexpected dataset {name}"
    bad_files = sorted(
        f for f in expected["files"].keys() | observed["files"].keys()
        if expected["files"].get(f) != observed["files"].get(f)
    )
    if bad_files == ["records.csv"] and failed:
        bad_files = []  # the differing rows already name the failing datasets
    if bad_files:
        for name in expected["datasets"].keys() | observed["datasets"].keys():
            failed.setdefault(name, f"files differ: {', '.join(bad_files)}")
    return failed


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def read_knn(path: Path, n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse a cache entry: little-endian {n, kmax} uint32, uint32 indices,
    float64 distances, both row-major."""
    raw = path.read_bytes()
    n_file, k_file = struct.unpack_from("<II", raw, 0)
    if (n_file, k_file) != (n, kmax) or len(raw) != 8 + n * kmax * 12:
        raise ValueError(f"{path.name}: header {n_file}x{k_file}, size {len(raw)}; "
                         f"expected {n}x{kmax}")
    idx = np.frombuffer(raw, dtype="<u4", count=n * kmax, offset=8).reshape(n, kmax)
    dist = np.frombuffer(raw, dtype="<f8", count=n * kmax, offset=8 + n * kmax * 4)
    return idx.astype(np.int64), dist.reshape(n, kmax).astype(np.float64)


def oracle_row(points: np.ndarray, i: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kmax nearest neighbors of point i, ties by ascending index."""
    diff = points[i] - points
    dist = np.sqrt(np.einsum("...i,...i->...", diff, diff))
    dist[i] = np.inf
    order = np.lexsort((np.arange(points.shape[0]), dist))[:kmax]
    return order, dist[order]


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC from the all-pairs count: outlier above inlier 1, tie 1/2."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    above = ties = 0
    for start in range(0, pos.size, 64):
        block = pos[start:start + 64, None]
        above += int((block > neg[None, :]).sum())
        ties += int((block == neg[None, :]).sum())
    return (above + 0.5 * ties) / (pos.size * neg.size)


def oracle_check(workload, csv_path: Path, records: list[dict], cache: Path | None,
                 rng: np.random.Generator) -> str | None:
    """None when the dataset passes, else the first discrepancy found."""
    from daodet import detectors, lid, neighbors

    points, labels = read_dataset(csv_path)
    n, kmax = points.shape[0], workload.kmax
    knn = cache_file(cache, points, kmax) if cache is not None else None
    if knn is not None and knn.exists():
        indices, distances = read_knn(knn, n, kmax)
    else:
        graph = neighbors.build_neighbor_graph(points, kmax)
        indices, distances = graph.indices, graph.distances
    for i in rng.choice(n, size=ORACLE_ROWS, replace=False):
        want_idx, want_dist = oracle_row(points, int(i), kmax)
        if not (np.array_equal(indices[i], want_idx)
                and np.array_equal(distances[i].view(np.uint64), want_dist.view(np.uint64))):
            return f"graph row {i} differs from the oracle"
    graph = neighbors.NeighborGraph(indices=indices, distances=distances, kmax=kmax,
                                    n_features=points.shape[1])
    if sorted(r["detector"] for r in records) != sorted(detectors.DETECTORS):
        return f"records cover {sorted(r['detector'] for r in records)}"
    for rec in records:
        k = int(rec["best_k"])
        if rec["detector"] == "dao":
            profile = lid.estimate_profile("mle", graph, int(rec["best_lid_k"]))
            scores = detectors.score_dao(graph, k, profile)
        else:
            scores = detectors.SCORERS[rec["detector"]](graph, k)
        auc = mann_whitney_auc(scores.scores, labels)
        if float(rec["roc_auc"]) != auc:
            return f"{rec['detector']} AUC {rec['roc_auc']} != all-pairs count {auc!r} at k={k}"
    return None
