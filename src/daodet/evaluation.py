"""Evaluation metrics, sweeps, and statistics for the benchmark harness.

Covers ranking quality (ROC AUC via the Mann-Whitney statistic), LID
profile structure (log-scale dispersion and Moran's I spatial
autocorrelation on the neighbor graph), best-k sweeps over detectors,
simple linear regression with analytic p-values, Friedman average ranks
with the Nemenyi critical distance, and per-run wall-clock timing.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import special, stats

from .dataset import Dataset
from .detectors import SCORERS, ScoreVector, dao_kernel, dao_log_ratios, score_dao
from .lid import LidProfile, estimate_profile, estimator_k_grid
from .neighbors import NeighborGraph, build_neighbor_graph, euclidean, select_knn_all

DEFAULT_K_RANGE = range(5, 101)


class IncompleteGridError(ValueError):
    """An analysis was asked for cells that the record table does not cover."""


@dataclass(frozen=True)
class EvalRecord:
    """Best-k result for one (dataset, detector, estimator) combination."""

    dataset: str
    detector: str
    lid_estimator: str | None
    best_k: int
    roc_auc: float
    dispersion_R: float
    morans_I: float
    morans_k: int
    best_lid_k: int | None = None
    runtime_mean_s: float | None = None
    runtime_std_s: float | None = None
    dim_c1: int | None = None
    dim_c2: int | None = None


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    p_value: float
    pearson_rho: float


def roc_auc(scores: ScoreVector | np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random outlier outscores a random inlier.

    Mann-Whitney U over all (outlier, inlier) pairs, normalized by the pair
    count; tied scores contribute half credit. Computed with midranks; a NaN
    score gives NaN.
    """
    s = scores.scores if isinstance(scores, ScoreVector) else np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("labels must contain both classes for ROC AUC")
    # Midranks from one stable sort: a tie group at sorted positions
    # [start, end) holds rank (start + end + 1) / 2. Every rank and partial
    # sum is a half-integer below 2**53, so the sum is exact in any order.
    order = np.argsort(s, kind="stable")
    ranked = s[order]
    if np.isnan(ranked[-1]):  # NaN sorts last
        return float("nan")
    edges = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1], True])
    midranks = (edges[:-1] + edges[1:] + 1) / 2.0
    pos_per_group = np.add.reduceat((y[order] == 1).astype(np.int64), edges[:-1])
    u = (midranks * pos_per_group).sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def dispersion_R(lids: LidProfile | np.ndarray) -> float:
    """Mean absolute pairwise difference of log LID estimates.

    Sorting turns the O(n^2) double sum over |ln id_i - ln id_j| into a
    prefix form: sum_i (2i - n + 1) * x_(i).
    """
    logs = lids.log_ids if isinstance(lids, LidProfile) else np.log(np.asarray(lids, dtype=float))
    n = logs.shape[0]
    if n < 2:
        raise ValueError("dispersion needs at least two points")
    x = np.sort(logs)
    total = float(((2.0 * np.arange(n) - n + 1.0) * x).sum())
    return 2.0 * total / (n * (n - 1))


def morans_I(
    values: np.ndarray, graph: NeighborGraph, k: int, weights: str = "row-normalized"
) -> float:
    """Global Moran's I over kNN neighborhoods, (n/W) sum w_ij z_i z_j / sum z_i^2.

    'row-normalized' weights (w_ij = 1/k for j among i's k nearest
    neighbors, so W = n) are the default and keep I softly bounded. The
    weight scheme is a convention, not part of the statistic; 'symmetric'
    (w_ij = 1 on the symmetrized kNN adjacency) is kept for comparison.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[0] != graph.n:
        raise ValueError("values length must match the graph")
    n = graph.n
    z = x - x.mean()
    denom = float((z**2).sum())
    if denom == 0.0:
        raise ValueError("Moran's I undefined: values have zero variance")
    nb, _ = graph.neighborhoods(k)
    if weights == "row-normalized":
        num = float((z * z[nb].mean(axis=1)).sum())
        w_total = float(n)
    elif weights == "symmetric":
        src = np.repeat(np.arange(n), k)
        dst = nb.ravel()
        edges = np.unique(
            np.concatenate([src * n + dst, dst * n + src])
        )
        num = float((z[edges // n] * z[edges % n]).sum())
        w_total = float(edges.size)
    else:
        raise ValueError(f"unknown weight scheme {weights!r}")
    return (n / w_total) * num / denom


def morans_I_maxmag(
    values: np.ndarray, graph: NeighborGraph, k_range: Iterable[int] = DEFAULT_K_RANGE
) -> tuple[float, int]:
    """The (I, k) maximizing |I| over k_range; ties take the smallest k."""
    best: tuple[float, int] | None = None
    for k in k_range:
        i_k = morans_I(values, graph, k)
        if best is None or abs(i_k) > abs(best[0]):
            best = (i_k, k)
    if best is None:
        raise ValueError("empty k_range")
    return best


def _t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail of Student's t via the regularized incomplete beta."""
    if not np.isfinite(t):
        return 0.0
    return float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))


def ols_regression(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Least-squares line with the two-sided slope t-test (df = n - 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float((xc**2).sum())
    if sxx == 0.0:
        raise ValueError("x has zero variance")
    sxy = float((xc * yc).sum())
    syy = float((yc**2).sum())
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    rho = 0.0 if syy == 0.0 else sxy / np.sqrt(sxx * syy)
    sse = syy - slope * sxy
    if sse <= 0.0:  # exact fit up to rounding
        p = 0.0 if slope != 0.0 else 1.0
    else:
        se = np.sqrt(sse / (n - 2) / sxx)
        p = _t_sf_two_sided(slope / se, n - 2)
    return RegressionResult(slope=slope, intercept=intercept, p_value=p, pearson_rho=float(rho))


# Nemenyi critical values q_alpha (studentized range at infinite df over
# sqrt(2)) for 2..10 methods.
_NEMENYI_Q = {
    0.10: (1.644854, 2.052293, 2.291341, 2.459516, 2.588521, 2.692732, 2.779884, 2.854606, 2.919889),
    0.05: (1.959964, 2.343701, 2.569032, 2.727774, 2.849705, 2.948320, 3.030878, 3.101730, 3.163684),
    0.01: (2.575829, 2.913494, 3.113250, 3.254686, 3.363740, 3.452213, 3.526471, 3.590339, 3.646292),
}


def nemenyi_q(alpha: float, n_methods: int) -> float:
    for key, row in _NEMENYI_Q.items():
        if abs(alpha - key) < 1e-12:
            if not 2 <= n_methods <= len(row) + 1:
                raise ValueError(f"no tabulated q for {n_methods} methods")
            return row[n_methods - 2]
    raise ValueError(f"alpha={alpha} not tabulated; supported: {sorted(_NEMENYI_Q)}")


def friedman_nemenyi(
    auc_table: np.ndarray, alpha: float = 0.05
) -> tuple[np.ndarray, float]:
    """Average ranks per method (rank 1 = highest AUC, ties averaged) and
    the Nemenyi critical distance q_alpha * sqrt(M(M+1) / 6N).

    auc_table has one row per dataset and one column per method; missing
    cells are not allowed.
    """
    table = np.asarray(auc_table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError("need at least 2 datasets and 2 methods")
    if not np.all(np.isfinite(table)):
        raise IncompleteGridError("AUC table contains missing cells")
    n_datasets, n_methods = table.shape
    ranks = np.vstack([stats.rankdata(-row, method="average") for row in table])
    avg_ranks = ranks.mean(axis=0)
    cd = nemenyi_q(alpha, n_methods) * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets))
    return avg_ranks, float(cd)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _truncate_k_range(k_range: Iterable[int], n: int) -> list[int]:
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k range must contain positive integers")
    kept = [k for k in ks if k <= n - 1]
    if not kept:
        raise ValueError(f"no usable k in range for n={n}")
    return kept


def _dao_sweep(graph, labels, det_ks, profiles):
    """Max-AUC DAO configuration over detector k x LID grid k.

    Iteration order is ascending in both, so a strict comparison keeps the
    smallest detector k (then smallest LID k) on AUC ties. The neighbor
    block and log-ratio matrix are built once per detector k and shared by
    every LID profile; each profile runs on its own (n, k) temporaries.
    """
    best = None
    lid_ks = sorted(profiles)
    for k in det_ks:
        ratios = dao_log_ratios(graph, k)
        for lid_k in lid_ks:
            auc = roc_auc(dao_kernel(profiles[lid_k].ids, *ratios), labels)
            if best is None or auc > best[0]:
                best = (auc, k, lid_k)
    return best


@dataclass(frozen=True)
class SweepConfig:
    detectors: tuple[str, ...] = ("knn", "lof", "slof", "dao")
    k_range: Sequence[int] = DEFAULT_K_RANGE
    lid_estimator: str = "mle"
    lid_k_grid: Sequence[int] | None = None   # None: standard grid truncated
    morans_k_range: Sequence[int] | None = None  # None: detector k range
    graph_method: str = "brute"


def evaluate_dataset(
    dataset: Dataset,
    config: SweepConfig = SweepConfig(),
    graph: NeighborGraph | None = None,
) -> list[EvalRecord]:
    """Best-k evaluation of each configured detector on one labeled dataset.

    One shared graph at the largest needed k serves every sweep. The
    dispersion and Moran's I columns describe the dataset's LID profile as
    consumed by the best dimensionality-aware configuration (falling back
    to the largest grid size when that detector is not requested), so they
    are identical across the dataset's records.
    """
    if dataset.labels is None:
        raise ValueError(f"dataset {dataset.name!r} has no labels")
    n = dataset.n
    det_ks = _truncate_k_range(config.k_range, n)
    lid_grid = (
        estimator_k_grid(n)
        if config.lid_k_grid is None
        else _truncate_k_range(config.lid_k_grid, n)
    )
    kmax = max(max(det_ks), max(lid_grid))
    if graph is None:
        graph = build_neighbor_graph(dataset, kmax, method=config.graph_method)
    elif graph.kmax < kmax:
        raise ValueError(f"provided graph kmax={graph.kmax} < needed {kmax}")

    profiles = {lk: estimate_profile(config.lid_estimator, graph, lk) for lk in lid_grid}

    dao_best = None
    if "dao" in config.detectors:
        dao_best = _dao_sweep(graph, dataset.labels, det_ks, profiles)

    ref_profile = profiles[dao_best[2]] if dao_best is not None else profiles[max(lid_grid)]
    disp = dispersion_R(ref_profile)
    morans_ks = _truncate_k_range(
        config.morans_k_range if config.morans_k_range is not None else det_ks, n
    )
    morans_ks = [k for k in morans_ks if k <= graph.kmax]
    try:
        mi, mk = morans_I_maxmag(ref_profile.log_ids, graph, morans_ks)
    except ValueError:  # constant profile: autocorrelation undefined
        mi, mk = float("nan"), morans_ks[0]

    records = []
    for det in config.detectors:
        if det == "dao":
            auc, best_k, best_lid_k = dao_best
            est: str | None = config.lid_estimator
        else:
            scorer = SCORERS[det]
            aucs = [(roc_auc(scorer(graph, k), dataset.labels), k) for k in det_ks]
            auc, best_k = max(aucs, key=lambda t: (t[0], -t[1]))
            best_lid_k, est = None, None
        records.append(
            EvalRecord(
                dataset=dataset.name,
                detector=det,
                lid_estimator=est,
                best_k=best_k,
                roc_auc=auc,
                dispersion_R=disp,
                morans_I=mi,
                morans_k=mk,
                best_lid_k=best_lid_k,
            )
        )
    return records


def best_k_sweep(
    dataset: Dataset,
    detector: str,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    lid_estimator: str = "mle",
    lid_k_grid: Sequence[int] | None = None,
    graph: NeighborGraph | None = None,
) -> EvalRecord:
    """Single-detector convenience wrapper around evaluate_dataset."""
    config = SweepConfig(
        detectors=(detector,),
        k_range=k_range,
        lid_estimator=lid_estimator,
        lid_k_grid=lid_k_grid,
    )
    return evaluate_dataset(dataset, config, graph=graph)[0]


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def _detector_runs(detector, det_ks, lid_grid, lid_estimator):
    """(k to select, scoring closure) per run of one detector.

    A baseline run covers one candidate neighborhood size; a
    dimensionality-aware run covers one (detector k, LID grid k) pair and
    includes its LID estimation pass.
    """
    runs = []
    if detector == "dao":
        for k in det_ks:
            for lid_k in lid_grid:
                def score(graph, k=k, lid_k=lid_k):
                    profile = estimate_profile(lid_estimator, graph, lid_k)
                    score_dao(graph, k, profile)
                runs.append((max(k, lid_k), score))
    elif detector in SCORERS:
        scorer = SCORERS[detector]
        for k in det_ks:
            runs.append((k, lambda graph, k=k: scorer(graph, k)))
    else:
        raise ValueError(f"unknown detector {detector!r}")
    return runs


def time_detectors(
    dataset: Dataset,
    detectors: Sequence[str],
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    lid_estimator: str = "mle",
    lid_k_grid: Sequence[int] | None = None,
) -> dict[str, tuple[float, float]]:
    """Mean and standard deviation of per-run wall-clock seconds per detector.

    A run determines the k-NN sets of all points from the shared pairwise
    distances at the run's k, then scores. The distance matrix is shared
    by every method and excluded from the timing. Runs of different
    detectors are interleaved round-robin after an untimed warmup so that
    machine-state drift cannot bias one detector's mean against another's.
    """
    n = dataset.n
    det_ks = _truncate_k_range(k_range, n)
    lid_grid = (
        estimator_k_grid(n)
        if lid_k_grid is None
        else _truncate_k_range(lid_k_grid, n)
    )
    pts = dataset.points
    dists = np.empty((n, n))
    for start in range(0, n, 128):  # chunked to bound peak memory
        rows = slice(start, min(start + 128, n))
        dists[rows] = euclidean(pts[rows][:, None, :], pts[None, :, :])

    def run(k_sets: int, score) -> float:
        t0 = time.perf_counter()
        indices, distances = select_knn_all(dists, k_sets)
        graph = NeighborGraph(
            indices=indices, distances=distances, kmax=k_sets, n_features=dataset.dim
        )
        score(graph)
        return time.perf_counter() - t0

    per_detector = {
        det: _detector_runs(det, det_ks, lid_grid, lid_estimator) for det in detectors
    }
    for runs in per_detector.values():
        for k_sets, score in runs[:2] * 2:  # untimed warmup round
            run(k_sets, score)
    times: dict[str, list[float]] = {det: [] for det in per_detector}
    longest = max(len(runs) for runs in per_detector.values())
    for i in range(longest):
        for det, runs in per_detector.items():
            if i < len(runs):
                times[det].append(run(*runs[i]))
    return {det: (float(np.mean(ts)), float(np.std(ts))) for det, ts in times.items()}


def time_detector(
    dataset: Dataset,
    detector: str,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    lid_estimator: str = "mle",
    lid_k_grid: Sequence[int] | None = None,
) -> tuple[float, float]:
    """Single-detector wrapper around time_detectors."""
    return time_detectors(dataset, [detector], k_range, lid_estimator, lid_k_grid)[detector]



# ---------------------------------------------------------------------------
# Record CSV I/O
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "dataset", "detector", "lid_estimator", "best_k", "best_lid_k", "roc_auc",
    "dispersion_R", "morans_I", "morans_k", "runtime_mean_s", "runtime_std_s",
    "dim_c1", "dim_c2",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records: Sequence[EvalRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, col)) for col in _CSV_COLUMNS])


def read_records_csv(path: str | Path) -> list[EvalRecord]:
    def opt_int(s):
        return int(s) if s else None

    def opt_float(s):
        return float(s) if s else None

    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"records file {path} lacks columns {sorted(missing)}")
        for row in reader:
            records.append(
                EvalRecord(
                    dataset=row["dataset"],
                    detector=row["detector"],
                    lid_estimator=row["lid_estimator"] or None,
                    best_k=int(row["best_k"]),
                    roc_auc=float(row["roc_auc"]),
                    dispersion_R=float(row["dispersion_R"]),
                    morans_I=float(row["morans_I"]),
                    morans_k=int(row["morans_k"]),
                    best_lid_k=opt_int(row["best_lid_k"]),
                    runtime_mean_s=opt_float(row["runtime_mean_s"]),
                    runtime_std_s=opt_float(row["runtime_std_s"]),
                    dim_c1=opt_int(row["dim_c1"]),
                    dim_c2=opt_int(row["dim_c2"]),
                )
            )
    return records


def with_dims(record: EvalRecord, dim_c1: int | None, dim_c2: int | None) -> EvalRecord:
    return replace(record, dim_c1=dim_c1, dim_c2=dim_c2)


def with_timing(record: EvalRecord, mean_s: float, std_s: float) -> EvalRecord:
    return replace(record, runtime_mean_s=mean_s, runtime_std_s=std_s)
