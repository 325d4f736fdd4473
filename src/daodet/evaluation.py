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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset, write_table
from .detectors import DETECTORS, SCORERS, ScoreVector, dao_kernel, dao_log_ratios, score_dao
from .lid import (
    ESTIMATORS,
    K_GRID,
    LidProfile,
    _finish,
    check_estimator,
    check_lid_k,
    estimate_profile,
    profile_k,
)
from .neighbors import (
    _BLOCK_BYTES,
    NeighborGraph,
    build_neighbor_graph,  # noqa: F401 (unused here; perfbench/spans.py traces this name)
    distance_matrix,
    leaf_selections,
    select_knn_all,
)

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


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie groups of ``values`` under one stable sort, and their midranks.

    Returns (order, edges, midranks): group g holds the sorted positions
    [edges[g], edges[g + 1]), and each of its values ranks
    (edges[g] + edges[g + 1] + 1) / 2, ties sharing their average rank
    (1 = smallest). Every rank and partial sum of ranks is a half-integer
    below 2**53, so sums of ranks are exact in any order. NaN sorts last.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    edges = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1], True])
    return order, edges, (edges[:-1] + edges[1:] + 1) / 2.0


def roc_auc(scores: ScoreVector | np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random outlier outscores a random inlier.

    Mann-Whitney U over all (outlier, inlier) pairs, normalized by the pair
    count; tied scores contribute half credit. Each outlier is located among
    the sorted inlier scores: it beats the inliers left of its equal run and
    ties the run, so 2U is an exact integer count and the AUC equals the
    midrank formula bit for bit. A NaN score gives NaN.
    """
    s = scores.scores if isinstance(scores, ScoreVector) else np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    pos = s[y == 1]
    neg = np.sort(s[y == 0])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("labels must contain both classes for ROC AUC")
    if np.isnan(neg[-1]) or np.isnan(pos).any():  # NaN sorts last
        return float("nan")
    two_u = int(np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum())
    return two_u / (2 * pos.size * neg.size)


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


def morans_I(values: np.ndarray, graph: NeighborGraph, k: int) -> float:
    """Global Moran's I over kNN neighborhoods, (n/W) sum w_ij z_i z_j / sum z_i^2.

    Weights are row-normalized (w_ij = 1/k for j among i's k nearest
    neighbors, so W = n), which keeps I softly bounded.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[0] != graph.n:
        raise ValueError("values length must match the graph")
    z = x - x.mean()
    denom = float((z**2).sum())
    if denom == 0.0:
        raise ValueError("Moran's I undefined: values have zero variance")
    return float((z * graph.gather(z, k).mean(axis=1)).sum()) / denom


def morans_I_maxmag(
    values: np.ndarray, graph: NeighborGraph, k_range: Iterable[int]
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
    from scipy import special  # imported here: only report tables need it

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
    ranks = np.empty_like(table)
    for row, row_ranks in zip(table, ranks):
        order, edges, midranks = _midranks(-row)
        row_ranks[order] = np.repeat(midranks, np.diff(edges))
    avg_ranks = ranks.mean(axis=0)
    cd = nemenyi_q(alpha, n_methods) * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets))
    return avg_ranks, float(cd)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _truncate_k_range(k_range: Iterable[int], n: int) -> list[int]:
    ks = sorted(set(int(k) for k in k_range))
    kept = [k for k in ks if k <= n - 1]
    if not kept:
        raise ValueError(f"no usable k in range for n={n}")
    return kept


def _best_config(graph, labels, detector, det_ks, profiles):
    """Max-AUC (auc, k, lid_k) of one detector; lid_k is None for a baseline.

    Candidates come in ascending detector k, then ascending LID k, and a
    strict comparison keeps the earlier one, so AUC ties and NaN keep the
    smallest k. DAO takes each detector k in row blocks: a block's
    neighbors, log ratios and kernel temporary stay under _BLOCK_BYTES, are
    shared across every LID profile, and are freed before the next block
    builds its own. Each profile's scores fill one n-vector, and every score
    is the mean of the same k contiguous terms as an unblocked kernel's.
    """
    best = None

    def consider(scores, k, lid_k):
        nonlocal best
        auc = roc_auc(scores, labels)
        if best is None or auc > best[0]:
            best = (auc, k, lid_k)

    if detector == "dao":
        lid_ks = sorted(profiles)
        scores = np.empty((len(lid_ks), graph.n))
        for k in det_ks:
            rows = max(1, _BLOCK_BYTES // (3 * 8 * k))
            for start in range(0, graph.n, rows):
                block = slice(start, start + rows)
                ratios = dao_log_ratios(graph, k, block)
                for out, lid_k in zip(scores, lid_ks):
                    out[block] = dao_kernel(profiles[lid_k].ids, *ratios)
                del ratios
            for out, lid_k in zip(scores, lid_ks):
                consider(out, k, lid_k)
    else:
        scorer = SCORERS[detector]  # looked up per call: tracers wrap the entries
        for k in det_ks:
            consider(scorer(graph, k), k, None)
    return best


@dataclass(frozen=True)
class SweepConfig:
    """The best-k protocol: detectors swept over k_range, DAO also over
    lid_k_grid (None: lid.K_GRID) with one LID estimator.

    Names and k ranges are checked here, and ``grids`` is the only code
    that fits the k ranges to a dataset.
    """

    detectors: tuple[str, ...] = DETECTORS
    k_range: Sequence[int] = DEFAULT_K_RANGE
    lid_estimator: str = "mle"
    lid_k_grid: Sequence[int] | None = None

    def __post_init__(self):
        for i, det in enumerate(self.detectors):
            if det not in DETECTORS:
                raise ValueError(f"unknown detector {det!r}; choose from {DETECTORS}")
            if det in self.detectors[:i]:
                raise ValueError(f"detector {det!r} is named twice")
        check_estimator(self.lid_estimator)
        for name, ks in (("k range", self.k_range), ("LID k grid", self.lid_k_grid)):
            if ks is not None and (not ks or min(ks) < 1):
                raise ValueError(f"{name} must contain positive integers")
        if self.lid_k_grid is not None:
            check_lid_k(self.lid_estimator, min(self.lid_k_grid), "every LID grid size")

    def grids(self, n: int) -> tuple[list[int], list[int], int]:
        """(detector ks, LID grid ks, graph kmax) for a dataset of n points.

        Both ranges are sorted and truncated to k <= n - 1; kmax is the
        largest k either needs.
        """
        det_ks = _truncate_k_range(self.k_range, n)
        lid_ks = _truncate_k_range(K_GRID if self.lid_k_grid is None else self.lid_k_grid, n)
        return det_ks, lid_ks, max(det_ks[-1], lid_ks[-1])


def _distinct_profiles(estimator: str, lid_ks: list[int], kmax: int) -> dict[int, int]:
    """{k_used: the first grid k that gives it}: twonn ignores k, and a
    repeated profile could only tie the first one."""
    firsts: dict[int, int] = {}
    for lk in lid_ks:
        firsts.setdefault(profile_k(estimator, lk, kmax), lk)
    return firsts


def _streamed_inputs(
    dataset: Dataset, kmax: int, keep: int, estimator: str, lid_ks: list[int]
) -> tuple[NeighborGraph, dict[int, LidProfile]]:
    """(graph, profiles) from one graph build at kmax, consumed leaf by leaf.

    The graph holds each row's first ``keep`` neighbors. Each distinct
    profile's raw rows are estimated from the leaf's full rows before the
    build reuses its buffer, by the same formula as ``estimate_profile``,
    so the profiles are those of the full graph bit for bit.
    """
    firsts = _distinct_profiles(estimator, lid_ks, kmax)
    formula = ESTIMATORS[estimator]
    n = dataset.n
    indices = np.empty((n, keep), dtype=np.int32)
    distances = np.empty((n, keep))
    raws = {k_used: np.empty(n) for k_used in firsts}
    buf = np.empty(0)  # the formula's scratch, grown to the largest leaf
    for ids, idx, dist in leaf_selections(dataset, kmax):
        indices[ids], distances[ids] = idx[:, :keep], dist[:, :keep]
        if buf.size < dist.shape[0] * max(raws):
            buf = np.empty(dist.shape[0] * max(raws))
        for k_used, raw in raws.items():
            raw[ids] = formula(dist, k_used, buf)
    graph = NeighborGraph(indices=indices, distances=distances, kmax=keep, n_features=dataset.dim)
    profiles = {
        lk: _finish(estimator, k_used, raws[k_used], dataset.dim) for k_used, lk in firsts.items()
    }
    return graph, profiles


def evaluate_dataset(
    dataset: Dataset,
    config: SweepConfig = SweepConfig(),
    graph: NeighborGraph | None = None,
) -> list[EvalRecord]:
    """Best-k evaluation of each configured detector on one labeled dataset.

    Every sweep reads at most max(k range) neighbors of a point, and the
    LID profiles up to the grid's largest k. Without ``graph``, one build
    at the largest needed k is consumed one leaf at a time: the sweeps get
    a graph of each row's first max(k range) neighbors, and every distinct
    LID profile is estimated from each leaf's full rows, so the (n, kmax)
    graph is never held. A given ``graph`` serves both, and gives the same
    records. The dispersion and Moran's I columns describe the dataset's
    LID profile as consumed by the best dimensionality-aware configuration
    (falling back to the largest grid size swept when that detector is not
    requested), so they are identical across the dataset's records.
    """
    if dataset.labels is None:
        raise ValueError(f"dataset {dataset.name!r} has no labels")
    det_ks, lid_ks, kmax = config.grids(dataset.n)
    if graph is None:
        graph, profiles = _streamed_inputs(
            dataset, kmax, det_ks[-1], config.lid_estimator, lid_ks
        )
    elif graph.kmax < kmax:
        raise ValueError(f"provided graph kmax={graph.kmax} < needed {kmax}")
    else:
        firsts = _distinct_profiles(config.lid_estimator, lid_ks, graph.kmax)
        profiles = {lk: estimate_profile(config.lid_estimator, graph, lk) for lk in firsts.values()}

    best = {
        det: _best_config(graph, dataset.labels, det, det_ks, profiles)
        for det in config.detectors
    }
    # DAO's best LID profile feeds the dispersion and Moran's I columns.
    ref_profile = profiles[best["dao"][2]] if "dao" in best else profiles[max(profiles)]
    disp = dispersion_R(ref_profile)
    try:
        mi, mk = morans_I_maxmag(ref_profile.log_ids, graph, det_ks)
    except ValueError:  # constant profile: autocorrelation undefined
        mi, mk = float("nan"), det_ks[0]

    return [
        EvalRecord(
            dataset=dataset.name,
            detector=det,
            lid_estimator=None if best_lid_k is None else config.lid_estimator,
            best_k=best_k,
            roc_auc=auc,
            dispersion_R=disp,
            morans_I=mi,
            morans_k=mk,
            best_lid_k=best_lid_k,
        )
        for det, (auc, best_k, best_lid_k) in best.items()
    ]


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def _detector_runs(detector, det_ks, lid_ks, lid_estimator):
    """(k to select, scoring closure) per run of one detector.

    A baseline run covers one candidate neighborhood size; a
    dimensionality-aware run covers one (detector k, LID grid k) pair and
    includes its LID estimation pass.
    """
    runs = []
    if detector == "dao":
        for k in det_ks:
            for lid_k in lid_ks:
                def score(graph, k=k, lid_k=lid_k):
                    profile = estimate_profile(lid_estimator, graph, lid_k)
                    score_dao(graph, k, profile)
                runs.append((max(k, lid_k), score))
    else:
        scorer = SCORERS[detector]
        for k in det_ks:
            runs.append((k, lambda graph, k=k: scorer(graph, k)))
    return runs


def time_detectors(
    dataset: Dataset, config: SweepConfig = SweepConfig()
) -> dict[str, tuple[float, float]]:
    """Mean and standard deviation of per-run wall-clock seconds per detector.

    A run determines the k-NN sets of all points from the shared pairwise
    distances at the run's k, then scores. The distance matrix is shared
    by every method and excluded from the timing. Runs of different
    detectors are interleaved round-robin after an untimed warmup so that
    machine-state drift cannot bias one detector's mean against another's.
    """
    det_ks, lid_ks, _ = config.grids(dataset.n)
    dists = distance_matrix(dataset)

    def run(k_sets: int, score) -> float:
        t0 = time.perf_counter()
        indices, distances = select_knn_all(dists, k_sets)
        graph = NeighborGraph(
            indices=indices, distances=distances, kmax=k_sets, n_features=dataset.dim
        )
        score(graph)
        return time.perf_counter() - t0

    per_detector = {
        det: _detector_runs(det, det_ks, lid_ks, config.lid_estimator)
        for det in config.detectors
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


def time_detector(dataset: Dataset, detector: str, **plan) -> tuple[float, float]:
    """time_detectors for one detector; ``plan`` holds the other SweepConfig fields."""
    return time_detectors(dataset, SweepConfig((detector,), **plan))[detector]


# ---------------------------------------------------------------------------
# Record CSV I/O
# ---------------------------------------------------------------------------

def _optional(parse):
    return lambda text: parse(text) if text else None


# The records schema: each column, in file order, and its cell parser. A
# required column's is int, float or str; an optional one reads "" as None.
_CSV_COLUMNS = {
    "dataset": str, "detector": str, "lid_estimator": _optional(str), "best_k": int,
    "best_lid_k": _optional(int), "roc_auc": float, "dispersion_R": float,
    "morans_I": float, "morans_k": int, "runtime_mean_s": _optional(float),
    "runtime_std_s": _optional(float), "dim_c1": _optional(int), "dim_c2": _optional(int),
}


def write_records_csv(records: Sequence[EvalRecord], path: str | Path) -> None:
    """Write ``records`` to ``path`` atomically (see ``dataset.write_table``)."""
    rows = ([getattr(rec, col) for col in _CSV_COLUMNS] for rec in records)
    write_table(path, list(_CSV_COLUMNS), rows)


def read_records_csv(path: str | Path) -> list[EvalRecord]:
    """Read a ``write_records_csv`` file. A missing, empty required or
    malformed cell raises ValueError naming the file, line and column."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"records file {path} lacks columns {sorted(missing)}")
        for row in reader:
            fields = {}
            for col, parse in _CSV_COLUMNS.items():
                text = row[col]  # None in a short row
                try:
                    if text is None or (not text and parse in (int, float, str)):
                        raise ValueError("missing cell" if text is None else "empty cell")
                    fields[col] = parse(text)
                except ValueError as exc:
                    raise ValueError(
                        f"records file {path}, line {reader.line_num}, column {col}: {exc}"
                    ) from None
            records.append(EvalRecord(**fields))
    return records
