"""Per-point local intrinsic dimensionality (LID) estimators.

Two estimators are built in: the Hill-type maximum-likelihood estimator
over k-NN distances (mle) and the two-nearest-neighbor point estimate
(twonn). Estimates are clamped into [ID_FLOOR, 4 * n_features] so
downstream exponentiation never sees a non-finite or zero value;
degenerate tied neighborhoods clamp to the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import _write_rows
from .neighbors import _BLOCK_BYTES, NeighborGraph, _check_k

ID_FLOOR = 0.05

# Neighborhood sizes swept when profiling LID for the harness.
K_GRID = (5, 10, 15, 30, 50, 90, 150, 260, 320, 450, 560, 780)


class FeatureUnavailableError(NotImplementedError):
    """An optional, feature-gated estimator that is not built."""


@dataclass(frozen=True)
class LidProfile:
    """Per-point LID estimates from one estimator at one neighborhood size."""

    estimator: str
    k_used: int
    ids: np.ndarray       # (n,) finite positives within [ID_FLOOR, 4 * n_features]
    log_ids: np.ndarray   # natural logs of ids

    def __post_init__(self):
        self.ids.flags.writeable = False
        self.log_ids.flags.writeable = False

    @property
    def n(self) -> int:
        return self.ids.shape[0]


def _finish(estimator: str, k_used: int, raw: np.ndarray, n_features: int) -> LidProfile:
    cap = 4.0 * n_features
    ids = np.clip(np.where(np.isfinite(raw), raw, cap), ID_FLOOR, cap)
    return LidProfile(estimator=estimator, k_used=k_used, ids=ids, log_ids=np.log(ids))


def estimate_mle(graph: NeighborGraph, k: int) -> LidProfile:
    """Hill-type MLE: id(i) = -1 / mean_{j<=k} ln(d_ij / d_ik).

    The mean runs over all k log-ratios including the zero j=k term. A
    fully tied neighborhood (all d_ij = d_ik) diverges and clamps to the cap.

    It recovers the dimension m where the data are locally uniform out to
    d_ik, i.e. the neighbor count grows as r^m within that radius. On a
    bounded support this needs the ball B(x_i, d_ik) inside the support
    (for the unit ball, |x_i| + d_ik <= 1); where the boundary cuts into
    it, the estimate falls below m.
    """
    if k < 2:
        raise ValueError(f"mle needs k >= 2, got {k}")
    _check_k(graph, k)
    d = graph.distances[:, :k]
    mean_log = np.empty(graph.n)
    # Row blocks keep the (rows, k) temporary under _BLOCK_BYTES; each row's
    # mean still reduces the same k contiguous values.
    rows = max(1, _BLOCK_BYTES // (8 * k))
    with np.errstate(divide="ignore"):
        for start in range(0, graph.n, rows):
            block = d[start : start + rows]
            ratio = block / block[:, k - 1 : k]
            mean_log[start : start + rows] = np.log(ratio, out=ratio).mean(axis=1)
        raw = np.where(mean_log < 0.0, -1.0 / mean_log, np.inf)
    return _finish("mle", k, raw, graph.n_features)


def estimate_twonn(graph: NeighborGraph) -> LidProfile:
    """Two-NN point estimate: id(i) = ln 2 / ln(d_i2 / d_i1).

    Under local uniformity ln(d_i2 / d_i1) ~ Exp(m), so the estimate is
    median-unbiased (P(id <= m) = 1/2, which is what the ln 2 is for) and
    has no finite mean: only the cap keeps the mean of a profile finite.
    Summarize a profile by its median, not its mean.
    """
    if graph.kmax < 2:
        raise ValueError("twonn needs kmax >= 2")
    ratio = graph.distances[:, 1] / graph.distances[:, 0]
    with np.errstate(divide="ignore"):
        raw = np.where(ratio > 1.0, np.log(2.0) / np.log(ratio), np.inf)
    return _finish("twonn", 2, raw, graph.n_features)


ESTIMATORS = {"mle": estimate_mle, "twonn": lambda graph, k: estimate_twonn(graph)}


def check_estimator(estimator: str) -> None:
    """Raise unless ``estimator`` names a built estimator.

    The gated tle raises FeatureUnavailableError; any other unknown name
    raises ValueError.
    """
    if estimator == "tle":
        raise FeatureUnavailableError("the tle estimator is not built; use 'mle' or 'twonn'")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}")


def estimate_profile(estimator: str, graph: NeighborGraph, k: int) -> LidProfile:
    check_estimator(estimator)
    return ESTIMATORS[estimator](graph, k)


def write_profile_csv(profile: LidProfile, path: str | Path) -> None:
    ids = np.asarray(profile.ids, dtype=np.float64).tolist()
    log_ids = np.asarray(profile.log_ids, dtype=np.float64).tolist()
    _write_rows(path, ["point_index", "id", "log_id"], zip(range(profile.n), ids, log_ids))
