"""Outlier scorers: kNN distance, LOF, Simplified LOF, and DAO.

All four consume a shared NeighborGraph; higher scores mean more outlying.
DAO generalizes SLOF by raising each kdist ratio to the estimated LID of
the neighbor, and reduces to SLOF exactly when every LID equals 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .lid import LidProfile
from .neighbors import NeighborGraph, _check_k, kdist_column

# |id * ln(ratio)| is clipped here so extreme neighborhoods cannot push
# exp() outside the finite positive range.
_EXP_CLIP = 700.0

DETECTORS = ("knn", "lof", "slof", "dao")


@dataclass(frozen=True)
class ScoreVector:
    """Per-point outlier scores from one detector at one neighborhood size."""

    detector: str
    k: int
    scores: np.ndarray
    lid_estimator: str | None = None

    def __post_init__(self):
        self.scores.flags.writeable = False

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def score_knn(graph: NeighborGraph, k: int) -> ScoreVector:
    """Score each point by the distance to its k-th nearest neighbor."""
    return ScoreVector("knn", k, kdist_column(graph, k).copy())


def score_slof(graph: NeighborGraph, k: int) -> ScoreVector:
    """Simplified LOF: mean over neighbors o of kdist(q) / kdist(o)."""
    kd = kdist_column(graph, k)
    ratio = graph.gather(kd, k)
    np.divide(kd[:, None], ratio, out=ratio)
    return ScoreVector("slof", k, ratio.mean(axis=1))


def score_lof(graph: NeighborGraph, k: int) -> ScoreVector:
    """Local Outlier Factor.

    reach(p <- s) = max(kdist(s), d(p, s)); lrd(p) is the inverse mean
    reachability over NN_k(p); the score is the mean lrd ratio of the
    neighbors to the query.
    """
    kd = kdist_column(graph, k)
    reach = graph.gather(kd, k)
    np.maximum(reach, graph.distances[:, :k], out=reach)
    lrd = k / reach.sum(axis=1)
    del reach  # so the gather below is the only (n, k) block held
    scores = graph.gather(lrd, k).mean(axis=1) / lrd
    return ScoreVector("lof", k, scores)


def dao_log_ratios(
    graph: NeighborGraph, k: int, rows: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray, float]:
    """The LID-independent part of DAO at neighborhood size k.

    Returns the contiguous neighbor block nb of ``rows`` (all points by
    default), the matrix ln kdist(q) - ln kdist(o) over those neighbors,
    and its largest magnitude. A sweep builds these once per k and row
    block and shares them across every LID profile; each element is the
    same whatever the block.
    """
    lkd = np.log(kdist_column(graph, k))
    nb = graph.indices[rows, :k].astype(np.intp)  # take gathers faster by intp
    log_ratio = np.take(lkd, nb)
    np.subtract(lkd[rows, None], log_ratio, out=log_ratio)
    return nb, log_ratio, float(max(log_ratio.max(), -log_ratio.min()))


def dao_kernel(
    ids: np.ndarray, nb: np.ndarray, log_ratio: np.ndarray, ratio_max: float
) -> np.ndarray:
    """DAO scores from per-point LIDs and the output of dao_log_ratios.

    Computes mean over neighbors of exp(id(o) * ln ratio), with the product
    clipped to +-_EXP_CLIP. When max|id| * max|ln ratio| is within the clip
    the clip is the identity, so it is skipped; a NaN bound clips.
    """
    t = np.take(ids, nb)
    t *= log_ratio
    if not float(np.abs(ids).max()) * ratio_max <= _EXP_CLIP:
        np.clip(t, -_EXP_CLIP, _EXP_CLIP, out=t)
    np.exp(t, out=t)
    return t.mean(axis=1)


def score_dao(graph: NeighborGraph, k: int, lids: LidProfile) -> ScoreVector:
    """Dimensionality-aware outlierness.

    score(q) = mean over neighbors o of (kdist(q) / kdist(o)) ** id(o),
    with the exponent taken at the neighbor. Computed as exp(id * ln ratio)
    with the product clipped to keep every term finite and positive.
    """
    _check_k(graph, k)
    if lids.n != graph.n:
        raise ValueError(f"lid profile length {lids.n} does not match n={graph.n}")
    scores = dao_kernel(lids.ids, *dao_log_ratios(graph, k))
    return ScoreVector("dao", k, scores, lid_estimator=lids.estimator)


SCORERS = {"knn": score_knn, "lof": score_lof, "slof": score_slof}

