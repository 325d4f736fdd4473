"""Dimensionality-aware outlier detection toolkit.

Outlier scorers (kNN distance, LOF, Simplified LOF, and the LID-weighted
DAO criterion), per-point local intrinsic dimensionality estimators, a
synthetic two-cluster benchmark generator, and the evaluation machinery
to compare detectors across datasets.
"""

from .dataset import Dataset, DatasetError, feature_distinctness, load_csv, write_csv
from .detectors import DETECTORS, ScoreVector, score_dao, score_knn, score_lof, score_slof
from .evaluation import (
    EvalRecord,
    RegressionResult,
    SweepConfig,
    dispersion_R,
    evaluate_dataset,
    friedman_nemenyi,
    morans_I,
    morans_I_maxmag,
    ols_regression,
    roc_auc,
    time_detector,
    time_detectors,
)
from .lid import LidProfile, estimate_mle, estimate_twonn
from .neighbors import NeighborGraph, build_neighbor_graph
from .synthgen import GenReport, SynthSpec, chi2_quantile, generate

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetError",
    "DETECTORS",
    "EvalRecord",
    "GenReport",
    "LidProfile",
    "NeighborGraph",
    "RegressionResult",
    "ScoreVector",
    "SweepConfig",
    "SynthSpec",
    "build_neighbor_graph",
    "chi2_quantile",
    "dispersion_R",
    "estimate_mle",
    "estimate_twonn",
    "evaluate_dataset",
    "feature_distinctness",
    "friedman_nemenyi",
    "generate",
    "load_csv",
    "morans_I",
    "morans_I_maxmag",
    "ols_regression",
    "roc_auc",
    "score_dao",
    "score_knn",
    "score_lof",
    "score_slof",
    "time_detector",
    "time_detectors",
    "write_csv",
]
