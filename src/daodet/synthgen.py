"""Synthetic two-cluster benchmark generator.

Each dataset holds two clusters of standard-Gaussian points living in
random axis-aligned subspaces of R^32 (cluster 1 in 8 dimensions by
default, cluster 2 in a configurable number). Points are labeled outliers
when their squared Mahalanobis distance to their own cluster center
exceeds the chi-square 0.95 quantile for the subspace dimension; the
clusters are then translated by independent uniform [-10, 10] vectors and
the whole cloud is rotated by a random orthonormal basis. Datasets where
any point sits inside both clusters' 0.99999 Mahalanobis shells are
rejected and regenerated.

Randomness comes from numpy's seeded PCG64 generator (Gaussians via its
ziggurat standard_normal), so datasets are bit-reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dataset import Dataset


# The fixed protocol above; an overlapping dataset is regenerated at most
# MAX_RETRIES times.
OUTLIER_QUANTILE = 0.95
REJECT_QUANTILE = 0.99999
TRANSLATION_RANGE = (-10.0, 10.0)
MAX_RETRIES = 1000


@dataclass(frozen=True)
class SynthSpec:
    ambient_dim: int = 32
    cluster_size: int = 800
    dim_c1: int = 8
    dim_c2: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.dim_c1 <= self.ambient_dim and 1 <= self.dim_c2 <= self.ambient_dim):
            raise ValueError("cluster dimensions must lie in [1, ambient_dim]")
        if self.cluster_size < 2:
            raise ValueError("cluster_size must be at least 2")


@dataclass(frozen=True)
class ClusterTransform:
    """Generating geometry kept for diagnostics and invariant checks."""

    subspaces: tuple[np.ndarray, np.ndarray]     # axis index sets, pre-rotation
    translations: tuple[np.ndarray, np.ndarray]  # per-cluster offsets, pre-rotation
    rotation: np.ndarray                         # orthonormal (ambient x ambient)

    def mahalanobis_sq(self, points: np.ndarray, cluster: int) -> np.ndarray:
        """Squared Mahalanobis distance of emitted points to one cluster.

        The generating covariance is the identity on the cluster's subspace,
        so the quadratic form is the squared norm of the offset projected
        onto the rotated subspace basis (pseudo-inverse semantics).
        """
        basis = self.rotation[self.subspaces[cluster], :]   # (dim_ci, ambient)
        offset = points - self.translations[cluster] @ self.rotation
        return ((offset @ basis.T) ** 2).sum(axis=1)


@dataclass(frozen=True)
class GenReport:
    rejections: int
    outliers_c1: int
    outliers_c2: int
    seed: int
    transform: ClusterTransform = field(repr=False)


def chi2_quantile(m: int, p: float) -> float:
    """Inverse chi-square CDF: twice the inverse regularized lower
    incomplete gamma at shape m/2."""
    if m < 1 or int(m) != m:
        raise ValueError(f"degrees of freedom must be a positive integer, got {m}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    from scipy import special  # imported here: only generation needs it

    return 2.0 * float(special.gammaincinv(m / 2.0, p))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthonormal basis of a matrix with entries uniform in [-1, 1].

    QR with the triangular factor's diagonal sign-fixed positive, which
    makes the basis a deterministic function of the raw matrix.
    """
    m = rng.uniform(-1.0, 1.0, size=(dim, dim))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _attempt(spec: SynthSpec, rng: np.random.Generator):
    amb, size = spec.ambient_dim, spec.cluster_size
    dims = (spec.dim_c1, spec.dim_c2)
    subspaces, clouds, labels = [], [], []
    for dim in dims:
        axes = np.sort(rng.choice(amb, size=dim, replace=False))
        gauss = rng.standard_normal((size, dim))
        cloud = np.zeros((size, amb))
        cloud[:, axes] = gauss
        # Squared Mahalanobis to the cluster's own center (the origin) under
        # the generating covariance: just the squared norm on the subspace.
        maha = (gauss**2).sum(axis=1)
        labels.append((maha > chi2_quantile(dim, OUTLIER_QUANTILE)).astype(np.int64))
        subspaces.append(axes)
        clouds.append(cloud)
    lo, hi = TRANSLATION_RANGE
    translations = [rng.uniform(lo, hi, size=amb) for _ in dims]
    rotation = random_rotation(rng, amb)

    shifted = np.vstack([clouds[i] + translations[i] for i in range(2)])
    # Rejection test (pre-rotation; the rotation is an isometry of both
    # quadratic forms): a point inside both clusters' reject shells means
    # the clusters overlap.
    reject_r = [chi2_quantile(d, REJECT_QUANTILE) for d in dims]
    inside = [
        (((shifted - translations[i])[:, subspaces[i]]) ** 2).sum(axis=1) < reject_r[i]
        for i in range(2)
    ]
    if np.any(inside[0] & inside[1]):
        return None

    points = shifted @ rotation
    transform = ClusterTransform(
        subspaces=(subspaces[0], subspaces[1]),
        translations=(translations[0], translations[1]),
        rotation=rotation,
    )
    return points, np.concatenate(labels), labels, transform


def generate(spec: SynthSpec) -> tuple[Dataset, GenReport]:
    """Generate one benchmark dataset; rejected attempts regenerate fully."""
    rng = np.random.default_rng(spec.seed)
    for rejections in range(MAX_RETRIES + 1):
        result = _attempt(spec, rng)
        if result is not None:
            points, lab, per_cluster, transform = result
            name = f"synth_d1-{spec.dim_c1}_d2-{spec.dim_c2}_seed-{spec.seed}"
            dataset = Dataset(points=points, labels=lab, name=name, seed=spec.seed)
            report = GenReport(
                rejections=rejections,
                outliers_c1=int(per_cluster[0].sum()),
                outliers_c2=int(per_cluster[1].sum()),
                seed=spec.seed,
                transform=transform,
            )
            return dataset, report
    raise RuntimeError(
        f"cluster overlap persisted for {MAX_RETRIES} regenerations (seed {spec.seed})"
    )


def suite_specs(
    reps: int,
    dims_c2: Sequence[int],
    seed0: int = 0,
    template: SynthSpec | None = None,
) -> list[SynthSpec]:
    """reps replicates of one spec per dim_c2 value, seeds seed0+index.

    The index runs replicate-major: all dims of replicate 0 first. On the
    standard grid of 16 even dimensions (``gen --dims 2..32:2``), reps=30
    yields 480 specs.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    dims = list(dims_c2)
    template = template if template is not None else SynthSpec()
    if not dims:
        raise ValueError("dims_c2 must be non-empty")
    for d in dims:
        if not 1 <= d <= template.ambient_dim:
            raise ValueError(f"dim_c2={d} outside [1, ambient {template.ambient_dim}]")
    return [
        replace(template, dim_c2=dim, seed=seed0 + rep * len(dims) + i)
        for rep in range(reps)
        for i, dim in enumerate(dims)
    ]


def sidecar_metadata(spec: SynthSpec, report: GenReport) -> dict:
    return {
        "generator": "two-cluster-subspace-gaussian",
        "ambient_dim": spec.ambient_dim,
        "cluster_size": spec.cluster_size,
        "dim_c1": spec.dim_c1,
        "dim_c2": spec.dim_c2,
        "outlier_quantile": OUTLIER_QUANTILE,
        "reject_quantile": REJECT_QUANTILE,
        "translation_range": list(TRANSLATION_RANGE),
        "rejections": report.rejections,
        "outliers_c1": report.outliers_c1,
        "outliers_c2": report.outliers_c2,
    }
