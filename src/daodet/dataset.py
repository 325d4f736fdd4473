"""In-memory dataset model and CSV ingestion.

Datasets are immutable point clouds in R^d with optional binary outlier
labels (1 = outlier, 0 = inlier). Ingestion drops exact duplicate rows,
keeping the first occurrence.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Below this max per-column distinct-value fraction a dataset is considered
# effectively discrete and the CLI emits a warning.
DISTINCTNESS_WARN_THRESHOLD = 0.20


class DatasetError(ValueError):
    """Raised for malformed or degenerate input data."""


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled point cloud.

    points: (n, d) float64, all finite, no duplicate rows.
    labels: optional (n,) int64 in {0, 1}; 1 marks an outlier. When present
        there must be at least one inlier.
    seed: RNG seed that produced the data (synthetic datasets only).
    dropped_duplicates: duplicate rows removed at ingestion.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = "dataset"
    seed: int | None = None
    dropped_duplicates: int = field(default=0, compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise DatasetError("points must be a 2-D array")
        n, d = pts.shape
        if n < 2 or d < 1:
            raise DatasetError(f"need at least 2 points and 1 feature, got {n}x{d}")
        if not np.all(np.isfinite(pts)):
            i, j = np.argwhere(~np.isfinite(pts))[0]
            raise DatasetError(f"non-finite value at row {i}, column {j}")
        if len(np.unique(pts, axis=0)) != n:
            raise DatasetError("duplicate coordinate rows (dedup before construction)")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (n,):
                raise DatasetError(f"labels length {lab.shape} does not match n={n}")
            if not np.isin(lab, (0, 1)).all():
                raise DatasetError("labels must be binary 0/1")
            if not (lab == 0).any():
                raise DatasetError("labels must contain at least one inlier (0)")
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_outliers(self) -> int:
        return 0 if self.labels is None else int(self.labels.sum())


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(f"non-numeric value {text!r} at row {row}, column {col}") from None
    if not math.isfinite(value):
        raise DatasetError(f"non-finite value at row {row}, column {col}")
    return value


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_csv(
    path: str | Path,
    label_column: str | int | None = None,
    *,
    outlier_token: str = "1",
    inlier_token: str = "0",
    name: str | None = None,
) -> Dataset:
    """Read a comma-separated file into a Dataset.

    The first row is treated as a header iff it contains any non-numeric
    cell. ``label_column`` selects the label column by header name or
    0-based index; its cells must match ``outlier_token``/``inlier_token``.
    Duplicate coordinate rows (equal by value, so 0.0 matches -0.0) are
    dropped, first occurrence (and its label) wins; the count is recorded
    on ``Dataset.dropped_duplicates``.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DatasetError(f"empty file: {path}")

    header: list[str] | None = None
    if _looks_like_header(rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]

    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, int):
            label_idx = label_column
        else:
            if header is None or label_column not in header:
                raise DatasetError(f"label column {label_column!r} not found in {path}")
            label_idx = header.index(label_column)

    points, labels = [], []
    for r, row in enumerate(rows):
        if label_idx is not None:
            if label_idx >= len(row):
                raise DatasetError(f"row {r} too short for label column {label_idx}")
            token = row[label_idx].strip()
            if token == outlier_token:
                labels.append(1)
            elif token == inlier_token:
                labels.append(0)
            else:
                raise DatasetError(
                    f"label token {token!r} at row {r} is neither "
                    f"{outlier_token!r} nor {inlier_token!r}"
                )
            row = row[:label_idx] + row[label_idx + 1 :]
        points.append([_parse_cell(cell.strip(), r, c) for c, cell in enumerate(row)])

    widths = {len(p) for p in points}
    if len(widths) != 1:
        raise DatasetError(f"ragged rows in {path}: widths {sorted(widths)}")
    pts = np.array(points, dtype=np.float64)

    # Dedup by value, the rule Dataset checks (so 0.0 equals -0.0); the
    # first occurrence wins and row order is kept.
    keep = np.sort(np.unique(pts, axis=0, return_index=True)[1])
    dropped = pts.shape[0] - keep.size
    pts = pts[keep]
    if pts.shape[0] < 2:
        raise DatasetError(f"fewer than 2 distinct points remain after dedup in {path}")
    lab = np.array(labels, dtype=np.int64)[keep] if label_idx is not None else None
    return Dataset(
        points=pts,
        labels=lab,
        name=name if name is not None else path.stem,
        dropped_duplicates=dropped,
    )


def write_csv(dataset: Dataset, path: str | Path, sidecar: dict | None = None) -> Path:
    """Write a Dataset as CSV (trailing ``label`` column when labeled).

    Floats are written with ``repr`` so that load -> write -> load round-trips
    bit-exactly. A JSON sidecar ``<path stem>.json`` records name/seed plus
    any extra generator metadata passed via ``sidecar``.
    """
    path = Path(path)
    cols = [f"x{j}" for j in range(dataset.dim)]
    if dataset.labels is not None:
        cols.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.points[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)
    meta = {"name": dataset.name, "seed": dataset.seed}
    if sidecar:
        meta.update(sidecar)
    sidecar_path = path.with_suffix(".json")
    with open(sidecar_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar_path


def read_sidecar(path: str | Path) -> dict | None:
    sidecar_path = Path(path).with_suffix(".json")
    if not sidecar_path.exists():
        return None
    with open(sidecar_path) as fh:
        return json.load(fh)


def feature_distinctness(dataset: Dataset) -> np.ndarray:
    """Fraction of distinct values per column (distinct count / n)."""
    n = dataset.n
    return np.array(
        [len(np.unique(dataset.points[:, j])) / n for j in range(dataset.dim)]
    )
