"""In-memory dataset model and CSV ingestion.

Datasets are immutable point clouds in R^d with optional binary outlier
labels (1 = outlier, 0 = inlier). Ingestion drops exact duplicate rows,
keeping the first occurrence.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# Below this max per-column distinct-value fraction a dataset is considered
# effectively discrete and the CLI emits a warning.
DISTINCTNESS_WARN_THRESHOLD = 0.20
# The label cells: "1" marks an outlier, "0" an inlier.
_LABELS = {"1": 1, "0": 0}


class DatasetError(ValueError):
    """Raised for malformed or degenerate input data."""


class MissingLabelColumn(DatasetError):
    """No header cell names the label column, or the file has no header."""


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


def _label_index(label_column: str | None, header: list[str] | None, path: Path) -> int | None:
    """The 0-based label column, or None when the file is unlabeled."""
    if label_column is None:
        return None
    if header is None or label_column not in header:
        raise MissingLabelColumn(f"label column {label_column!r} not found in {path}")
    return header.index(label_column)


def _read_cells(path: Path, label_column: str | None) -> tuple[np.ndarray, list[int] | None]:
    """Parse ``path`` cell by cell: the reference parser and the error reporter.

    Every malformed input raises the DatasetError naming its first bad row
    and column; ``_read_fast`` falls back here for anything it cannot
    decide exactly.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DatasetError(f"empty file: {path}")

    header: list[str] | None = None
    if _looks_like_header(rows[0]):
        header = [cell.strip() for cell in rows[0]]
    label_idx = _label_index(label_column, header, path)
    if header is not None:
        rows = rows[1:]

    points, labels = [], []
    for r, row in enumerate(rows):
        if label_idx is not None:
            if label_idx >= len(row):
                raise DatasetError(f"row {r} too short for label column {label_idx}")
            token = row[label_idx].strip()
            if token not in _LABELS:
                raise DatasetError(f"label token {token!r} at row {r} is neither '1' nor '0'")
            labels.append(_LABELS[token])
            row = row[:label_idx] + row[label_idx + 1 :]
        points.append([_parse_cell(cell.strip(), r, c) for c, cell in enumerate(row)])

    widths = {len(p) for p in points}
    if len(widths) != 1:
        raise DatasetError(f"ragged rows in {path}: widths {sorted(widths)}")
    return np.array(points, dtype=np.float64), labels if label_idx is not None else None


def _read_fast(path: Path, label_column: str | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse ``path`` with one ``np.loadtxt`` call.

    Returns what ``_read_cells`` returns for the same file, bit for bit, or
    raises ValueError. numpy's float syntax is a subset of Python's
    (``1_0``, non-ASCII digits and quoted cells fail), and a non-finite
    value, a quote, an over-long line (``csv`` would reject the field) or
    an empty body also raise, so the caller can fall back to the cell
    parser for its result or its error.
    """
    with open(path) as fh:  # universal newlines: "\r\n" and "\r" read as "\n"
        text = fh.read()
    limit = csv.field_size_limit()
    if '"' in text or (len(text) > limit and max(map(len, text.split("\n"))) > limit):
        raise ValueError("needs the csv module's quoting and field limit")
    start = len(text) - len(text.lstrip("\n"))
    stop = text.find("\n", start)
    stop = len(text) if stop < 0 else stop
    first = next(csv.reader([text[start:stop]]), [])
    if not first:
        raise ValueError("no rows")
    header = [cell.strip() for cell in first] if _looks_like_header(first) else None
    label_idx = _label_index(label_column, header, path)
    body = text[stop + 1 :] if header is not None else text[start:]
    if not body.strip("\n"):
        raise ValueError("no data rows")

    def label_value(cell: str) -> float:
        token = cell.strip()
        if token not in _LABELS:
            raise ValueError(f"label token {token!r}")
        return _LABELS[token]

    table = np.loadtxt(
        io.StringIO(body),
        delimiter=",",
        comments=None,
        ndmin=2,
        converters=None if label_idx is None else {label_idx: label_value},
    )
    if not np.isfinite(table).all():
        raise ValueError("non-finite value")
    if label_idx is None:
        return table, None
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(np.int64)


def load_csv(path: str | Path, label_column: str | None = None) -> Dataset:
    """Read a comma-separated file into a Dataset named by the file stem.

    Cells use Python ``float`` syntax; there are no comment lines. The
    first row is treated as a header iff it contains any non-numeric cell.
    ``label_column`` names the label column in the header; its cells must
    be ``1`` (outlier) or ``0`` (inlier). Duplicate coordinate rows (equal
    by value, so 0.0 matches -0.0) are dropped, first occurrence (and its
    label) wins; the count is recorded on ``Dataset.dropped_duplicates``.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    try:
        pts, labels = _read_fast(path, label_column)
    except MissingLabelColumn:  # decided from the first row, as _read_cells would
        raise
    except ValueError:
        pts, labels = _read_cells(path, label_column)

    # Dedup by value, the rule Dataset checks (so 0.0 equals -0.0); the
    # first occurrence wins and row order is kept.
    keep = np.sort(np.unique(pts, axis=0, return_index=True)[1])
    dropped = pts.shape[0] - keep.size
    pts = pts[keep]
    if pts.shape[0] < 2:
        raise DatasetError(f"fewer than 2 distinct points remain after dedup in {path}")
    lab = np.asarray(labels, dtype=np.int64)[keep] if labels is not None else None
    return Dataset(points=pts, labels=lab, name=path.stem, dropped_duplicates=dropped)


@contextmanager
def _replacing(path: str | Path) -> Iterator[Path]:
    """Yield a sibling temp path that replaces ``path`` when the block ends.

    If the block raises, the temp file is removed and ``path`` is left as
    it was, so readers, including other processes, see either the old file
    or the complete new one.
    """
    path = Path(path)
    tmp = _sibling(path)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sibling(path: Path) -> Path:
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def check_replaceable(path: str | Path) -> None:
    """Raise OSError unless ``_replacing(path)`` could write a file there:
    ``path`` is not a directory, its parent is one, and its sibling temp
    file can be created. The probe file is removed again."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():  # named here, not through the temp file
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path.parent))
    tmp = _sibling(path)
    open(tmp, "wb").close()
    tmp.unlink()


def _write_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV file atomically in one ``write``, as ``csv.writer`` would.

    ``rows`` hold Python floats and ints (not numpy scalars, whose ``repr``
    differs); each cell is its ``repr``, which ``csv.writer`` also uses and
    which never needs quoting. Lines end in ``"\r\n"``, the default
    dialect's terminator.
    """
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    lines.append("")
    write_text(path, "\r\n".join(lines))


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (see ``_replacing``), untranslated."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(text)


def write_table(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table with ``csv.writer`` atomically (see ``_replacing``).

    ``None`` cells are written empty and floats as their ``repr``.
    """
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(dataset: Dataset, path: str | Path, sidecar: dict | None = None) -> Path:
    """Write a Dataset as CSV (trailing ``label`` column when labeled).

    Floats are written with ``repr`` so that load -> write -> load round-trips
    bit-exactly. A JSON sidecar ``<path stem>.json`` records name/seed plus
    any extra generator metadata passed via ``sidecar``. Each file is
    written atomically.
    """
    path = Path(path)
    cols = [f"x{j}" for j in range(dataset.dim)]
    rows = dataset.points.tolist()
    if dataset.labels is not None:
        cols.append("label")
        for row, label in zip(rows, dataset.labels.tolist()):
            row.append(label)
    _write_rows(path, cols, rows)
    meta = {"name": dataset.name, "seed": dataset.seed}
    if sidecar:
        meta.update(sidecar)
    sidecar_path = path.with_suffix(".json")
    write_text(sidecar_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar_path


def read_sidecar(path: str | Path) -> dict | None:
    """The JSON sidecar of the CSV at ``path``, or None when there is none.

    Raises DatasetError naming the sidecar unless it holds a JSON object
    whose ``dim_c1`` and ``dim_c2``, where present, are integers.
    """
    sidecar_path = Path(path).with_suffix(".json")
    if not sidecar_path.exists():
        return None
    with open(sidecar_path) as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise DatasetError(f"sidecar {sidecar_path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DatasetError(f"sidecar {sidecar_path} does not hold a JSON object")
    for key in ("dim_c1", "dim_c2"):
        if key in meta and type(meta[key]) is not int:  # bool is not an integer here
            raise DatasetError(
                f"sidecar {sidecar_path}: {key} must be an integer, got {meta[key]!r}"
            )
    return meta


def feature_distinctness(dataset: Dataset) -> np.ndarray:
    """Fraction of distinct values per column (distinct count / n)."""
    n = dataset.n
    return np.array(
        [len(np.unique(dataset.points[:, j])) / n for j in range(dataset.dim)]
    )
