import csv
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daodet import dataset
from daodet.dataset import (
    Dataset,
    DatasetError,
    MissingLabelColumn,
    feature_distinctness,
    load_csv,
    read_sidecar,
    write_csv,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_dedup_drops_exact_duplicates(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2", "3,4", "1,2", "5,6"])
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.dropped_duplicates == 1
    # first occurrences, order preserved
    np.testing.assert_array_equal(ds.points, [[1, 2], [3, 4], [5, 6]])


def test_dedup_treats_signed_zeros_as_equal(tmp_path):
    # Dataset compares rows by value, so load_csv must dedup by value too.
    path = write_lines(tmp_path / "z.csv", ["a,b,label", "0.0,1.0,0", "-0.0,1.0,0", "2.0,3.0,1"])
    ds = load_csv(path, label_column="label")
    assert ds.dropped_duplicates == 1
    np.testing.assert_array_equal(ds.points, [[0.0, 1.0], [2.0, 3.0]])
    assert not np.signbit(ds.points[0, 0])  # the first occurrence wins
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_label_passthrough(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["a,b,label", "0,0,0", "1,0,0", "9,9,1"])
    ds = load_csv(path, label_column="label")
    np.testing.assert_array_equal(ds.labels, [0, 0, 1])
    assert ds.points.shape == (3, 2)
    # labels are the tokens 1 and 0 only
    path = write_lines(tmp_path / "d.csv", ["a,b,label", "0,0,0", "1,0,1", "9,9,ok"])
    with pytest.raises(DatasetError) as err:
        load_csv(path, label_column="label")
    assert str(err.value) == "label token 'ok' at row 2 is neither '1' nor '0'"
    path = write_lines(tmp_path / "d.csv", ["a,b,label", "0,0,0", "1,1"])
    with pytest.raises(DatasetError, match="row 1 too short for label column 2"):
        load_csv(path, label_column="label")


def test_nan_cell_rejected(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2", "3,NaN"])
    with pytest.raises(DatasetError, match=r"non-finite value at row 1, column 1"):
        load_csv(path)
    # the row counts the file's rows, before duplicates are dropped
    path = write_lines(tmp_path / "d.csv", ["1,2", "1,2", "3,inf"])
    with pytest.raises(DatasetError, match=r"non-finite value at row 2, column 1"):
        load_csv(path)


def test_non_numeric_cell_rejected(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2", "3,4", "5,oops"])
    with pytest.raises(DatasetError, match=r"row 2, column 1"):
        load_csv(path)


def test_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="no such file"):
        load_csv(tmp_path / "absent.csv")


def test_label_column_absent(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["a,b", "1,2", "3,4"])
    with pytest.raises(DatasetError, match="label column"):
        load_csv(path, label_column="label")


def test_all_duplicates_degenerate(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2", "1,2", "1,2"])
    with pytest.raises(DatasetError, match="fewer than 2 distinct"):
        load_csv(path)


def test_first_occurrence_label_wins(tmp_path):
    # duplicate coordinates with conflicting labels: the first row's label is kept
    path = write_lines(tmp_path / "d.csv", ["a,b,label", "1,2,1", "1,2,0", "3,4,0"])
    ds = load_csv(path, label_column="label")
    assert ds.n == 2
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_dataset_invariants():
    with pytest.raises(DatasetError, match="non-finite"):
        Dataset(points=np.array([[1.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(DatasetError, match="at least 2 points"):
        Dataset(points=np.array([[1.0, 2.0]]))
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(points=np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(DatasetError, match="inlier"):
        Dataset(points=np.array([[0.0], [1.0]]), labels=np.array([1, 1]))
    with pytest.raises(DatasetError, match="binary"):
        Dataset(points=np.array([[0.0], [1.0]]), labels=np.array([0, 2]))
    ds = Dataset(points=np.array([[0.0], [1.0]]), labels=np.array([0, 1]))
    assert not ds.points.flags.writeable


def test_feature_distinctness_counts():
    ds = Dataset(points=np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]))
    np.testing.assert_allclose(feature_distinctness(ds), [0.25, 1.0])


def test_roundtrip_preserves_dataset(tmp_path):
    rng = np.random.default_rng(7)
    ds = Dataset(
        points=rng.standard_normal((20, 3)) * 1e3,
        labels=(rng.random(20) < 0.2).astype(int),
        name="round",
        seed=7,
    )
    if ds.labels.sum() == 0:
        ds = Dataset(points=ds.points, labels=np.r_[1, ds.labels[1:]], name="round", seed=7)
    out = tmp_path / "round.csv"
    write_csv(ds, out, sidecar={"extra": 42})
    back = load_csv(out, label_column="label")
    assert back.name == "round"  # the file stem
    np.testing.assert_array_equal(back.points, ds.points)
    np.testing.assert_array_equal(back.labels, ds.labels)
    meta = read_sidecar(out)
    assert meta["name"] == "round" and meta["seed"] == 7 and meta["extra"] == 42


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(
                min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
            ),
            min_size=2,
            max_size=4,
        ),
        min_size=2,
        max_size=12,
    )
)
def test_ingestion_idempotent(tmp_path_factory, rows):
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        rows = [r[: min(widths)] for r in rows]
    pts = np.array(rows, dtype=np.float64)
    if len(np.unique(pts, axis=0)) < 2:
        return
    tmp = tmp_path_factory.mktemp("idem")
    first = write_lines(tmp / "a.csv", [",".join(repr(v) for v in row) for row in rows])
    ds1 = load_csv(first)
    write_csv(ds1, tmp / "b.csv")
    ds2 = load_csv(tmp / "b.csv")
    np.testing.assert_array_equal(ds1.points, ds2.points)
    assert ds2.dropped_duplicates == 0


def _outcome(load, path, **kwargs):
    """What a load returns, bit for bit, or the error it raises."""
    try:
        ds = load(path, **kwargs)
    except Exception as exc:  # any exception must match, csv.Error included
        return ("error", type(exc), str(exc))
    labels = None if ds.labels is None else ds.labels.tolist()
    return ("ok", ds.points.shape, ds.points.tobytes(), labels, ds.dropped_duplicates)


def _load_cell_by_cell(path, **kwargs):
    with mock.patch.object(dataset, "_read_fast", side_effect=ValueError("off")):
        return load_csv(path, **kwargs)


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    # correctly rounded decimal strings, not only shortest reprs
    st.from_regex(r"[+-]?[0-9]{1,20}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,2})?", fullmatch=True),
)
_HOSTILE = st.sampled_from([
    "nan", "-inf", "inf", "Infinity", "-infinity", "NaN", "1e400", "-1e400", "1e-400",
    "1_0", " 2 ", "\t3\t", "+1e5", "\u0661", "\uff15", "01", "+1", "1.0", "-0.0", ".5", "5.",
    '"1"', '"1,2"', '""', '"3\n4"', "", " ", "a", "label", "x0", "1e", "0x10", "\ufeff1",
    "\x0c4", "\xa05", "5\x1c", "\x0b6", "7\x1f", "\u30008", "9\u2029", "\u200b1", "1\x00",
    "\u2028", "\x85", "1.5d3", "1..5", "+-1", "e5", "infi", "yes", "no", "o", "i",
])
# Label cells that are neither "1" nor "0", though some read as numbers.
_ODD_LABELS = ["1.0", "01", "+1", "-0", " ", "", "o", "label", '"1"', "\u0661", "1 0"]


@st.composite
def _csv_files(draw, hostile):
    """(file text, label_column).

    With ``hostile=False`` every row parses and the label column, when one
    is named, is in the header, so the fast path must take the file.
    ``hostile=True`` adds a BOM, odd label cells, missing and misnamed label
    columns and up to three edits: a bad cell, a row's length, a blank or
    whitespace-only line, a trailing comma.
    """
    width = draw(st.integers(0, 4))  # 0 with a label: a label-only file
    labeled = draw(st.booleans()) or (width == 0 and not hostile)
    label_pos = draw(st.integers(0, width)) if labeled else None
    label_cells = st.sampled_from(["1", "0"] + (_ODD_LABELS if hostile else []))
    pad = st.sampled_from(["", " ", "\t", "\xa0 "])  # whitespace both parsers strip

    def padded(cell):
        return draw(pad) + cell + draw(pad)

    n_rows = draw(st.integers(0 if hostile else 1, 6))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(list(draw(st.sampled_from(rows))))  # a duplicate, dropped at load
            continue
        row = [padded(cell) for cell in draw(st.lists(_FINITE, min_size=width, max_size=width))]
        if labeled:
            row.insert(label_pos, padded(draw(label_cells)))
        rows.append(row)
    names = [f"x{j}" for j in range(width)]
    if labeled:
        names.insert(label_pos, "label")
    header = draw(st.sampled_from(["none", "names", "padded"]))
    if header != "none":
        rows.insert(0, [f" {c} " for c in names] if header == "padded" else names)

    edits = ["cell", "ragged", "blank", "spaces", "comma"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)) if hostile else []:
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        if edit == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(_HOSTILE)
        elif edit == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + [draw(_FINITE)]
        elif edit == "comma":
            rows[r] = rows[r] + [""]
        else:
            rows.insert(r, [] if edit == "blank" else [" \t"])
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = "".join(
        ",".join(row) + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
        for row in rows
    )
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if hostile and draw(st.booleans()):
        text = "\ufeff" + text

    # A header-less labeled file is read unlabeled, its labels as features.
    choices = ["label"] if labeled and header != "none" else [None]
    if hostile:
        choices += [None, "label", "missing", "x0"]  # "x0" reads a feature column as labels
    return text, draw(st.sampled_from(choices))


def _write_case(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("codec") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=400, deadline=None)
@given(_csv_files(hostile=True))
def test_fast_loader_matches_cell_parser(tmp_path_factory, case):
    text, label_column = case
    path = _write_case(tmp_path_factory, text)
    assert _outcome(load_csv, path, label_column=label_column) == _outcome(
        _load_cell_by_cell, path, label_column=label_column
    )


@settings(max_examples=200, deadline=None)
@given(_csv_files(hostile=False))
def test_clean_files_take_the_fast_path(tmp_path_factory, case):
    text, label_column = case
    path = _write_case(tmp_path_factory, text)
    pts, labels = dataset._read_fast(path, label_column)  # must not fall back
    ref_pts, ref_labels = dataset._read_cells(path, label_column)
    assert (pts.shape, pts.tobytes()) == (ref_pts.shape, ref_pts.tobytes())
    assert (None if labels is None else labels.tolist()) == ref_labels


def test_overlong_field_raises_like_the_csv_module(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2", "0." + "0" * csv.field_size_limit() + ",3"])
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_csv(path)


def _csv_writer_bytes(path, header, rows):
    """The bytes the csv module writes: the reference for every CSV writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


_AWKWARD = np.array([
    -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-05,
    9.999999999999999e-05, 0.0001, 0.00010000000000000002, 1e15, 9999999999999998.0,
    1e16, 1.0000000000000002e16, 123456789012345678.0, 1.7976931348623157e308,
    -1e-300, 0.1, 1 / 3, -2.5,
])


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("dim", [1, 3])
def test_write_csv_bytes_match_csv_writer(tmp_path, labeled, dim):
    pts = _AWKWARD[: _AWKWARD.size // dim * dim].reshape(-1, dim)
    keep = np.sort(np.unique(pts, axis=0, return_index=True)[1])  # 0.0 equals -0.0
    pts = pts[keep]
    labels = (np.arange(len(pts)) % 4 == 1).astype(np.int64) if labeled else None
    ds = Dataset(points=pts, labels=labels)
    write_csv(ds, tmp_path / "new.csv")
    header = [f"x{j}" for j in range(dim)] + (["label"] if labeled else [])
    rows = [
        [repr(float(v)) for v in ds.points[i]] + ([str(int(ds.labels[i]))] if labeled else [])
        for i in range(ds.n)
    ]
    assert (tmp_path / "new.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", header, rows)
    back = load_csv(tmp_path / "new.csv", label_column="label" if labeled else None)
    assert back.points.tobytes() == ds.points.tobytes()


def test_profile_and_score_writers_match_csv_writer(tmp_path):
    from daodet.lid import LidProfile, write_profile_csv

    for ids in (np.abs(_AWKWARD[_AWKWARD != 0]), np.arange(1, 4), np.float32([0.1, 2.0])):
        prof = LidProfile(estimator="mle", k_used=5, ids=ids, log_ids=np.log(ids))
        write_profile_csv(prof, tmp_path / "lid.csv")
        rows = [[i, repr(float(a)), repr(float(b))] for i, (a, b) in enumerate(zip(ids, np.log(ids)))]
        ref = _csv_writer_bytes(tmp_path / "ref.csv", ["point_index", "id", "log_id"], rows)
        assert (tmp_path / "lid.csv").read_bytes() == ref


def test_written_file_loads_without_the_cell_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    ds = Dataset(points=rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4)),
                 labels=np.arange(50) % 7 == 0)
    write_csv(ds, tmp_path / "d.csv")
    monkeypatch.setattr(dataset, "_read_cells", mock.Mock(side_effect=AssertionError("slow path")))
    back = load_csv(tmp_path / "d.csv", label_column="label")
    assert back.points.tobytes() == ds.points.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("victim", ["d.csv", "d.json", "lid.csv", "fig.svg"])
def test_write_csv_profile_and_svg_are_atomic(tmp_path, monkeypatch, victim):
    from daodet.lid import LidProfile, write_profile_csv
    from daodet.plots import write_svg

    def write_all(points, ids, svg):
        write_csv(Dataset(points=points, labels=[0] * (len(points) - 1) + [1]), tmp_path / "d.csv")
        ids = np.array(ids)
        write_profile_csv(LidProfile("mle", 5, ids, np.log(ids)), tmp_path / "lid.csv")
        write_svg(tmp_path / "fig.svg", svg)

    write_all([[0.0], [1.0]], [1.0, 2.0], "<svg/>")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replace = dataset.os.replace

    def dies_before_renaming(src, dst):
        if Path(dst).name == victim:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(dataset.os, "replace", dies_before_renaming)
    with pytest.raises(OSError, match="disk full"):
        write_all([[0.0], [1.0], [2.0]], [3.0, 4.0, 5.0], "<svg></svg>")
    assert (tmp_path / victim).read_bytes() == before[victim]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_missing_label_column_is_decided_without_the_cell_parser(tmp_path, monkeypatch):
    blank = write_lines(tmp_path / "blank.csv", ["", "", ""])
    with pytest.raises(DatasetError, match="empty file"):  # no first row: the cell parser decides
        load_csv(blank, label_column="label")
    unlabelled = write_lines(tmp_path / "u.csv", ["", "a,b", "1,2", "3,4"])
    monkeypatch.setattr(dataset, "_read_cells", mock.Mock(side_effect=AssertionError("slow path")))
    with pytest.raises(MissingLabelColumn, match="label column 'label' not found"):
        load_csv(unlabelled, label_column="label")
