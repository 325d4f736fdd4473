import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daodet.dataset import (
    Dataset,
    DatasetError,
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
    path = write_lines(tmp_path / "z.csv", ["0.0,1.0,0", "-0.0,1.0,0", "2.0,3.0,1"])
    ds = load_csv(path, label_column=2)
    assert ds.dropped_duplicates == 1
    np.testing.assert_array_equal(ds.points, [[0.0, 1.0], [2.0, 3.0]])
    assert not np.signbit(ds.points[0, 0])  # the first occurrence wins
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_label_passthrough(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["a,b,label", "0,0,0", "1,0,0", "9,9,1"])
    ds = load_csv(path, label_column="label")
    np.testing.assert_array_equal(ds.labels, [0, 0, 1])
    assert ds.points.shape == (3, 2)


def test_nan_cell_rejected(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2", "3,NaN"])
    with pytest.raises(DatasetError, match=r"non-finite value at row 1, column 1"):
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


def test_label_column_by_index_without_header(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2,0", "3,4,1", "5,6,0"])
    ds = load_csv(path, label_column=2)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    assert ds.points.shape == (3, 2)


def test_custom_label_tokens(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["a,b,label", "1,2,anom", "3,4,ok"])
    ds = load_csv(path, label_column="label", outlier_token="anom", inlier_token="ok")
    np.testing.assert_array_equal(ds.labels, [1, 0])
    with pytest.raises(DatasetError, match="label token"):
        load_csv(path, label_column="label")


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
    back = load_csv(out, label_column="label", name="round")
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
