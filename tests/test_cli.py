import csv
import json

import numpy as np
import pytest

from daodet.cli import main, parse_int_list
from daodet.dataset import load_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = run_cli(
        "gen", "--reps", "2", "--dims", "2,8", "--seed", "7",
        "--cluster-size", "60", "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def records_csv(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run") / "records.csv"
    code = run_cli(
        "run", "--data", str(synth_dir), "--k", "5..15:5",
        "--lid-grid", "5,10", "--out", str(out),
    )
    assert code == 0
    return out


def test_parse_int_list():
    assert parse_int_list("2..8:2") == [2, 4, 6, 8]
    assert parse_int_list("5..7") == [5, 6, 7]
    assert parse_int_list("9,3,3") == [3, 9]
    from daodet.cli import UsageError

    with pytest.raises(UsageError):
        parse_int_list("nope")


def test_gen_counts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            "gen", "--reps", "2", "--dims", "2..32:2", "--seed", "7",
            "--cluster-size", "25", "--out", str(out),
        ) == 0
    files1 = sorted(out1.glob("*.csv"))
    assert len(files1) == 32
    for f1 in files1:
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()
        assert (out1 / f1.with_suffix(".json").name).read_bytes() == (
            out2 / f1.with_suffix(".json").name
        ).read_bytes()


def test_gen_rejects_dims_beyond_ambient(tmp_path, capsys):
    assert run_cli("gen", "--dims", "40", "--out", str(tmp_path / "x")) == 1
    assert "ambient" in capsys.readouterr().err


def test_gen_sidecar_contents(synth_dir):
    sidecars = sorted(synth_dir.glob("*.json"))
    assert len(sidecars) == 4
    meta = json.loads(sidecars[0].read_text())
    assert meta["generator"] == "two-cluster-subspace-gaussian"
    assert {"dim_c1", "dim_c2", "seed", "rejections"} <= set(meta)


def test_gen_datasets_load_with_labels(synth_dir):
    ds = load_csv(sorted(synth_dir.glob("*.csv"))[0], label_column="label")
    assert ds.labels is not None and 0 < ds.labels.sum() < ds.n


def test_run_produces_one_row_per_detector(records_csv, synth_dir):
    with open(records_csv) as fh:
        rows = list(csv.DictReader(fh))
    n_datasets = len(list(synth_dir.glob("*.csv")))
    assert len(rows) == 4 * n_datasets
    assert {r["detector"] for r in rows} == {"knn", "lof", "slof", "dao"}
    for row in rows:
        assert 0.0 <= float(row["roc_auc"]) <= 1.0
        assert row["dim_c2"] in {"2", "8"}
        assert row["runtime_mean_s"] == ""  # timing off by default


def test_run_rerun_identical_bytes(records_csv, synth_dir, tmp_path):
    out2 = tmp_path / "records2.csv"
    assert run_cli(
        "run", "--data", str(synth_dir), "--k", "5..15:5",
        "--lid-grid", "5,10", "--out", str(out2),
    ) == 0
    assert out2.read_bytes() == records_csv.read_bytes()


def test_run_threads_do_not_change_output(records_csv, synth_dir, tmp_path):
    out2 = tmp_path / "records_mt.csv"
    assert run_cli(
        "run", "--data", str(synth_dir), "--k", "5..15:5",
        "--lid-grid", "5,10", "--out", str(out2), "--threads", "2",
    ) == 0
    assert out2.read_bytes() == records_csv.read_bytes()


def test_threads_env_var(records_csv, synth_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("DAODET_THREADS", "2")
    out2 = tmp_path / "records_env.csv"
    assert run_cli(
        "run", "--data", str(synth_dir), "--k", "5..15:5",
        "--lid-grid", "5,10", "--out", str(out2),
    ) == 0
    assert out2.read_bytes() == records_csv.read_bytes()


def test_run_cache_equivalence(records_csv, synth_dir, tmp_path):
    out2 = tmp_path / "records_cached.csv"
    cache = tmp_path / "cache"
    for _ in range(2):  # second pass hits the cache
        assert run_cli(
            "run", "--data", str(synth_dir), "--k", "5..15:5",
            "--lid-grid", "5,10", "--out", str(out2), "--cache", str(cache),
        ) == 0
        assert out2.read_bytes() == records_csv.read_bytes()
    assert list(cache.glob("*.knn"))


def test_run_truncates_oversized_k_with_warning(tmp_path, capsys):
    out_dir = tmp_path / "small"
    assert run_cli(
        "gen", "--reps", "1", "--dims", "4", "--seed", "3",
        "--cluster-size", "30", "--out", str(out_dir),
    ) == 0
    out = tmp_path / "r.csv"
    # n = 60, so k up to 100 must truncate
    assert run_cli(
        "run", "--data", str(out_dir), "--k", "5..100:5",
        "--lid-grid", "5,10", "--out", str(out),
    ) == 0
    assert "truncated" in capsys.readouterr().err
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["best_k"]) <= 59 for r in rows)


def test_run_corrupted_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n1,2,0\n3,oops,1\n")
    out = tmp_path / "r.csv"
    assert run_cli("run", "--data", str(bad), "--out", str(out)) == 2
    assert "row" in capsys.readouterr().err


def test_run_unlabeled_skipped_with_warning(tmp_path, capsys):
    unlabeled = tmp_path / "u.csv"
    unlabeled.write_text("a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n11,12\n13,14\n")
    out = tmp_path / "r.csv"
    assert run_cli("run", "--data", str(unlabeled), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "skipping unlabeled" in err and "all datasets were skipped" in err


def test_run_timing_calls_time_detectors_once_per_dataset(synth_dir, tmp_path, monkeypatch):
    from daodet import evaluation

    calls = []

    def spy(dataset, detectors, k_range, lid_estimator, lid_k_grid):
        calls.append((dataset.name, list(detectors)))
        return {det: (float(i + 1), 0.5) for i, det in enumerate(detectors)}

    monkeypatch.setattr(evaluation, "time_detectors", spy)
    out = tmp_path / "timed.csv"
    assert run_cli(
        "run", "--data", str(synth_dir), "--k", "5..15:5", "--lid-grid", "5,10",
        "--detectors", "knn,lof,slof,dao", "--timing", "--out", str(out),
    ) == 0
    names = sorted(p.stem for p in synth_dir.glob("*.csv"))
    assert sorted(name for name, _ in calls) == names
    assert all(dets == ["knn", "lof", "slof", "dao"] for _, dets in calls)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    means = {"knn": 1.0, "lof": 2.0, "slof": 3.0, "dao": 4.0}
    assert len(rows) == 4 * len(names)
    for row in rows:
        assert float(row["runtime_mean_s"]) == means[row["detector"]]
        assert float(row["runtime_std_s"]) == 0.5


def test_run_config_file_with_flag_override(tmp_path, synth_dir, records_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        f"data = {synth_dir}\n"
        "k = 5..15:5\n"
        "lid-grid = 5,10\n"
        "out = should_be_overridden.csv\n"
    )
    out = tmp_path / "from_config.csv"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_bytes() == records_csv.read_bytes()
    assert not (tmp_path / "should_be_overridden.csv").exists()


def test_run_usage_errors(tmp_path, capsys):
    assert run_cli("run", "--out", str(tmp_path / "r.csv")) == 1
    assert run_cli(
        "run", "--data", "x.csv", "--detectors", "bogus", "--out", str(tmp_path / "r.csv")
    ) == 1
    assert run_cli(
        "run", "--data", "x.csv", "--estimator", "tle", "--out", str(tmp_path / "r.csv")
    ) == 2  # gated feature, named error
    assert "tle" in capsys.readouterr().err


def test_report_fig1_shape(records_csv, tmp_path):
    out = tmp_path / "rep"
    assert run_cli(
        "report", "--records", str(records_csv), "--analysis", "fig1", "--out", str(out)
    ) == 0
    with open(out / "fig1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4  # dims {2, 8} x 4 detectors
    assert {r["dim_c2"] for r in rows} == {"2", "8"}
    assert (out / "fig1.svg").read_text().startswith("<svg")


def test_report_fig2_and_tables_schema(records_csv, tmp_path):
    out = tmp_path / "rep2"
    assert run_cli(
        "report", "--records", str(records_csv),
        "--analysis", "fig2", "tables", "--out", str(out),
    ) == 0
    with open(out / "fig2.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["dataset", "morans_I", "dispersion_R", "pair", "auc_diff"]
        pairs = {row["pair"] for row in reader}
    assert pairs == {"dao:knn", "dao:lof", "dao:slof", "dao:oracle"}
    for name in ("tables_dispersion.csv", "tables_morans.csv", "tables_dimgap.csv"):
        with open(out / name) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["pair", "m", "p", "rho"]
            assert {row["pair"] for row in reader} == {"dao:knn", "dao:lof", "dao:slof"}
    assert (out / "fig2_dao_knn.svg").exists()


def test_report_ranks(records_csv, tmp_path):
    out = tmp_path / "ranks"
    assert run_cli(
        "report", "--records", str(records_csv), "--analysis", "ranks", "--out", str(out)
    ) == 0
    with open(out / "ranks.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["detector"] for r in rows} == {"knn", "lof", "slof", "dao"}
    total = sum(float(r["avg_rank"]) for r in rows)
    assert total == pytest.approx(10.0)  # ranks 1..4 sum per dataset


def test_report_ranks_single_dataset_errors(records_csv, tmp_path, capsys):
    with open(records_csv) as fh:
        rows = list(csv.reader(fh))
    single = tmp_path / "single.csv"
    name = rows[1][0]
    with open(single, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows([rows[0]] + [r for r in rows[1:] if r[0] == name])
    assert run_cli(
        "report", "--records", str(single), "--analysis", "ranks", "--out", str(tmp_path / "o")
    ) == 2
    assert "2 datasets" in capsys.readouterr().err


def test_report_incomplete_grid_exit_code(records_csv, tmp_path, capsys):
    with open(records_csv) as fh:
        rows = list(csv.reader(fh))
    # drop one dao row to break the grid
    dao_rows = [i for i, r in enumerate(rows) if r[1] == "dao"]
    del rows[dao_rows[0]]
    broken = tmp_path / "broken.csv"
    with open(broken, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run_cli(
        "report", "--records", str(broken), "--analysis", "ranks", "--out", str(tmp_path / "o")
    ) == 3
    assert "missing cells" in capsys.readouterr().err


def test_lid_dump(synth_dir, tmp_path):
    out = tmp_path / "prof.csv"
    data = sorted(synth_dir.glob("*.csv"))[0]
    assert run_cli("lid", "--data", str(data), "--k", "10", "--out", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    ds = load_csv(data, label_column="label")
    assert len(rows) == ds.n
    ids = np.array([float(r["id"]) for r in rows])
    assert np.isfinite(ids).all() and (ids > 0).all()


def test_lid_rejects_oversized_k(synth_dir, tmp_path, capsys):
    data = sorted(synth_dir.glob("*.csv"))[0]
    assert run_cli(
        "lid", "--data", str(data), "--k", "100000", "--out", str(tmp_path / "p.csv")
    ) == 1
    assert "too large" in capsys.readouterr().err


def test_knn_cache_command(synth_dir, tmp_path):
    cache = tmp_path / "cache"
    data = sorted(synth_dir.glob("*.csv"))[0]
    assert run_cli("knn-cache", "--data", str(data), "--kmax", "15", "--cache", str(cache)) == 0
    assert len(list(cache.glob("*.knn"))) == 1


def test_usage_exit_codes():
    assert run_cli() == 1                      # no command
    assert run_cli("bogus") == 1               # unknown command
    assert run_cli("--help") == 0
    assert run_cli("report", "--records", "x.csv", "--analysis", "nope", "--out", "o") == 1


def test_distinctness_warning(tmp_path, capsys):
    rows = ["a,b,label"] + [f"{i % 2},{i % 3},{1 if i == 0 else 0}" for i in range(40)]
    # dedup collapses repeats; build wide-but-coarse data instead
    rows = ["a,b,label"]
    for i in range(40):
        rows.append(f"{i},{i % 2},{1 if i == 0 else 0}")
    coarse = tmp_path / "coarse.csv"
    coarse.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.csv"
    assert run_cli(
        "run", "--data", str(coarse), "--k", "5", "--lid-grid", "5", "--out", str(out)
    ) == 0
    # first column is fully distinct: no warning
    assert "distinct values" not in capsys.readouterr().err

    # every column coarse (3, 4, and 5 distinct values over 60 unique rows)
    rows = ["a,b,c,label"]
    for i in range(60):
        rows.append(f"{i % 3},{i % 4},{i % 5},{1 if i == 0 else 0}")
    coarse2 = tmp_path / "coarse2.csv"
    coarse2.write_text("\n".join(rows) + "\n")
    assert run_cli(
        "run", "--data", str(coarse2), "--k", "2", "--lid-grid", "2", "--out", str(out)
    ) == 0
    assert "distinct values" in capsys.readouterr().err
