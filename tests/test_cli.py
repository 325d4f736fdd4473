import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from daodet.cli import main, parse_int_list
from daodet.dataset import Dataset, load_csv, write_csv
from daodet.neighbors import load_graph
from daodet.synthgen import SynthSpec, generate, sidecar_metadata


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
    # The template's own checks are usage errors too, and write nothing.
    assert run_cli("gen", "--ambient-dim", "2", "--out", str(tmp_path / "x")) == 1
    assert "usage error:" in capsys.readouterr().err
    assert run_cli("gen", "--cluster-size", "1", "--out", str(tmp_path / "x")) == 1
    assert "usage error: cluster_size" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gen_makes_two_dimensional_data(tmp_path, capsys):
    # The four 6400x2 datasets of the lowdim benchmark, made by gen.
    out, ref = tmp_path / "gen", tmp_path / "ref"
    assert run_cli(
        "gen", "--reps", "2", "--dims", "1,2", "--ambient-dim", "2", "--dim-c1", "2",
        "--cluster-size", "3200", "--seed", "42", "--out", str(out),
    ) == 0
    ref.mkdir()
    for seed, dim_c2 in zip(range(42, 46), (1, 2, 1, 2)):
        spec = SynthSpec(ambient_dim=2, cluster_size=3200, dim_c1=2, dim_c2=dim_c2, seed=seed)
        ds, report = generate(spec)
        write_csv(ds, ref / f"{ds.name}.csv", sidecar_metadata(spec, report))
    names = sorted(p.name for p in ref.iterdir())
    assert len(names) == 8 and sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    # A requested dim above the ambient one is still a usage error.
    assert run_cli(
        "gen", "--dims", "1,3", "--ambient-dim", "2", "--dim-c1", "2", "--out", str(tmp_path / "x")
    ) == 1
    assert "usage error: dim_c2=3 outside [1, ambient 2]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_run_warns_on_truncated_lid_grid_only_when_given(tmp_path, capsys):
    out_dir = tmp_path / "small"
    assert run_cli(
        "gen", "--reps", "1", "--dims", "4", "--seed", "3",
        "--cluster-size", "30", "--out", str(out_dir),
    ) == 0
    out = tmp_path / "r.csv"
    # n = 60: the given grid loses 100 and 200, the default grid loses 90 and up
    assert run_cli(
        "run", "--data", str(out_dir), "--k", "5,10", "--lid-grid", "5,100,200",
        "--out", str(out),
    ) == 0
    err = capsys.readouterr().err
    assert "LID grid truncated to <= 59" in err
    assert "k range truncated" not in err
    assert run_cli("run", "--data", str(out_dir), "--k", "5,10", "--out", str(out)) == 0
    assert "truncated" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "grids", [["--k", "50..60", "--lid-grid", "5"], ["--k", "5", "--lid-grid", "50..60"]]
)
def test_run_no_usable_k_same_with_and_without_cache(grids, tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    points = np.random.default_rng(3).standard_normal((40, 2))
    write_csv(Dataset(points=points, labels=np.arange(40) < 4, name="tiny"), data)
    errors = []
    for cache in ([], ["--cache", str(tmp_path / "cache")]):
        assert run_cli(
            "run", "--data", str(data), *grids, "--out", str(tmp_path / "r.csv"), *cache
        ) == 2
        errors.append(capsys.readouterr().err)
    assert "no usable k in range for n=40" in errors[0]
    assert errors[1] == errors[0]


def test_run_corrupted_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n1,2,0\n3,oops,1\n")
    out = tmp_path / "r.csv"
    assert run_cli("run", "--data", str(bad), "--out", str(out)) == 2
    assert "row" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_bad_file_beside_good_ones(synth_dir, tmp_path, capsys, threads):
    data = tmp_path / "data"
    data.mkdir()
    for path in sorted(synth_dir.glob("*.csv"))[:2]:
        (data / path.name).write_bytes(path.read_bytes())
    grid = ("--k", "5,10", "--lid-grid", "5")
    out, ref = tmp_path / "r.csv", tmp_path / "ref.csv"
    assert run_cli("run", "--data", str(data), *grid, "--out", str(ref)) == 0
    (data / "bad.csv").write_text("a,b,label\n1,2,0\n3,oops,1\n")
    capsys.readouterr()
    code = run_cli("run", "--data", str(data), *grid, "--threads", threads, "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {data / 'bad.csv'}: non-numeric value 'oops' at row 1, column 1"
    ]
    assert out.read_bytes() == ref.read_bytes()


def test_run_stderr_is_per_file_and_independent_of_threads(synth_dir, tmp_path, capsys):
    import struct

    data, cache = tmp_path / "data", tmp_path / "cache"
    data.mkdir()
    first, second = sorted(synth_dir.glob("*.csv"))[:2]
    (data / "a.csv").write_bytes(first.read_bytes())
    (data / "b.csv").write_text("a,b,label\n1,2,0\n3,oops,1\n")
    (data / "c.csv").write_text("a,b\n1,2\n3,4\n5,6\n7,8\n")
    (data / "d.csv").write_bytes(second.read_bytes())
    n = load_csv(data / "d.csv").n
    # The run's graph kmax is 10: --k 5,10 and the LID grid truncated to 5.
    assert run_cli("knn-cache", "--data", str(data / "d.csv"), "--kmax", "10",
                   "--cache", str(cache)) == 0
    (entry,) = cache.iterdir()
    raw = entry.read_bytes()
    corrupt = raw[:8] + struct.pack("<I", n) + raw[12:]  # an index out of range
    expected = [
        f"warning: dataset 'a': LID grid truncated to <= {n - 1}",
        f"error: {data / 'b.csv'}: non-numeric value 'oops' at row 1, column 1",
        f"warning: skipping unlabeled dataset {data / 'c.csv'}",
        f"warning: dataset 'd': LID grid truncated to <= {n - 1}",
        f"warning: dataset 'd': rebuilding graph cache entry: corrupt graph cache file"
        f" {entry}: neighbor index >= n={n}",
    ]
    outputs = []
    for threads in ("1", "2"):
        entry.write_bytes(corrupt)
        capsys.readouterr()
        out = tmp_path / f"r{threads}.csv"
        assert run_cli(
            "run", "--data", str(data), "--k", "5,10", "--lid-grid", "5,200",
            "--cache", str(cache), "--threads", threads, "--out", str(out),
        ) == 2
        assert capsys.readouterr().err == "".join(line + "\n" for line in expected)
        assert entry.read_bytes() == raw
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    entry.write_bytes(corrupt)  # knn-cache prints the same line
    assert run_cli("knn-cache", "--data", str(data / "d.csv"), "--kmax", "10",
                   "--cache", str(cache)) == 0
    assert capsys.readouterr().err == expected[-1] + "\n"


def test_run_rejects_two_inputs_naming_one_dataset(synth_dir, tmp_path, capsys, monkeypatch):
    path = sorted(synth_dir.glob("*.csv"))[0]
    other = tmp_path / path.name
    other.write_bytes(path.read_bytes())
    out = tmp_path / "r.csv"
    monkeypatch.setattr("daodet.cli.load_csv", None)  # no dataset may be read
    for data in ([path, path], [synth_dir, path], [path, other]):
        assert run_cli("run", "--data", *map(str, data), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: two inputs name dataset {path.stem!r}: {path} and {data[1]}\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_bad_sidecars_beside_a_good_file(synth_dir, tmp_path, capsys, threads):
    data = tmp_path / "data"
    data.mkdir()
    good = sorted(synth_dir.glob("*.csv"))[0]
    for name in (good.name, "a.csv", "b.csv", "c.csv"):
        (data / name).write_bytes(good.read_bytes())
    (data / good.name).with_suffix(".json").write_bytes(good.with_suffix(".json").read_bytes())
    (data / "a.json").write_text("not json")
    (data / "b.json").write_text("[1]")
    (data / "c.json").write_text('{"dim_c1": 8, "dim_c2": "2"}')
    grid = ("--k", "5,10", "--lid-grid", "5")
    out, ref = tmp_path / "r.csv", tmp_path / "ref.csv"
    assert run_cli("run", "--data", str(good), *grid, "--out", str(ref)) == 0
    capsys.readouterr()
    code = run_cli("run", "--data", str(data), *grid, "--threads", threads, "--out", str(out))
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert [line.split(": ", 2)[:2] for line in errors] == [
        ["error", str(data / f"{name}.csv")] for name in "abc"
    ]
    messages = ("is not JSON", "does not hold a JSON object", "dim_c2 must be an integer, got '2'")
    for line, name, message in zip(errors, "abc", messages):
        assert f"sidecar {data / name}.json" in line and message in line
    assert out.read_bytes() == ref.read_bytes()


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

    def spy(dataset, config):
        calls.append((dataset.name, list(config.detectors)))
        return {det: (float(i + 1), 0.5) for i, det in enumerate(config.detectors)}

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
    for detectors in ("bogus", "dao,dao"):
        assert run_cli(
            "run", "--data", "x.csv", "--detectors", detectors, "--out", str(tmp_path / "r.csv")
        ) == 1
    assert run_cli(
        "run", "--data", "x.csv", "--estimator", "tle", "--out", str(tmp_path / "r.csv")
    ) == 2  # gated feature, named error
    assert "tle" in capsys.readouterr().err
    # Bad k ranges and config keys exit 1 before the missing x.csv is read.
    for flag, value in (("--k", "0..5"), ("--lid-grid", "0,5")):
        assert run_cli(
            "run", "--data", "x.csv", flag, value, "--out", str(tmp_path / "r.csv")
        ) == 1
        assert "usage error:" in capsys.readouterr().err
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("data = x.csv\ndetecters = knn\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "detecters" in err
    assert not (tmp_path / "r.csv").exists()


def test_report_rejects_untabulated_alpha_before_any_analysis(records_csv, tmp_path, capsys):
    out = tmp_path / "rep"
    out.mkdir()
    assert run_cli(
        "report", "--records", str(records_csv), "--analysis", "fig1", "ranks",
        "--alpha", "0.07", "--out", str(out),
    ) == 1
    assert "--alpha" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("analyses", [["ranks", "ranks"], ["fig2", "tables", "fig2"]])
def test_report_rejects_a_repeated_analysis(analyses, records_csv, tmp_path, monkeypatch, capsys):
    from daodet import cli

    read = []
    monkeypatch.setattr(cli, "read_records_csv", lambda path: read.append(path))
    out = tmp_path / "rep"
    assert run_cli(
        "report", "--records", str(records_csv), "--analysis", *analyses, "--out", str(out)
    ) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: analysis {analyses[-1]!r} is named twice\n"
    assert captured.out == ""
    assert read == [] and not out.exists()


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

    # A duplicate cell is as fatal as a missing one, for every analysis.
    with open(records_csv) as fh:
        rows = list(csv.reader(fh))
    rows += [rows[dao_rows[1]], rows[1]]
    with open(broken, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    cells = sorted({(rows[1][0], rows[1][1]), (rows[dao_rows[1]][0], "dao")})
    for analysis in ("fig1", "fig2", "tables", "ranks"):
        assert run_cli(
            "report", "--records", str(broken), "--analysis", analysis,
            "--out", str(tmp_path / "o"),
        ) == 3
        assert capsys.readouterr().err == (
            "error: records grid incomplete; duplicate cells: "
            + ", ".join(f"({ds}, {det})" for ds, det in cells) + "\n"
        )


def test_report_writes_nothing_unless_every_analysis_succeeds(records_csv, tmp_path, capsys):
    with open(records_csv) as fh:
        rows = list(csv.reader(fh))
    out = tmp_path / "o"

    # ranks succeeds, then fig1 finds no dim_c2
    col = rows[0].index("dim_c2")
    blank = tmp_path / "blank.csv"
    with open(blank, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [r[:col] + [""] + r[col + 1 :] for r in rows[1:]])
    assert run_cli(
        "report", "--records", str(blank), "--analysis", "ranks", "fig1", "--out", str(out)
    ) == 3
    assert capsys.readouterr().err == (
        "error: fig1 needs dim_c2 metadata on every record (generate datasets with 'gen')\n"
    )
    assert not out.exists()

    # fig1 succeeds, then tables has one dataset to regress
    single = tmp_path / "single.csv"
    with open(single, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if r[0] == rows[1][0]])
    assert run_cli(
        "report", "--records", str(single), "--analysis", "fig1", "tables", "--out", str(out)
    ) == 2
    assert capsys.readouterr().err == "error: need at least 3 points\n"
    assert not out.exists()


def test_run_threads_must_be_an_integer(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "r.csv")
    for bad in ("abc", "0", "-1"):
        assert run_cli("run", "--data", "x.csv", "--threads", bad, "--out", out) == 1
        assert f"'{bad}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = x.csv\nthreads = 0\n")
    assert run_cli("run", "--config", str(cfg), "--out", out) == 1
    assert "'0'" in capsys.readouterr().err
    for bad in ("2x", "-1"):
        monkeypatch.setenv("DAODET_THREADS", bad)
        assert run_cli("run", "--data", "x.csv", "--out", out) == 1
        assert f"'{bad}'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_run_threads_precedence(tmp_path, monkeypatch, capsys):
    # Each source holds a distinct bad value, so the message names the one read.
    from daodet.cli import build_parser

    out = str(tmp_path / "r.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = x.csv\nthreads = c0\n")
    monkeypatch.setenv("DAODET_THREADS", "e0")
    for argv, winner in (
        (("--config", str(cfg), "--threads", "f0"), "f0"),
        (("--config", str(cfg)), "c0"),
        (("--data", "x.csv"), "e0"),
    ):
        assert run_cli("run", *argv, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"usage error: threads must be a positive integer, got '{winner}'\n"
        )
    monkeypatch.delenv("DAODET_THREADS")
    assert build_parser().parse_args(["run"]).threads == "1"
    assert run_cli("run", "--data", "x.csv", "--out", out) == 2  # past the threads check
    assert capsys.readouterr().err == "error: no such dataset path: x.csv\n"


def test_run_config_file_setting_every_key_equals_the_flags(synth_dir, tmp_path, monkeypatch):
    from daodet import evaluation
    from daodet.cli import build_parser

    calls = []

    def spy(dataset, config):  # deterministic times, so --timing output is comparable
        calls.append(dataset.name)
        return {det: (float(i + 1), 0.5) for i, det in enumerate(config.detectors)}

    monkeypatch.setattr(evaluation, "time_detectors", spy)
    csvs = sorted(synth_dir.glob("*.csv"))[:2]
    settings = {
        "data": ",".join(map(str, csvs)), "detectors": "dao,knn", "k": "5..15:5",
        "estimator": "mle", "lid-grid": "5,10", "label-column": "label",
        "out": str(tmp_path / "from_config.csv"), "threads": "1",
        "cache": str(tmp_path / "cache_config"), "timing": "yes",
    }
    keys = set(vars(build_parser().parse_args(["run"]))) - {"command", "config"}
    assert {key.replace("-", "_") for key in settings} == keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    assert run_cli("run", "--config", str(cfg)) == 0
    flags = ["--data", *map(str, csvs), "--timing"]
    for key, value in settings.items():
        if key not in ("data", "timing"):
            flags += [f"--{key}", value]
    flags[flags.index(settings["out"])] = str(tmp_path / "from_flags.csv")
    flags[flags.index(settings["cache"])] = str(tmp_path / "cache_flags")
    assert run_cli("run", *flags) == 0
    assert len(calls) == 4
    from_config = (tmp_path / "from_config.csv").read_bytes()
    assert from_config == (tmp_path / "from_flags.csv").read_bytes()
    assert sorted(p.name for p in (tmp_path / "cache_config").iterdir()) == sorted(
        p.name for p in (tmp_path / "cache_flags").iterdir()
    )


def test_run_empty_settings(synth_dir, tmp_path, capsys):
    # Empty detectors or k are usage errors; an empty LID grid is the default one.
    one = str(sorted(synth_dir.glob("*.csv"))[0])
    out = tmp_path / "r.csv"
    cfg = tmp_path / "run.cfg"
    for key, message in (
        ("detectors", "usage error: unknown detector ''"),
        ("k", "usage error: k range must contain positive integers\n"),
    ):
        cfg.write_text(f"data = {one}\n{key} =\n")
        for argv in (("--data", one, f"--{key}", ""), ("--config", str(cfg))):
            assert run_cli("run", *argv, "--out", str(out)) == 1
            assert capsys.readouterr().err.startswith(message)
    assert not out.exists()
    assert run_cli("run", "--data", one, "--k", "5", "--out", str(out)) == 0
    default_grid = out.read_bytes()
    capsys.readouterr()
    cfg.write_text(f"data = {one}\nlid-grid =\n")
    for argv in (("--config", str(cfg)), ("--data", one, "--lid-grid", "")):
        out.unlink()
        assert run_cli("run", *argv, "--k", "5", "--out", str(out)) == 0
        assert out.read_bytes() == default_grid
        assert "LID grid truncated" not in capsys.readouterr().err


def test_config_defaults_do_not_outlive_their_call(synth_dir, tmp_path, capsys):
    one = str(sorted(synth_dir.glob("*.csv"))[0])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"detectors = knn\nk = 5\nlid-grid = 5\nout = {tmp_path / 'a.csv'}\n")
    assert run_cli("run", "--config", str(cfg), "--data", one) == 0
    assert run_cli("run", "--data", one) == 1  # the file's out is not kept
    assert capsys.readouterr().err == "usage error: run needs --out for the records CSV\n"
    out = tmp_path / "b.csv"
    assert run_cli("run", "--data", one, "--k", "5", "--lid-grid", "5", "--out", str(out)) == 0
    with open(out) as fh:
        assert [row["detector"] for row in csv.DictReader(fh)] == ["knn", "lof", "slof", "dao"]


@pytest.mark.parametrize("command", ["gen", "run", "report", "lid", "knn-cache"])
def test_unwritable_output_path_is_an_error_not_a_traceback(
    command, synth_dir, records_csv, tmp_path, capsys, monkeypatch
):
    from daodet import cli

    evaluated = []  # run checks its output path before any dataset is evaluated
    run_one = cli._run_one
    monkeypatch.setattr(cli, "_run_one", lambda task: evaluated.append(task[0]) or run_one(task))
    taken_file = tmp_path / "file"
    taken_file.write_text("keep\n")
    taken_dir = tmp_path / "dir"
    taken_dir.mkdir()
    one = str(sorted(synth_dir.glob("*.csv"))[0])
    argv, path = {
        "gen": (["--dims", "2", "--cluster-size", "30", "--out", str(taken_file)], taken_file),
        "run": (["--data", one, "--k", "5", "--lid-grid", "5", "--out", str(taken_dir)], taken_dir),
        "report": (["--records", str(records_csv), "--analysis", "ranks",
                    "--out", str(taken_file)], taken_file),
        "lid": (["--data", one, "--k", "5", "--out", str(taken_dir)], taken_dir),
        "knn-cache": (["--data", one, "--kmax", "5", "--cache", str(taken_file)], taken_file),
    }[command]
    capsys.readouterr()
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert taken_file.read_text() == "keep\n"
    assert list(taken_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert evaluated == []


def test_run_output_in_a_missing_directory_fails_before_the_sweep(
    synth_dir, tmp_path, capsys, monkeypatch
):
    from daodet import cli

    monkeypatch.setattr(cli, "_run_one", None)  # no dataset may be evaluated
    out = tmp_path / "missing" / "r.csv"
    assert run_cli("run", "--data", str(synth_dir), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{out.parent}'\n"
    assert list(tmp_path.iterdir()) == []


def test_run_empty_dataset_path_is_an_error(synth_dir, tmp_path, capsys, monkeypatch):
    # Path("") is the working directory, whose CSV files must not be read.
    one = str(sorted(synth_dir.glob("*.csv"))[0])
    monkeypatch.chdir(synth_dir)
    monkeypatch.setattr("daodet.cli.load_csv", None)  # no dataset may be read
    out = tmp_path / "r.csv"
    cfg = tmp_path / "run.cfg"

    def rejected(*argv):
        assert run_cli("run", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "usage error: empty dataset path in --data or the config file's data list\n"
        )

    rejected("--data", "")
    rejected("--data", one, "")
    for data in ("", f"{one},", f"{one},,{one}"):
        cfg.write_text(f"data = {data}\n")
        rejected("--config", str(cfg))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_run_pool_has_no_more_workers_than_files(synth_dir, records_csv, tmp_path, monkeypatch):
    from daodet import cli

    pools = []

    class SpyPool:  # records the pool size and maps in process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)
    grid = ("--k", "5..15:5", "--lid-grid", "5,10")
    one = sorted(synth_dir.glob("*.csv"))[0]
    assert run_cli("run", "--data", str(one), *grid, "--threads", "64",
                   "--out", str(tmp_path / "one.csv")) == 0
    assert pools == []  # one file runs serially
    out = tmp_path / "all.csv"
    assert run_cli("run", "--data", str(synth_dir), *grid, "--threads", "64",
                   "--out", str(out)) == 0
    assert pools == [len(list(synth_dir.glob("*.csv")))]  # 4 files, 4 workers
    assert out.read_bytes() == records_csv.read_bytes()


def test_labelled_csv_with_blank_first_line(tmp_path, capsys):
    from daodet.cli import _load_for_run

    rng = np.random.default_rng(5)
    ds = Dataset(points=rng.standard_normal((40, 3)), labels=np.arange(40) == 0)
    path = tmp_path / "blank.csv"
    write_csv(ds, path)
    path.write_text("\n" + path.read_text())
    loaded = _load_for_run(path, "label")
    assert loaded.dim == 3
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    out = tmp_path / "r.csv"
    assert run_cli(
        "run", "--data", str(path), "--k", "5", "--lid-grid", "5", "--out", str(out)
    ) == 0
    assert "skipping" not in capsys.readouterr().err


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


@pytest.mark.parametrize("k", ["0", "1"])
def test_lid_mle_rejects_k_below_two_before_reading_data(
    k, synth_dir, tmp_path, monkeypatch, capsys
):
    from daodet import cli

    data = sorted(synth_dir.glob("*.csv"))[0]
    out = tmp_path / "p.csv"
    # twonn ignores --k.
    assert run_cli("lid", "--data", str(data), "--estimator", "twonn", "--k", k, "--out", str(out)) == 0
    out.unlink()
    capsys.readouterr()
    loaded = []
    monkeypatch.setattr(cli, "_load_for_run", lambda *args: loaded.append(args))
    assert run_cli("lid", "--data", str(data), "--k", k, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"usage error: mle needs --k >= 2, got {k}\n"
    assert loaded == [] and not out.exists()


def test_knn_cache_command(synth_dir, tmp_path):
    cache = tmp_path / "cache"
    data = sorted(synth_dir.glob("*.csv"))[0]
    assert run_cli("knn-cache", "--data", str(data), "--kmax", "15", "--cache", str(cache)) == 0
    assert len(list(cache.glob("*.knn"))) == 1


@pytest.mark.parametrize(
    "estimator, message",
    [("bogus", "unknown estimator 'bogus'"), ("tle", "tle estimator is not built")],
)
def test_lid_rejects_estimator_before_building_a_graph(
    estimator, message, synth_dir, tmp_path, monkeypatch, capsys
):
    from daodet import cli

    built = []
    monkeypatch.setattr(cli, "build_neighbor_graph", lambda *args: built.append(args))
    data = sorted(synth_dir.glob("*.csv"))[0]
    assert run_cli(
        "lid", "--data", str(data), "--estimator", estimator, "--out", str(tmp_path / "p.csv")
    ) == 2
    assert message in capsys.readouterr().err
    assert built == []


def test_knn_cache_twice_keeps_one_entry(synth_dir, tmp_path, monkeypatch):
    from daodet import cli, neighbors

    cache = tmp_path / "cache"
    data = sorted(synth_dir.glob("*.csv"))[0]
    argv = ("knn-cache", "--data", str(data), "--kmax", "15", "--cache", str(cache))
    assert run_cli(*argv) == 0
    (entry,) = cache.iterdir()
    first = entry.read_bytes()

    def no_build(*args):
        raise AssertionError("knn-cache rebuilt a valid cache entry")

    monkeypatch.setattr(neighbors, "build_neighbor_graph", no_build)
    monkeypatch.setattr(cli, "build_neighbor_graph", no_build)
    assert run_cli(*argv) == 0
    assert list(cache.iterdir()) == [entry]
    assert entry.read_bytes() == first


# A daodet run that starts once the file named by argv[1] exists, after
# touching the file named by argv[2].
_RUN_ON_SIGNAL = """
import sys, time
from pathlib import Path
from daodet.cli import main
Path(sys.argv[2]).touch()
while not Path(sys.argv[1]).exists():
    time.sleep(0.001)
sys.exit(main(sys.argv[3:]))
"""


def test_two_processes_racing_on_one_cache_entry(tmp_path):
    data, cache = tmp_path / "data", tmp_path / "cache"
    assert run_cli("gen", "--reps", "1", "--dims", "4", "--cluster-size", "400", "--seed", "3",
                   "--out", str(data)) == 0
    grids = ["--k", "5..15:5", "--lid-grid", "5,10"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    go = tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RUN_ON_SIGNAL, str(go), str(tmp_path / f"ready{i}"),
             "run", "--data", str(data), *grids, "--cache", str(cache),
             "--out", str(tmp_path / f"records{i}.csv")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    try:
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready{i}").exists() for i in range(2)):
            assert time.monotonic() < deadline and all(p.poll() is None for p in procs)
            time.sleep(0.01)
        go.touch()
        results = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    assert [p.returncode for p in procs] == [0, 0], results
    assert all(err == "" for _, err in results)
    records = (tmp_path / "records0.csv").read_bytes()
    assert (tmp_path / "records1.csv").read_bytes() == records
    assert run_cli("run", "--data", str(data), *grids, "--out", str(tmp_path / "r.csv")) == 0
    assert (tmp_path / "r.csv").read_bytes() == records
    (entry,) = cache.iterdir()  # one entry, no temp file left behind
    load_graph(entry, n_features=32, n=800, kmax=15)


def test_cli_import_leaves_scipy_unloaded():
    import daodet

    src = str(Path(daodet.__file__).resolve().parents[1])
    code = "import sys, daodet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


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
