"""Command-line interface.

Subcommands: ``gen`` (synthetic benchmark datasets), ``run`` (best-k
evaluation records), ``report`` (figures, regression tables, ranks),
``lid`` (dump a LID profile), ``knn-cache`` (prebuild a neighbor graph).

Exit codes: 0 ok, 1 usage, 2 data error, 3 incomplete analysis grid.
A ``key = value`` config file can pre-set any ``run`` option; explicit
flags win. Worker count comes from ``--threads`` or DAODET_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, plots, synthgen
from .dataset import (
    DISTINCTNESS_WARN_THRESHOLD,
    Dataset,
    DatasetError,
    feature_distinctness,
    load_csv,
    read_sidecar,
    write_csv,
)
from .detectors import DETECTORS
from .evaluation import (
    EvalRecord,
    IncompleteGridError,
    SweepConfig,
    evaluate_dataset,
    friedman_nemenyi,
    ols_regression,
    read_records_csv,
    time_detector,  # noqa: F401 (unused here; perfbench/spans.py traces this name)
    with_dims,
    with_timing,
    write_records_csv,
)
from .lid import FeatureUnavailableError, estimate_profile, estimator_k_grid, write_profile_csv
from .neighbors import build_neighbor_graph, cached_neighbor_graph, graph_cache_key, save_graph

THREADS_ENV = "DAODET_THREADS"


class UsageError(Exception):
    pass


def parse_int_list(spec: str) -> list[int]:
    """Parse 'a..b', 'a..b:step', or a comma list into sorted integers."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo_s, _, rest = spec.partition("..")
            hi_s, _, step_s = rest.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            step = int(step_s) if step_s else 1
            if step < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1, step))
        return sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    except ValueError:
        raise UsageError(f"cannot parse integer range {spec!r}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"no such config file: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _check_distinctness(ds: Dataset) -> None:
    frac = feature_distinctness(ds)
    if frac.max() < DISTINCTNESS_WARN_THRESHOLD:
        _warn(
            f"dataset {ds.name!r}: no attribute spans at least "
            f"{DISTINCTNESS_WARN_THRESHOLD:.0%} distinct values "
            f"(max {frac.max():.1%}); detectors assume continuous features"
        )


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    dims = parse_int_list(args.dims)
    template = synthgen.SynthSpec(
        ambient_dim=args.ambient_dim,
        cluster_size=args.cluster_size,
        dim_c1=args.dim_c1,
    )
    for d in dims:
        if not 1 <= d <= args.ambient_dim:
            raise UsageError(f"--dims value {d} outside [1, ambient {args.ambient_dim}]")
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    index = 0
    for _ in range(args.reps):
        for dim in dims:
            spec = replace(template, dim_c2=dim, seed=args.seed + index)
            dataset, report = synthgen.generate(spec)
            write_csv(dataset, out / f"{dataset.name}.csv", synthgen.sidecar_metadata(spec, report))
            count += 1
            index += 1
    print(f"wrote {count} datasets to {out}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _collect_data_paths(specs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        elif p.exists():
            paths.append(p)
        else:
            raise DatasetError(f"no such dataset path: {spec}")
    if not paths:
        raise DatasetError("no dataset files found")
    return paths


def _load_for_run(path: Path, label_column: str) -> Dataset:
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), None)
    has_label = first is not None and label_column in [c.strip() for c in first]
    return load_csv(path, label_column=label_column if has_label else None)


def _run_one(task: tuple[str, str, dict]) -> tuple[str, list[EvalRecord] | None]:
    """Evaluate one dataset file; returns (path, records or None if skipped)."""
    path_s, label_column, opts = task
    path = Path(path_s)
    ds = _load_for_run(path, label_column)
    _check_distinctness(ds)
    if ds.labels is None:
        return path_s, None
    config = SweepConfig(
        detectors=tuple(opts["detectors"]),
        k_range=opts["k_range"],
        lid_estimator=opts["estimator"],
        lid_k_grid=opts["lid_grid"],
    )
    n = ds.n
    ks = [k for k in opts["k_range"] if k <= n - 1]
    if len(ks) < len(list(opts["k_range"])):
        _warn(f"dataset {ds.name!r}: k range truncated to <= {n - 1}")
    graph = None
    if opts["cache"]:
        grid = opts["lid_grid"] if opts["lid_grid"] is not None else estimator_k_grid(n)
        kmax = max(max(ks), max(k for k in grid if k <= n - 1))
        graph = cached_neighbor_graph(ds, kmax, opts["cache"])
    records = evaluate_dataset(ds, config, graph=graph)
    meta = read_sidecar(path) or {}
    dim_c1, dim_c2 = meta.get("dim_c1"), meta.get("dim_c2")
    records = [with_dims(rec, dim_c1, dim_c2) for rec in records]
    if opts["timing"]:
        # One call per dataset, so the detectors share a distance matrix and
        # their runs interleave.
        times = evaluation.time_detectors(
            ds, [rec.detector for rec in records], ks, opts["estimator"], opts["lid_grid"]
        )
        records = [with_timing(rec, *times[rec.detector]) for rec in records]
    return path_s, records


def cmd_run(args, config_file: dict[str, str]) -> int:
    def setting(name: str, default: str | None) -> str | None:
        flag = getattr(args, name)
        if flag is not None:
            return flag
        return config_file.get(name, default)

    data = args.data if args.data else (
        config_file["data"].split(",") if "data" in config_file else None
    )
    if not data:
        raise UsageError("run needs --data (or 'data = ...' in the config file)")
    detectors = [d.strip() for d in setting("detectors", ",".join(DETECTORS)).split(",")]
    for d in detectors:
        if d not in DETECTORS:
            raise UsageError(f"unknown detector {d!r}; choose from {DETECTORS}")
    estimator = setting("estimator", "mle")
    if estimator == "tle":
        raise FeatureUnavailableError("the tle estimator is not built; use 'mle' or 'twonn'")
    if estimator not in ("mle", "twonn"):
        raise UsageError(f"unknown estimator {estimator!r}")
    k_range = parse_int_list(setting("k", "5..100"))
    lid_grid_s = setting("lid_grid", None)
    lid_grid = parse_int_list(lid_grid_s) if lid_grid_s else None
    out = setting("out", None)
    if out is None:
        raise UsageError("run needs --out for the records CSV")
    label_column = setting("label_column", "label")
    cache = setting("cache", None)
    threads = int(setting("threads", os.environ.get(THREADS_ENV, "1")))
    timing = bool(args.timing or config_file.get("timing", "").lower() in ("1", "true", "yes"))

    paths = _collect_data_paths(list(data))
    opts = {
        "detectors": detectors,
        "k_range": k_range,
        "estimator": estimator,
        "lid_grid": lid_grid,
        "cache": cache,
        "timing": timing,
    }
    tasks = [(str(p), label_column, opts) for p in paths]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]

    all_records: list[EvalRecord] = []
    skipped = 0
    for path_s, records in results:
        if records is None:
            _warn(f"skipping unlabeled dataset {path_s}")
            skipped += 1
        else:
            all_records.extend(records)
    if not all_records:
        print("error: all datasets were skipped (no labels found)", file=sys.stderr)
        return 2
    order = {d: i for i, d in enumerate(detectors)}
    all_records.sort(key=lambda r: (r.dataset, order[r.detector]))
    write_records_csv(all_records, out)
    print(f"wrote {len(all_records)} records for {len(paths) - skipped} datasets to {out}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _pivot(records: list[EvalRecord]):
    datasets = sorted({r.dataset for r in records})
    detectors = sorted({r.detector for r in records})
    cell: dict[tuple[str, str], EvalRecord] = {}
    for r in records:
        cell[(r.dataset, r.detector)] = r
    missing = [
        f"({ds}, {det})" for ds in datasets for det in detectors if (ds, det) not in cell
    ]
    if missing:
        raise IncompleteGridError(
            f"records grid incomplete; missing cells: {', '.join(missing)}"
        )
    return datasets, detectors, cell


def _report_fig1(records, out: Path) -> None:
    if any(r.dim_c2 is None for r in records):
        raise IncompleteGridError(
            "fig1 needs dim_c2 metadata on every record (generate datasets with 'gen')"
        )
    datasets, detectors, cell = _pivot(records)
    dims = sorted({r.dim_c2 for r in records})
    rows = []
    series: dict[str, tuple[list[float], list[float]]] = {d: ([], []) for d in detectors}
    for dim in dims:
        for det in detectors:
            aucs = [r.roc_auc for r in records if r.detector == det and r.dim_c2 == dim]
            mean, std = float(np.mean(aucs)), float(np.std(aucs))
            rows.append([dim, det, repr(mean), repr(std), len(aucs)])
            series[det][0].append(mean)
            series[det][1].append(std)
    with open(out / "fig1.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim_c2", "detector", "mean_auc", "std_auc", "n_datasets"])
        writer.writerows(rows)
    plots.write_svg(
        out / "fig1.svg",
        plots.line_plot_svg(dims, series, "intrinsic dimension of cluster 2", "ROC AUC"),
    )


def _auc_diff_rows(records):
    """Per dataset: (morans_I, R, {pair: auc difference vs the LID-aware
    detector}), including the best competitor ('oracle')."""
    datasets, detectors, cell = _pivot(records)
    if "dao" not in detectors:
        raise IncompleteGridError("analysis needs 'dao' records")
    baselines = [d for d in detectors if d != "dao"]
    if not baselines:
        raise IncompleteGridError("analysis needs at least one non-dao detector")
    rows = []
    for ds in datasets:
        dao = cell[(ds, "dao")]
        diffs = {f"dao:{b}": dao.roc_auc - cell[(ds, b)].roc_auc for b in baselines}
        diffs["dao:oracle"] = dao.roc_auc - max(cell[(ds, b)].roc_auc for b in baselines)
        rows.append((ds, dao.morans_I, dao.dispersion_R, diffs))
    return rows, baselines


def _report_fig2(records, out: Path) -> None:
    rows, baselines = _auc_diff_rows(records)
    pairs = [f"dao:{b}" for b in baselines] + ["dao:oracle"]
    with open(out / "fig2.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "morans_I", "dispersion_R", "pair", "auc_diff"])
        for ds, mi, disp, diffs in rows:
            for pair in pairs:
                writer.writerow([ds, repr(mi), repr(disp), pair, repr(diffs[pair])])
    for pair in pairs:
        svg = plots.scatter_plot_svg(
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3][pair] for r in rows],
            "Moran's I of log-LID",
            "dispersion R of log-LID",
            title=f"AUC difference, {pair}",
        )
        plots.write_svg(out / f"fig2_{pair.replace(':', '_')}.svg", svg)


def _write_regression_csv(path: Path, results: dict[str, evaluation.RegressionResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "m", "p", "rho"])
        for pair, res in results.items():
            writer.writerow([pair, repr(res.slope), repr(res.p_value), repr(res.pearson_rho)])


def _report_tables(records, out: Path) -> None:
    rows, baselines = _auc_diff_rows(records)
    pairs = [f"dao:{b}" for b in baselines]
    regressors: dict[str, list[float]] = {
        "dispersion": [r[2] for r in rows],
        "morans": [r[1] for r in rows],
    }
    by_ds = {r.dataset: r for r in records if r.detector == "dao"}
    if all(r.dim_c1 is not None and r.dim_c2 is not None for r in by_ds.values()):
        regressors["dimgap"] = [
            abs(by_ds[ds].dim_c1 - by_ds[ds].dim_c2) for ds, _, _, _ in rows
        ]
    lines = []
    for name, xs in regressors.items():
        results = {}
        for pair in pairs:
            ys = [r[3][pair] for r in rows]
            results[pair] = ols_regression(np.array(xs), np.array(ys))
        _write_regression_csv(out / f"tables_{name}.csv", results)
        lines.append(f"regression of AUC difference on {name}:")
        for pair, res in results.items():
            lines.append(
                f"  {pair}: m={res.slope:.5f} p={res.p_value:.3g} rho={res.pearson_rho:.3f}"
            )
    (out / "tables.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def _report_ranks(records, out: Path, alpha: float) -> None:
    datasets, detectors, cell = _pivot(records)
    table = np.array([[cell[(ds, det)].roc_auc for det in detectors] for ds in datasets])
    avg_ranks, cd = friedman_nemenyi(table, alpha=alpha)
    with open(out / "ranks.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detector", "avg_rank"])
        for det, rank in zip(detectors, avg_ranks):
            writer.writerow([det, repr(float(rank))])
    lines = [
        f"average ranks over {len(datasets)} datasets (1 = best):",
        *(
            f"  {det}: {rank:.4f}"
            for det, rank in sorted(zip(detectors, avg_ranks), key=lambda t: t[1])
        ),
        f"Nemenyi critical distance at alpha={alpha:g}: {cd:.4f}",
    ]
    (out / "ranks.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    if not records:
        raise DatasetError(f"no records in {args.records}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for analysis in args.analysis:
        if analysis == "fig1":
            _report_fig1(records, out)
        elif analysis == "fig2":
            _report_fig2(records, out)
        elif analysis == "tables":
            _report_tables(records, out)
        elif analysis == "ranks":
            _report_ranks(records, out, args.alpha)
        else:
            raise UsageError(f"unknown analysis {analysis!r}")
    print(f"report artifacts written to {out}")
    return 0


# ---------------------------------------------------------------------------
# lid / knn-cache
# ---------------------------------------------------------------------------

def cmd_lid(args) -> int:
    ds = _load_for_run(Path(args.data), args.label_column)
    _check_distinctness(ds)
    if args.estimator == "tle":
        raise FeatureUnavailableError("the tle estimator is not built; use 'mle' or 'twonn'")
    kmax = max(args.k, 2)
    if kmax > ds.n - 1:
        raise UsageError(f"--k {args.k} too large for n={ds.n}")
    graph = build_neighbor_graph(ds, kmax)
    profile = estimate_profile(args.estimator, graph, args.k)
    write_profile_csv(profile, args.out)
    print(f"wrote {profile.estimator} profile (k={profile.k_used}) to {args.out}")
    return 0


def cmd_knn_cache(args) -> int:
    ds = _load_for_run(Path(args.data), args.label_column)
    if not 1 <= args.kmax <= ds.n - 1:
        raise UsageError(f"--kmax must lie in [1, {ds.n - 1}]")
    cache_dir = Path(args.cache)
    cache_dir.mkdir(parents=True, exist_ok=True)
    graph = build_neighbor_graph(ds, args.kmax, method=args.method)
    key = graph_cache_key(ds, args.kmax, graph.metric)
    save_graph(graph, cache_dir / f"{key}.knn")
    print(f"cached graph {key} (n={graph.n}, kmax={graph.kmax}) in {cache_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="daodet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic benchmark datasets")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--dims", default="2..32:2", help="dim_c2 values, e.g. 2..32:2 or 2,8,16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--cluster-size", type=int, default=800)
    p.add_argument("--dim-c1", type=int, default=8)
    p.add_argument("--ambient-dim", type=int, default=32)

    p = sub.add_parser("run", help="evaluate detectors, write records CSV")
    p.add_argument("--data", nargs="*", help="dataset CSV files or directories")
    p.add_argument("--detectors", help=f"comma list from {DETECTORS}")
    p.add_argument("--k", help="detector k range, e.g. 5..100")
    p.add_argument("--estimator", help="LID estimator: mle or twonn")
    p.add_argument("--lid-grid", dest="lid_grid", help="LID k grid override")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--out", help="records CSV path")
    p.add_argument("--threads", help=f"worker processes (or ${THREADS_ENV})")
    p.add_argument("--cache", help="neighbor graph cache directory")
    p.add_argument("--timing", action="store_true", help="measure per-run detector times")
    p.add_argument("--config", help="key = value config file; flags win")

    p = sub.add_parser("report", help="analyses over a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--analysis", nargs="+", choices=["fig1", "fig2", "tables", "ranks"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("lid", help="dump a per-point LID profile CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--estimator", default="mle")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--label-column", dest="label_column", default="label")
    p.add_argument("--out", required=True)

    p = sub.add_parser("knn-cache", help="prebuild a neighbor graph cache entry")
    p.add_argument("--data", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--method", choices=["brute", "kdtree"], default="brute")
    p.add_argument("--label-column", dest="label_column", default="label")
    p.add_argument("--cache", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage problems
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            config_file = load_config_file(args.config) if args.config else {}
            return cmd_run(args, config_file)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "lid":
            return cmd_lid(args)
        if args.command == "knn-cache":
            return cmd_knn_cache(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IncompleteGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, FeatureUnavailableError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
