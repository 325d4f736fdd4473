"""Command-line interface.

Subcommands: ``gen`` (synthetic benchmark datasets), ``run`` (best-k
evaluation records), ``report`` (figures, regression tables, ranks),
``lid`` (dump a LID profile), ``knn-cache`` (prebuild a neighbor graph).

Exit codes: 0 ok, 1 usage, 2 data or I/O error, 3 incomplete analysis grid.
A ``run`` setting comes from its flag, else the ``--config`` file's
``key = value`` line, else its default: DAODET_THREADS (else 1) for
``--threads``, and ``evaluation.SweepConfig``'s for the sweep settings.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, plots, synthgen
from .dataset import (
    DISTINCTNESS_WARN_THRESHOLD,
    Dataset,
    DatasetError,
    MissingLabelColumn,
    check_replaceable,
    feature_distinctness,
    load_csv,
    read_sidecar,
    write_csv,
    write_table,
    write_text,
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
    write_records_csv,
)
from .lid import FeatureUnavailableError, check_estimator, estimate_profile, write_profile_csv
from .neighbors import build_neighbor_graph, cached_neighbor_graph

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


def load_config_file(path: str | Path, keys: set[str]) -> dict:
    """The file's settings, each key one of ``keys``, as ``run`` parser defaults."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"no such config file: {path}")
    values: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    unknown = sorted(set(values) - keys)
    if unknown:
        raise UsageError(f"unknown config file key(s): {', '.join(unknown)}")
    if "data" in values:
        values["data"] = values["data"].split(",")
    if "timing" in values:
        values["timing"] = values["timing"].lower() in ("1", "true", "yes")
    return values


def _check_distinctness(ds: Dataset) -> list[str]:
    """The warning line for a dataset with only coarse attributes, if any."""
    frac = feature_distinctness(ds)
    if frac.max() >= DISTINCTNESS_WARN_THRESHOLD:
        return []
    return [
        f"warning: dataset {ds.name!r}: no attribute spans at least "
        f"{DISTINCTNESS_WARN_THRESHOLD:.0%} distinct values "
        f"(max {frac.max():.1%}); detectors assume continuous features"
    ]


def _cache_warning(ds: Dataset, problem: str | None) -> list[str]:
    """The warning line for a corrupt cache entry that was rebuilt, if any."""
    if problem is None:
        return []
    return [f"warning: dataset {ds.name!r}: rebuilding graph cache entry: {problem}"]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    try:
        # suite_specs sets each spec's dim_c2 and checks it against the
        # ambient dimension; the template's placeholder adds no check of its own.
        template = synthgen.SynthSpec(
            ambient_dim=args.ambient_dim,
            cluster_size=args.cluster_size,
            dim_c1=args.dim_c1,
            dim_c2=args.dim_c1,
        )
        specs = synthgen.suite_specs(args.reps, parse_int_list(args.dims), args.seed, template)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        dataset, report = synthgen.generate(spec)
        write_csv(dataset, out / f"{dataset.name}.csv", synthgen.sidecar_metadata(spec, report))
    print(f"wrote {len(specs)} datasets to {out}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _collect_data_paths(specs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for spec in specs:
        if not spec:  # Path("") would be the working directory
            raise UsageError("empty dataset path in --data or the config file's data list")
        p = Path(spec)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        elif p.exists():
            paths.append(p)
        else:
            raise DatasetError(f"no such dataset path: {spec}")
    if not paths:
        raise DatasetError("no dataset files found")
    # A dataset is named by its file stem, and records are keyed by that name.
    by_name: dict[str, Path] = {}
    for p in paths:
        if p.stem in by_name:
            raise DatasetError(f"two inputs name dataset {p.stem!r}: {by_name[p.stem]} and {p}")
        by_name[p.stem] = p
    return paths


def _load_for_run(path: Path, label_column: str) -> Dataset:
    """Load with ``label_column`` when the header names it, else unlabeled."""
    try:
        return load_csv(path, label_column)
    except MissingLabelColumn:
        return load_csv(path)


def _run_one(
    task: tuple[str, str, SweepConfig, str | None, bool],
) -> tuple[list[EvalRecord] | None, list[str], bool]:
    """Evaluate one dataset file.

    Returns (records, lines, failed): records is None when the file is
    unlabeled or fails, lines are its stderr lines in the order they arose,
    and failed marks a data or I/O failure, so one bad file does not stop
    the others (also under a process pool). cmd_run prints the lines.
    """
    path_s, label_column, config, cache, timing = task
    lines: list[str] = []
    try:
        ds = _load_for_run(Path(path_s), label_column)
        lines += _check_distinctness(ds)
        if ds.labels is None:
            return None, lines + [f"warning: skipping unlabeled dataset {path_s}"], False
        meta = read_sidecar(Path(path_s)) or {}
        det_ks, lid_ks, kmax = config.grids(ds.n)
        if len(det_ks) < len(config.k_range):
            lines.append(f"warning: dataset {ds.name!r}: k range truncated to <= {ds.n - 1}")
        # The default LID grid is documented to truncate; only a given one warns.
        if config.lid_k_grid is not None and lid_ks[-1] < max(config.lid_k_grid):
            lines.append(f"warning: dataset {ds.name!r}: LID grid truncated to <= {ds.n - 1}")
        graph, problem = cached_neighbor_graph(ds, kmax, cache) if cache else (None, None)
        lines += _cache_warning(ds, problem)
        records = evaluate_dataset(ds, config, graph=graph)
        # One timing call per dataset, so the detectors share a distance
        # matrix and their runs interleave.
        times = evaluation.time_detectors(ds, config) if timing else {}
        for i, rec in enumerate(records):
            mean_s, std_s = times.get(rec.detector, (None, None))
            records[i] = replace(
                rec, dim_c1=meta.get("dim_c1"), dim_c2=meta.get("dim_c2"),
                runtime_mean_s=mean_s, runtime_std_s=std_s,
            )
        return records, lines, False
    except (ValueError, OSError) as exc:  # DatasetError is a ValueError
        return None, lines + [f"error: {path_s}: {exc}"], True


def cmd_run(args) -> int:
    if not args.data:
        raise UsageError("run needs --data (or 'data = ...' in the config file)")
    sweep = {
        "detectors": args.detectors, "k_range": args.k,
        "lid_estimator": args.estimator, "lid_k_grid": args.lid_grid,
    }
    try:
        # Only the settings given: SweepConfig holds the defaults.
        config = SweepConfig(**{name: v for name, v in sweep.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.out is None:
        raise UsageError("run needs --out for the records CSV")
    try:
        threads = int(args.threads)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"threads must be a positive integer, got {args.threads!r}")

    paths = _collect_data_paths(args.data)
    check_replaceable(args.out)  # before the sweep, not after it
    tasks = [(str(p), args.label_column, config, args.cache, args.timing) for p in paths]
    workers = min(threads, len(tasks))  # a fork pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = map(_run_one, tasks)  # lazily: each file's lines print when it is done

    all_records: list[EvalRecord] = []
    datasets = failed = 0
    for records, lines, file_failed in results:
        for line in lines:
            print(line, file=sys.stderr)
        failed += file_failed
        if records is not None:
            all_records.extend(records)
            datasets += 1
    if not all_records:
        if not failed:
            print("error: all datasets were skipped (no labels found)", file=sys.stderr)
        return 2
    order = {d: i for i, d in enumerate(config.detectors)}
    all_records.sort(key=lambda r: (r.dataset, order[r.detector]))
    write_records_csv(all_records, args.out)
    print(f"wrote {len(all_records)} records for {datasets} datasets to {args.out}")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _pivot(records: list[EvalRecord]):
    """The sorted dataset and detector names and each (dataset, detector)
    cell's record; a missing or duplicate cell raises IncompleteGridError."""
    datasets = sorted({r.dataset for r in records})
    detectors = sorted({r.detector for r in records})
    cell = {(r.dataset, r.detector): r for r in records}
    counts = Counter((r.dataset, r.detector) for r in records)
    missing = [(ds, det) for ds in datasets for det in detectors if (ds, det) not in cell]
    duplicate = sorted(key for key, count in counts.items() if count > 1)
    problems = [
        f"{kind} cells: {', '.join(f'({ds}, {det})' for ds, det in cells)}"
        for kind, cells in (("missing", missing), ("duplicate", duplicate))
        if cells
    ]
    if problems:
        raise IncompleteGridError(f"records grid incomplete; {'; '.join(problems)}")
    return datasets, detectors, cell


# An analysis returns its artifacts as (file name, content) pairs, and
# cmd_report writes them only once every requested analysis has succeeded.
# The content of a ``.csv`` is its (header, rows), of an ``.svg`` its
# markup, and of a ``.txt`` its text, which is also printed.

def _report_fig1(datasets, detectors, cell) -> list:
    if any(r.dim_c2 is None for r in cell.values()):
        raise IncompleteGridError(
            "fig1 needs dim_c2 metadata on every record (generate datasets with 'gen')"
        )
    dims = sorted({r.dim_c2 for r in cell.values()})
    rows = []
    series: dict[str, tuple[list[float], list[float]]] = {d: ([], []) for d in detectors}
    for dim in dims:
        for det in detectors:
            aucs = [cell[(ds, det)].roc_auc for ds in datasets if cell[(ds, det)].dim_c2 == dim]
            mean, std = float(np.mean(aucs)), float(np.std(aucs))
            rows.append([dim, det, mean, std, len(aucs)])
            series[det][0].append(mean)
            series[det][1].append(std)
    svg = plots.line_plot_svg(dims, series, "intrinsic dimension of cluster 2", "ROC AUC")
    return [
        ("fig1.csv", (["dim_c2", "detector", "mean_auc", "std_auc", "n_datasets"], rows)),
        ("fig1.svg", svg),
    ]


def _auc_diff_rows(datasets, detectors, cell):
    """Per dataset: (name, morans_I, R, {pair: auc difference vs the
    LID-aware detector}), including the best competitor ('oracle')."""
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


def _report_fig2(rows, baselines) -> list:
    pairs = [f"dao:{b}" for b in baselines] + ["dao:oracle"]
    table = [[ds, mi, disp, pair, diffs[pair]] for ds, mi, disp, diffs in rows for pair in pairs]
    artifacts = [("fig2.csv", (["dataset", "morans_I", "dispersion_R", "pair", "auc_diff"], table))]
    for pair in pairs:
        svg = plots.scatter_plot_svg(
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3][pair] for r in rows],
            "Moran's I of log-LID",
            "dispersion R of log-LID",
            title=f"AUC difference, {pair}",
        )
        artifacts.append((f"fig2_{pair.replace(':', '_')}.svg", svg))
    return artifacts


def _report_tables(datasets, detectors, cell, rows, baselines) -> list:
    pairs = [f"dao:{b}" for b in baselines]
    regressors: dict[str, list[float]] = {
        "dispersion": [r[2] for r in rows],
        "morans": [r[1] for r in rows],
    }
    dao = [cell[(ds, "dao")] for ds in datasets]
    if all(r.dim_c1 is not None and r.dim_c2 is not None for r in dao):
        regressors["dimgap"] = [abs(r.dim_c1 - r.dim_c2) for r in dao]
    artifacts, lines = [], []
    for name, xs in regressors.items():
        results = {}
        for pair in pairs:
            ys = [r[3][pair] for r in rows]
            results[pair] = ols_regression(np.array(xs), np.array(ys))
        table = [[pair, res.slope, res.p_value, res.pearson_rho] for pair, res in results.items()]
        artifacts.append((f"tables_{name}.csv", (["pair", "m", "p", "rho"], table)))
        lines.append(f"regression of AUC difference on {name}:")
        for pair, res in results.items():
            lines.append(
                f"  {pair}: m={res.slope:.5f} p={res.p_value:.3g} rho={res.pearson_rho:.3f}"
            )
    return artifacts + [("tables.txt", "\n".join(lines) + "\n")]


def _report_ranks(datasets, detectors, cell, alpha: float) -> list:
    table = np.array([[cell[(ds, det)].roc_auc for det in detectors] for ds in datasets])
    avg_ranks, cd = friedman_nemenyi(table, alpha=alpha)
    table = [[det, float(rank)] for det, rank in zip(detectors, avg_ranks)]
    lines = [
        f"average ranks over {len(datasets)} datasets (1 = best):",
        *(
            f"  {det}: {rank:.4f}"
            for det, rank in sorted(zip(detectors, avg_ranks), key=lambda t: t[1])
        ),
        f"Nemenyi critical distance at alpha={alpha:g}: {cd:.4f}",
    ]
    return [
        ("ranks.csv", (["detector", "avg_rank"], table)),
        ("ranks.txt", "\n".join(lines) + "\n"),
    ]


def cmd_report(args) -> int:
    for i, analysis in enumerate(args.analysis):
        if analysis in args.analysis[:i]:
            raise UsageError(f"analysis {analysis!r} is named twice")
    records = read_records_csv(args.records)
    if not records:
        raise DatasetError(f"no records in {args.records}")
    grid = _pivot(records)
    diffs = None  # _auc_diff_rows, computed once for fig2 and tables
    artifacts = []
    for analysis in args.analysis:
        if analysis in ("fig2", "tables") and diffs is None:
            diffs = _auc_diff_rows(*grid)
        if analysis == "fig1":
            artifacts += _report_fig1(*grid)
        elif analysis == "fig2":
            artifacts += _report_fig2(*diffs)
        elif analysis == "tables":
            artifacts += _report_tables(*grid, *diffs)
        elif analysis == "ranks":
            artifacts += _report_ranks(*grid, args.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts:
        if name.endswith(".csv"):
            write_table(out / name, *content)
        elif name.endswith(".svg"):
            plots.write_svg(out / name, content)
        else:
            write_text(out / name, content)
            print(content, end="")
    print(f"report artifacts written to {out}")
    return 0


# ---------------------------------------------------------------------------
# lid / knn-cache
# ---------------------------------------------------------------------------

def cmd_lid(args) -> int:
    check_estimator(args.estimator)
    if args.estimator == "mle" and args.k < 2:
        raise UsageError(f"mle needs --k >= 2, got {args.k}")
    ds = _load_for_run(Path(args.data), args.label_column)
    for line in _check_distinctness(ds):
        print(line, file=sys.stderr)
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
    graph, problem = cached_neighbor_graph(ds, args.kmax, args.cache)
    for line in _cache_warning(ds, problem):
        print(line, file=sys.stderr)
    print(f"cached graph (n={graph.n}, kmax={graph.kmax}) in {args.cache}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser(run_defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``run_defaults`` replace the ``run`` options' defaults."""
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
    p.add_argument(
        "--detectors", type=lambda s: tuple(d.strip() for d in s.split(",")),
        help=f"comma list from {DETECTORS}",
    )
    p.add_argument("--k", type=parse_int_list, help="detector k range, e.g. 5..100")
    p.add_argument("--estimator", help="LID estimator: mle or twonn")
    p.add_argument(
        "--lid-grid", dest="lid_grid", type=lambda s: parse_int_list(s) if s else None,
        help="LID k grid override (empty: the default grid)",
    )
    p.add_argument("--label-column", dest="label_column", default="label")
    p.add_argument("--out", help="records CSV path")
    p.add_argument(
        "--threads", default=os.environ.get(THREADS_ENV, "1"),
        help=f"worker processes (default ${THREADS_ENV}, else 1)",
    )
    p.add_argument("--cache", help="neighbor graph cache directory")
    p.add_argument("--timing", action="store_true", help="measure per-run detector times")
    p.add_argument("--config", help="key = value config file; flags win")
    p.set_defaults(**(run_defaults or {}))

    p = sub.add_parser("report", help="analyses over a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--analysis", nargs="+", choices=["fig1", "fig2", "tables", "ranks"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05, choices=sorted(evaluation._NEMENYI_Q))

    p = sub.add_parser("lid", help="dump a per-point LID profile CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--estimator", default="mle")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--label-column", dest="label_column", default="label")
    p.add_argument("--out", required=True)

    p = sub.add_parser("knn-cache", help="prebuild a neighbor graph cache entry")
    p.add_argument("--data", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--label-column", dest="label_column", default="label")
    p.add_argument("--cache", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run" and args.config:
            # The file's settings become the run parser's defaults, so flags win.
            keys = set(vars(args)) - {"command", "config"}
            args = build_parser(load_config_file(args.config, keys)).parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "lid":
            return cmd_lid(args)
        return cmd_knn_cache(args)
    except SystemExit as exc:  # argparse exits with 2 on usage problems
        return 0 if exc.code == 0 else 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IncompleteGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, FeatureUnavailableError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
