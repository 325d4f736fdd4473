#!/usr/bin/env python3
"""The daodet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it imports daodet from the ``src/`` next to this
directory and drives the public CLI (``daodet.cli.main``). It sets up the
workload's inputs three times (``setup_s`` is their median; once with
``--trace 1``), then repeats the workload's timed command chain, each
repetition in a fresh process, until ``S`` seconds of repetitions have run
and the workload's minimum count (``Workload.reps``) is met. Every
repetition's outputs are checked (see ``checks.py``); a dataset whose
outputs are wrong, or whose chain failed, counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` untraced and traced repetitions alternate, and the result
holds the per-layer metrics of the traced ones (self seconds and calls per
wrapped function, cache traffic, the unattributed remainder) plus
``trace.overhead_frac``, the traced wall time over the untraced one, minus 1.

The last line of standard output is the result as one JSON object; the line
before it is a JSON summary with the run facts, timing sample counts,
derived numbers and any failures. ``--write-expected`` (default seed only)
stores the hashes of this run's outputs as the reference in expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from quantiles import summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cache_dir, data_dir  # noqa: E402

EXPECTED = HERE / "expected.json"
WORK_ROOT = ROOT / ".perfbench_work"  # scratch space inside the checkout, removed at exit
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
ORACLE_DATASETS = 1
# One BLAS thread keeps repeated runs steady on a small shared machine.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "datasets_per_s": "1/s", "peak_rss_mb": "MB"}
STUDY_DATASETS = 480  # the full study: --reps 30 --dims 2..32:2


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({
        "neighbors.cache_bytes_read": "B",
        "neighbors.cache_bytes_written": "B",
        "neighbors.cache_lookups": "count",
        "neighbors.cache_hit_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio",
        "failed_frac": "ratio",
        "evaluation.criterion9.dao_over_slof": "ratio",
        "evaluation.criterion9.base_spread": "ratio",
        "desk.study480_projected_s": "s",
    })
    return units


class Bench:
    def __init__(self, workload, seed: int, base: Path):
        self.workload = workload
        self.seed = seed
        self.base = base
        self.work = base / "setup-0"
        self.env = {**os.environ, **CHILD_ENV}
        self.env.pop("DAODET_THREADS", None)
        self.reference: dict | None = None  # stored output hashes (default seed)
        self.first_digest: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def spawn(self, mode: str, tag: str, *extra: str) -> tuple[float, dict]:
        """Run chain.py in a fresh process; (wall seconds seen here, its result)."""
        result_path = self.base / f"{tag}.json"
        argv = [sys.executable, str(HERE / "chain.py"), mode, "--workload", self.workload.name,
                "--seed", str(self.seed), "--work", str(self.work), "--result", str(result_path),
                *extra]
        with open(self.base / f"{tag}.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
        if not result_path.exists():
            log_tail = (self.base / f"{tag}.log").read_text(errors="replace")[-2000:]
            return wall, {"error": f"exit {proc.returncode} without a result:\n{log_tail}"}
        return wall, json.loads(result_path.read_text())

    def setup(self, times: int) -> list[float]:
        """Set up ``times`` times; the repetitions use the last one."""
        walls = []
        for i in range(times):
            if i:
                shutil.rmtree(self.work)
            self.work = self.base / f"setup-{i}"
            wall, result = self.spawn("setup", f"setup-{i}")
            if "error" in result:
                raise RuntimeError(f"set-up failed:\n{result['error']}")
            walls.append(wall)
        return walls

    def repetition(self, index: int, traced: bool) -> dict:
        rep = self.base / f"rep-{index}"
        _, result = self.spawn("rep", f"rep-{index}", "--rep", str(rep),
                               "--trace", "1" if traced else "0")
        result["traced"] = traced
        self.attempted += self.workload.datasets
        try:
            if "error" in result:
                raise RuntimeError(result["error"])
            failed = self.check(rep, result)
        except Exception as exc:  # a broken output is a failed dataset, not a crash
            failed = {"*": str(exc)}
        n_failed = self.workload.datasets if "*" in failed else len(failed)
        self.failed += n_failed
        self.failures.extend(f"rep {index}: {msg}" for msg in list(failed.values())[:3])
        shutil.rmtree(rep, ignore_errors=True)
        return result

    def check(self, rep: Path, result: dict) -> dict[str, str]:
        """Failing dataset -> reason for one repetition ("*" fails them all)."""
        w = self.workload
        data, cache = data_dir(w, self.work, rep), cache_dir(w, self.work, rep)
        observed = checks.digest(w, data, rep, cache)
        _, records, _ = checks.read_records(rep / "records.csv", blank_runtime=False)
        result["derived"] = derived(w, result, records)
        if len(observed["datasets"]) != w.datasets:
            return {"*": f"{len(observed['datasets'])} datasets, expected {w.datasets}"}
        failed = {name: "no records" for name, e in observed["datasets"].items()
                  if e["records"] is None}
        if self.reference is not None:
            failed.update(checks.compare(self.reference, observed))
        elif self.first_digest is not None:  # reruns must repeat the first byte for byte
            failed.update(checks.compare(self.first_digest, observed))
        else:
            rng = np.random.default_rng(self.seed)
            names = sorted(observed["datasets"])
            for name in rng.choice(names, size=min(ORACLE_DATASETS, len(names)), replace=False):
                problem = checks.oracle_check(w, data / f"{name}.csv", records.get(name, []),
                                              cache, rng)
                if problem is not None:
                    failed[name] = problem
        if self.first_digest is None:
            self.first_digest = observed
        return failed


def derived(workload, result: dict, records: dict[str, list[dict]]) -> dict[str, float]:
    """Ratios and projections reported next to the metrics, never gated."""
    out = {}
    if workload.timing:
        means = {r["detector"]: float(r["runtime_mean_s"]) for rs in records.values() for r in rs}
        base = [means["knn"], means["slof"], means["lof"]]
        out["evaluation.criterion9.dao_over_slof"] = means["dao"] / means["slof"]
        out["evaluation.criterion9.base_spread"] = max(base) / min(base)
    if workload.gen_in_chain:
        steps = result["steps"]
        per_dataset = (steps["gen"] + steps["run"]) / workload.datasets
        out["desk.study480_projected_s"] = STUDY_DATASETS * per_dataset + steps.get("report", 0.0)
    return out


def run_facts(workload, seed: int) -> dict:
    import numpy
    import scipy

    import daodet

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload.name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"], "daodet": daodet.__version__,
        "commit": commit, "n": workload.n, "d": workload.d, "kmax": workload.kmax,
        "datasets": workload.datasets, "threads": 1,
    }


def measure(bench: Bench, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` of them have run and the workload's
    minimum count is met. With ``trace``, they come in untraced-traced pairs."""
    reps, spent = [], 0.0
    while spent < seconds or len(reps) < bench.workload.reps:
        for traced in (False, True) if trace else (False,):
            t0 = time.perf_counter()
            reps.append(bench.repetition(len(reps), traced))
            spent += time.perf_counter() - t0
    return reps


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's output hashes as the reference (default seed)")
    args = parser.parse_args()
    if not (ROOT / "src" / "daodet" / "__init__.py").is_file():
        print(f"error: no daodet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_expected and args.seed != DEFAULT_SEED:
        print(f"error: --write-expected needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    base = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, base)
        if args.seed == DEFAULT_SEED and not args.write_expected:
            bench.reference = json.loads(EXPECTED.read_text())[workload.name]
        try:
            # setup_s is an end-to-end metric only; a traced run sets up once.
            setup_times = bench.setup(1 if args.trace else SETUP_REPS)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        reps = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    plain = [r for r in reps if not r["traced"] and "error" not in r]
    traced = [r for r in reps if r["traced"] and "error" not in r]
    if not plain or (args.trace and not traced):
        print("error: no repetition completed:\n" + "\n".join(bench.failures), file=sys.stderr)
        return 1
    if args.write_expected:
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        stored[workload.name] = bench.first_digest
        EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    derived_values = {}
    for r in plain:
        for k, v in r.get("derived", {}).items():
            derived_values.setdefault(k, []).append(v)
    derived_values = {k: statistics.median(v) for k, v in derived_values.items()}
    timings = {
        "setup_s": summarize(setup_times),
        "wall_s": summarize(r["wall_s"] for r in plain),
        **{f"{step}_s": summarize(r["steps"][step] for r in plain) for step in plain[0]["steps"]},
    }
    if args.trace:
        wall_plain = median_of(plain, lambda r: r["wall_s"])
        units = layer_units()
        values = {name: median_of(traced, lambda r, name=name: r["layers"].get(name, 0.0))
                  for name in units}
        values["trace.overhead_frac"] = median_of(traced, lambda r: r["wall_s"]) / wall_plain - 1
        values["failed_frac"] = bench.failed / bench.attempted
        for name in ("evaluation.criterion9.dao_over_slof", "evaluation.criterion9.base_spread",
                     "desk.study480_projected_s"):
            values[name] = derived_values.get(name, 0.0)
        timings["traced_wall_s"] = summarize(r["wall_s"] for r in traced)
        missing = sorted({m for r in traced for m in r.get("missing_targets", [])})
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": median_of(plain, lambda r: r["wall_s"]),
            "datasets_per_s": median_of(plain, lambda r: workload.datasets / r["steps"]["run"]),
            "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
        }
        missing = []

    summary = {
        "facts": run_facts(workload, args.seed),
        "timings": timings,
        "derived": derived_values,
        "failed_frac": bench.failed / bench.attempted,
        "failures": bench.failures[:10],
        "missing_trace_targets": missing,
    }
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
