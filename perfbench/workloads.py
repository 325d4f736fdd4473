"""The benchmark's workloads: how each prepares its inputs and which daodet
command chain it times.

Every chain runs in one process with ``--threads 1``. The program only
receives CSV files made from the workload seed; no workload feeds it
anything else.

Why these four:

* ``desk-cold`` is the paper's desk study as users run it (gen -> run ->
  report, 20 datasets, n=1600, d=32) against an empty graph cache, so every
  lookup misses and the cache write path runs. The graph build is most of
  its time and it is distance-bound.
* ``sweep-warm`` runs the CLI's default full k grid (5..100) against a cache
  prebuilt in set-up, so every lookup hits. The detector sweep and the AUC
  evaluation are nearly all of its time; the graph layer is only cache reads.
  Its repetition is the shortest, so a run takes the median of two.
* ``lowdim`` uses n=6400 at ambient d=2, where kNN selection outweighs the
  distance arithmetic; a distance-kernel change that wins on ``desk-cold``
  must not lose here. ``daodet gen`` cannot make d=2 data, so set-up calls
  ``synthgen.generate`` and ``write_csv`` directly.
* ``timing`` is ``run --timing`` on the criterion-9 dataset shape (n=1600,
  d=32, dim_c2=16). Only this workload reaches ``evaluation.time_detectors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Output hashes in expected.json are stored for this seed. It is also the
# default seed of scripts/desk_benchmark.py, so the desk-cold records can be
# compared with that script's output byte for byte.
DEFAULT_SEED = 42

# kmax of every graph: the largest LID grid k (780) that fits n-1.
KMAX = 780

GEN_DIMS = "2,8,16,32"  # dim_c2 values given to `daodet gen`
LOWDIM_DIMS_C2 = (1, 2, 1, 2)
LOWDIM_CLUSTER_SIZE = 3200
TIMING_DIM_C2 = 16

REPORT_ANALYSES = ["fig1", "fig2", "tables", "ranks"]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    kmax: int
    datasets: int
    run_k: str
    reps: int = 1             # timed repetitions per run, at least
    timing: bool = False      # run adds --timing (runtime_* columns vary)
    report: bool = False      # chain ends with `report`
    gen_in_chain: bool = False
    cold_cache: bool = False  # run uses an empty cache dir per repetition
    warm_cache: bool = False  # set-up prebuilds the cache that run reads


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-cold",
            n=1600, d=32, kmax=KMAX, datasets=20, run_k="5..100:5",
            report=True, gen_in_chain=True, cold_cache=True,
        ),
        Workload(
            "sweep-warm",
            n=1600, d=32, kmax=KMAX, datasets=4, run_k="5..100", reps=2, warm_cache=True,
        ),
        Workload(
            "lowdim",
            n=2 * LOWDIM_CLUSTER_SIZE, d=2, kmax=KMAX, datasets=len(LOWDIM_DIMS_C2),
            run_k="5..100:5", report=True,
        ),
        Workload(
            "timing",
            n=1600, d=32, kmax=KMAX, datasets=1, run_k="5..100:5", timing=True,
        ),
    )
}


def setup(workload: Workload, seed: int, work: Path) -> None:
    """Prepare the inputs the timed chain reads, under ``work``."""
    from daodet import synthgen
    from daodet.cli import main as cli
    from daodet.dataset import write_csv

    data = work / "data"
    data.mkdir(parents=True)
    if workload.name == "sweep-warm":
        _cli(cli, ["gen", "--reps", "1", "--dims", GEN_DIMS, "--seed", str(seed),
                   "--out", str(data)])
        for csv_path in sorted(data.glob("*.csv")):
            _cli(cli, ["knn-cache", "--data", str(csv_path), "--kmax", str(workload.kmax),
                       "--cache", str(work / "cache")])
    elif workload.name == "lowdim":
        for i, dim_c2 in enumerate(LOWDIM_DIMS_C2):
            spec = synthgen.SynthSpec(
                ambient_dim=2, cluster_size=LOWDIM_CLUSTER_SIZE, dim_c1=2, dim_c2=dim_c2,
                seed=seed + i,
            )
            ds, report = synthgen.generate(spec)
            write_csv(ds, data / f"{ds.name}.csv", synthgen.sidecar_metadata(spec, report))
    elif workload.name == "timing":
        spec = synthgen.SynthSpec(dim_c2=TIMING_DIM_C2, seed=seed)
        ds, report = synthgen.generate(spec)
        write_csv(ds, data / f"{ds.name}.csv", synthgen.sidecar_metadata(spec, report))
    # desk-cold makes its datasets inside the timed chain.


def chain(workload: Workload, seed: int, work: Path, rep: Path) -> list[tuple[str, list[str]]]:
    """The timed command chain as (step name, daodet CLI argv) pairs."""
    data = data_dir(workload, work, rep)
    steps = []
    if workload.gen_in_chain:
        steps.append(("gen", ["gen", "--reps", "5", "--dims", GEN_DIMS, "--seed", str(seed),
                              "--out", str(data)]))
    run = ["run", "--data", str(data), "--k", workload.run_k, "--estimator", "mle",
           "--threads", "1", "--out", str(rep / "records.csv")]
    cache = cache_dir(workload, work, rep)
    if cache is not None:
        run += ["--cache", str(cache)]
    if workload.timing:
        run.append("--timing")
    steps.append(("run", run))
    if workload.report:
        steps.append(("report", ["report", "--records", str(rep / "records.csv"),
                                 "--analysis", *REPORT_ANALYSES, "--out", str(rep / "report")]))
    return steps


def data_dir(workload: Workload, work: Path, rep: Path) -> Path:
    return rep / "data" if workload.gen_in_chain else work / "data"


def cache_dir(workload: Workload, work: Path, rep: Path) -> Path | None:
    if workload.cold_cache:
        return rep / "cache"
    if workload.warm_cache:
        return work / "cache"
    return None


def _cli(cli, argv: list[str]) -> None:
    code = cli(argv)
    if code != 0:
        raise RuntimeError(f"daodet {' '.join(argv)} exited with {code}")
