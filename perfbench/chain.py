"""One benchmark process: prepare a workload's inputs, or run its timed chain.

    python3 perfbench/chain.py setup --workload W --seed N --work DIR --result FILE
    python3 perfbench/chain.py rep --workload W --seed N --work DIR --rep DIR \
        --trace 0|1 --result FILE

``run.py`` starts one such process per set-up and per repetition, so each
repetition pays a fresh interpreter like a user's CLI call and reports its
own peak resident memory. The result is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run_chain(workload, seed: int, work: Path, rep: Path, traced: bool) -> dict:
    from daodet.cli import main as cli

    tracer = None
    result: dict = {"steps": {}}
    if traced:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        result["missing_targets"] = tracer.install()
    rep.mkdir(parents=True)
    t0 = time.perf_counter()
    for name, argv in workloads.chain(workload, seed, work, rep):
        s0 = time.perf_counter()
        code = cli(argv)
        result["steps"][name] = time.perf_counter() - s0
        if code != 0:
            raise RuntimeError(f"daodet {' '.join(argv)} exited with {code}")
    result["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, result["wall_s"])
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "rep"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--rep")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.mode == "setup":
            workloads.setup(workload, args.seed, Path(args.work))
            result = {}
        else:
            result = run_chain(workload, args.seed, Path(args.work), Path(args.rep),
                               bool(args.trace))
    except Exception:  # reported to run.py, which counts the datasets as failed
        result = {"error": traceback.format_exc()}
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
