"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from quantiles import summarize, tail_percentile  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_times_exact():
    # outer [0, 10] contains mid [1, 5] and leaf [6, 8]; mid contains leaf [2, 4].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def body():
        mid()
        leaf()

    tracer.wrap("outer", body)()
    assert self_times(tracer.spans) == {"outer": 10.0 - 4.0 - 2.0, "mid": 4.0 - 2.0,
                                        "leaf": 2.0 + 2.0}
    layers = layer_metrics(tracer.spans, wall_s=12.0)
    assert layers["trace.unattributed_s"] == 2.0
    assert layers["trace.wall_s"] == 12.0


def test_cache_lookups_and_bytes(tmp_path):
    entry = tmp_path / "g.knn"
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    load = tracer.wrap("neighbors.load_graph", lambda path: None)
    save = tracer.wrap("neighbors.save_graph", lambda graph, path: path.write_bytes(b"x" * 10))
    build = tracer.wrap("neighbors.build_neighbor_graph", lambda: save(None, entry))
    hit = tracer.wrap("neighbors.cached_neighbor_graph", lambda: load(path=entry))
    miss = tracer.wrap("neighbors.cached_neighbor_graph", lambda: build())
    miss(), hit(), hit(), hit()
    layers = layer_metrics(tracer.spans, wall_s=100.0)
    assert layers["neighbors.cache_lookups"] == 4
    assert layers["neighbors.cache_hit_ratio"] == 0.75
    assert layers["neighbors.cache_bytes_written"] == 10
    assert layers["neighbors.cache_bytes_read"] == 30


@pytest.mark.parametrize("n, expected", [
    (1, None), (10, None), (11, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    got = tail_percentile(range(n))
    if expected is None:
        assert got is None
    else:
        p, value = got
        assert p == expected
        assert n - (value + 1) >= 10  # samples strictly above the reported one


def test_summarize_reports_median_and_count():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "samples": 3}
    summary = summarize(float(i) for i in range(20))
    assert summary["samples"] == 20 and summary["median"] == 9.5 and summary["p50"] == 9.0


def test_mann_whitney_matches_program_auc_exactly():
    from daodet.evaluation import roc_auc

    rng = np.random.default_rng(3)
    scores = rng.integers(0, 7, size=300).astype(float)  # many ties
    labels = (rng.random(300) < 0.1).astype(np.int64)
    assert checks.mann_whitney_auc(scores, labels) == roc_auc(scores, labels)


def test_oracle_rows_match_brute_force_graph():
    from daodet.neighbors import build_neighbor_graph

    rng = np.random.default_rng(4)
    points = np.round(rng.normal(size=(300, 3)), 1)  # coarse grid: many distance ties
    points = np.unique(points, axis=0)
    graph = build_neighbor_graph(points, 40)
    for i in (0, 17, points.shape[0] - 1):
        idx, dist = checks.oracle_row(points, i, 40)
        assert np.array_equal(graph.indices[i], idx)
        assert np.array_equal(graph.distances[i].view(np.uint64), dist.view(np.uint64))


class FakeBench(run.Bench):
    """Repetitions write fixed outputs instead of running daodet."""

    records = b""

    def spawn(self, mode, tag, *extra):
        rep = Path(extra[1])
        rep.mkdir(parents=True)
        (rep / "records.csv").write_bytes(self.records)
        return 1.0, {"steps": {"run": 1.0}, "wall_s": 1.0, "peak_rss_mb": 1.0}


def _records_csv() -> bytes:
    header = ",".join(("dataset", "detector", "lid_estimator", "best_k", "best_lid_k", "roc_auc",
                       "dispersion_R", "morans_I", "morans_k", "runtime_mean_s",
                       "runtime_std_s", "dim_c1", "dim_c2"))
    rows = [f"{ds},{det},,5,,0.{i}5,0.1,0.2,5,,,8,2"
            for ds in ("a", "b") for i, det in enumerate(("knn", "lof", "slof", "dao"))]
    return ("\r\n".join([header, *rows]) + "\r\n").encode()


def test_one_flipped_byte_in_records_fails_a_dataset(tmp_path):
    workload = replace(WORKLOADS["sweep-warm"], datasets=2, warm_cache=False)
    bench = FakeBench(workload, seed=1, base=tmp_path)
    bench.work = tmp_path / "work"
    (bench.work / "data").mkdir(parents=True)
    for name in ("a", "b"):
        (bench.work / "data" / f"{name}.csv").write_text("x0,label\n0.0,0\n1.0,1\n")
    good = _records_csv()
    reference = tmp_path / "reference"
    reference.mkdir()
    (reference / "records.csv").write_bytes(good)
    bench.reference = checks.digest(workload, bench.work / "data", reference, None)

    bench.records = good
    bench.repetition(0, traced=False)
    assert bench.failed == 0

    flipped = bytearray(good)
    flipped[good.index(b"0.15")] ^= 0x01
    bench.records = bytes(flipped)
    bench.repetition(1, traced=False)
    assert bench.failed / bench.attempted > 0
    assert bench.failed == 1  # only dataset "a" holds the flipped byte


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
