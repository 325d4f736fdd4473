"""Spans around daodet's public functions, recorded from outside the program.

Each target is patched where its caller looks it up (a module attribute or
the ``detectors.SCORERS`` dict), so the program itself is unchanged. Spans
stay in memory; the chain process writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

# (module, attribute, span name). One function looked up in several modules
# gets one target per lookup site, all under the same span name.
TARGETS = (
    ("daodet.cli", "cmd_gen", "cli.cmd_gen"),
    ("daodet.cli", "cmd_run", "cli.cmd_run"),
    ("daodet.cli", "cmd_report", "cli.cmd_report"),
    ("daodet.cli", "load_csv", "dataset.load_csv"),
    ("daodet.cli", "write_csv", "dataset.write_csv"),
    ("daodet.cli", "evaluate_dataset", "evaluation.evaluate_dataset"),
    ("daodet.cli", "time_detector", "evaluation.time_detector"),
    ("daodet.cli", "cached_neighbor_graph", "neighbors.cached_neighbor_graph"),
    ("daodet.cli", "write_records_csv", "evaluation.write_records_csv"),
    ("daodet.cli", "read_records_csv", "evaluation.read_records_csv"),
    ("daodet.synthgen", "generate", "synthgen.generate"),
    ("daodet.plots", "write_svg", "plots.write_svg"),
    ("daodet.evaluation", "time_detectors", "evaluation.time_detectors"),
    ("daodet.evaluation", "build_neighbor_graph", "neighbors.build_neighbor_graph"),
    ("daodet.evaluation", "select_knn_all", "neighbors.select_knn_all"),
    ("daodet.evaluation", "estimate_profile", "lid.estimate_profile"),
    ("daodet.evaluation", "score_dao", "detectors.score_dao"),
    ("daodet.evaluation", "roc_auc", "evaluation.roc_auc"),
    ("daodet.evaluation", "dispersion_R", "evaluation.dispersion_R"),
    ("daodet.evaluation", "morans_I_maxmag", "evaluation.morans_I_maxmag"),
    ("daodet.neighbors", "build_neighbor_graph", "neighbors.build_neighbor_graph"),
    ("daodet.neighbors", "euclidean", "neighbors.euclidean"),
    ("daodet.neighbors", "select_knn_rows", "neighbors.select_knn_rows"),
    ("daodet.neighbors", "load_graph", "neighbors.load_graph"),
    ("daodet.neighbors", "save_graph", "neighbors.save_graph"),
)
# Baseline scorers are called through this dict, not by module attribute.
SCORER_TARGETS = (("knn", "detectors.score_knn"), ("lof", "detectors.score_lof"),
                  ("slof", "detectors.score_slof"))

# Position of the cache file argument; the span records that file's size.
CACHE_FILE_ARG = {"neighbors.load_graph": 0, "neighbors.save_graph": 1}

SPAN_NAMES = tuple(dict.fromkeys([t[2] for t in TARGETS] + [t[1] for t in SCORER_TARGETS]))


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    nbytes: int = 0  # cache file size, for the names in CACHE_FILE_ARG

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records one span per call of every wrapped function."""

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                        self.clock())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if name in CACHE_FILE_ARG:
                    position = CACHE_FILE_ARG[name]
                    span.nbytes = _file_size(
                        args[position] if len(args) > position else kwargs.get("path"))

        return traced

    def install(self) -> list[str]:
        """Patch every target; returns the targets the program lacks."""
        missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        scorers = importlib.import_module("daodet.detectors").SCORERS
        for key, name in SCORER_TARGETS:
            if key in scorers:
                scorers[key] = self.wrap(name, scorers[key])
            else:
                missing.append(f"daodet.detectors.SCORERS[{key!r}]")
        return missing


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):  # no such file, or no path argument
        return 0


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the time covered by children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration - child_time[span.id]
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced chain: self seconds and calls per span
    name, cache traffic, and the wall time no span covers."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = selfs.get(name, 0.0)
        out[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    out["neighbors.cache_bytes_read"] = sum(
        s.nbytes for s in spans if s.name == "neighbors.load_graph")
    out["neighbors.cache_bytes_written"] = sum(
        s.nbytes for s in spans if s.name == "neighbors.save_graph")
    hits, misses = cache_lookups(spans)
    out["neighbors.cache_lookups"] = hits + misses
    out["neighbors.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(selfs.values())
    return out


def cache_lookups(spans: list[Span]) -> tuple[int, int]:
    """(hits, misses): a cache lookup hit when it loaded a graph, missed when
    it built one."""
    children: dict[int, set[str]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, set()).add(span.name)
    hits = misses = 0
    for span in spans:
        if span.name == "neighbors.cached_neighbor_graph":
            kids = children.get(span.id, set())
            if "neighbors.load_graph" in kids:
                hits += 1
            elif "neighbors.build_neighbor_graph" in kids:
                misses += 1
    return hits, misses
