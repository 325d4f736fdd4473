"""perfbench traces daodet by patching names from outside the program
(``perfbench/spans.py``). A renamed or moved function would leave its span
silently empty, so every traced name must still resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

from daodet.detectors import SCORERS

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)  # loaded only: Tracer.install would patch the modules
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    assert [key for key, _ in spans.SCORER_TARGETS if key not in SCORERS] == []
