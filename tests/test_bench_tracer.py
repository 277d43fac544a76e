"""The benchmark's tracer wraps attributes that the package still defines."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_resolves(monkeypatch):
    # a rename in the package would otherwise surface only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("bench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, attr, _, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
