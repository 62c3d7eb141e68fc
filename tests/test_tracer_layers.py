"""Every layer function the benchmark tracer wraps still exists.

The benchmark's per-layer metrics come from ``perfbench/tracer.py``, which
wraps functions by name.  A rename inside ``reeslab`` would otherwise show
up only as a missing metric in a benchmark run; this check reads the
tracer's table and fails at once.
"""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import reeslab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_exists(monkeypatch):
    for info in pkgutil.iter_modules(reeslab.__path__):
        importlib.import_module(f"reeslab.{info.name}")
    t = _load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()
