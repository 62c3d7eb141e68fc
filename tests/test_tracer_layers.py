"""Every layer function the benchmark tracer wraps still exists, and a
traced sweep and colon check return what they return untraced.

The benchmark's per-layer metrics come from ``perfbench/tracer.py``, which
wraps functions by name.  A rename inside ``reeslab`` would otherwise show
up only as a missing metric in a benchmark run; this check reads the
tracer's table and fails at once.  The tracer wraps a generator function
as a generator and reads each yielded item as a fiber, so
``toric._reduced_fibers_at`` has to stay a plain function returning one
gated result per call (the run's number of reduced fibers, the indices of
the undecided ones and their level): traced as a generator, its results
would be read as fibers and the run would fail.
"""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import reeslab
from reeslab import binary, ternary, toric

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


def test_traced_runs_return_what_they_return_untraced(monkeypatch):
    def run():
        return (toric.generates_up_to(binary.sigma_set(5, 2).moves, 6, 15),
                ternary.verify_colon_claims(ternary.ternary_gens(5, 2)))

    expected = run()
    t = _load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        got = run()
    finally:
        t.uninstall()
    assert got == expected
    assert t.stats["toric.fibers.calls"] > 0
