"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps the functions that make up each layer of ``reeslab`` and
rebinds every module and class attribute inside the package that refers to
them, so calls made through ``from .toric import ...`` imports are seen too.
Nothing inside the package is edited; ``uninstall`` restores the originals.

A span is (span id, parent span id, instance id, layer, function, start ns,
end ns, busy ns).  ``busy`` differs from ``end - start`` only for generators:
their span covers every resumption but is busy only while resumed.  A
layer's self time is the busy time of its spans minus the busy time of their
direct child spans.

Nothing in the program waits on a queue or a lock, so no layer has a
waiting-time metric.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
import time
from dataclasses import dataclass, field

#: layer -> (module, attribute) pairs; a dotted attribute is a method
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "toric.fibers": (("reeslab.toric", "_reduced_fibers_at"),),
    "toric.connect": (("reeslab.toric", "_fiber_components"),),
    "toric.sweep": (
        ("reeslab.toric", "generates_up_to"),
        ("reeslab.toric", "bruteforce_min_gens"),
    ),
    "toric.walk": (
        ("reeslab.toric", "binomial_in_binomial_ideal"),
        ("reeslab.toric", "monomial_in_mixed_ideal"),
    ),
    "core.ideal": (
        ("reeslab.core", "MonomialIdeal.product"),
        ("reeslab.core", "MonomialIdeal.colon"),
        ("reeslab.core", "MonomialIdeal.power"),
        ("reeslab.core", "MonomialIdeal.colength"),
        ("reeslab.core", "_minimalize"),
    ),
    "binary.sylvester": (
        ("reeslab.binary", "sigma_set"),
        ("reeslab.binary", "sylvester_det"),
    ),
    "lengths": (
        ("reeslab.lengths", "hm_profile"),
        ("reeslab.lengths", "st_oracle"),
    ),
    "ternary": (
        ("reeslab.ternary", "verify_colon_claims"),
        ("reeslab.ternary", "ternary_generation_check"),
        ("reeslab.ternary", "certificate_identities"),
        ("reeslab.ternary", "ternary_length_profile"),
    ),
    "reduction": (
        ("reeslab.reduction", "verify_q_reduction"),
        ("reeslab.reduction", "red_search_general"),
        ("reeslab.reduction", "is_monomial_reduction"),
    ),
    "cli": (("reeslab.cli", "main"),),
}

#: counters beyond calls and self time, per layer
COUNTERS: dict[str, tuple[str, ...]] = {
    "toric.fibers": ("fibers", "members"),
    "toric.connect": ("members", "split"),
    "toric.sweep": ("fibers_checked", "moves_found"),
    "toric.walk": ("hits", "explored"),
    "core.ideal": ("min_in", "min_out"),
    "ternary": ("subset_checked",),
    "reduction": ("states_explored",),
}


def _count_call(stats: dict, func: str, args: tuple, result) -> None:
    """Counters read from a finished call's arguments and result."""
    if func == "_fiber_components":
        stats["toric.connect.members"] += len(args[0])
        stats["toric.connect.split"] += len(result) > 1
    elif func == "generates_up_to":
        stats["toric.sweep.fibers_checked"] += result.fibers_checked
    elif func == "bruteforce_min_gens":
        stats["toric.sweep.moves_found"] += len(result)
    elif func == "binomial_in_binomial_ideal":
        stats["toric.walk.hits"] += bool(result)
    elif func == "monomial_in_mixed_ideal":
        stats["toric.walk.hits"] += bool(result)
        stats["toric.walk.explored"] += result.explored
    elif func == "_minimalize":
        stats["core.ideal.min_in"] += len(args[0])
        stats["core.ideal.min_out"] += len(result)
    elif func == "verify_colon_claims":
        stats["ternary.subset_checked"] += sum(c.subset_checked for c in result.claims)
    elif func == "verify_q_reduction":
        stats["reduction.states_explored"] += result.states_explored


def _count_yield(stats: dict, func: str, item) -> None:
    if func == "_reduced_fibers_at":
        stats["toric.fibers.fibers"] += 1
        stats["toric.fibers.members"] += len(item[1])


@dataclass
class _Frame:
    span: int
    parent: int
    busy_ns: int = 0
    child_ns: int = 0


@dataclass
class Tracer:
    """Spans and per-layer totals of one traced run.

    Spans are kept in memory only while ``keep_spans`` is true, so a run can
    keep one pass worth of spans and still count every pass.
    """

    keep_spans: bool = True
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _next_id: int = 1
    _instance: int = 0
    _originals: list = field(default_factory=list)

    def __post_init__(self):
        self.reset_stats()

    def reset_stats(self) -> None:
        self.stats = {}
        for layer in LAYERS:
            self.stats[f"{layer}.calls"] = 0
            self.stats[f"{layer}.self_ns"] = 0
            for name in COUNTERS.get(layer, ()):
                self.stats[f"{layer}.{name}"] = 0

    # -- spans -----------------------------------------------------------------

    def _open(self) -> _Frame:
        parent = self._stack[-1].span if self._stack else self._instance
        frame = _Frame(self._next_id, parent)
        self._next_id += 1
        return frame

    def _busy(self, frame: _Frame, ns: int) -> None:
        frame.busy_ns += ns
        if self._stack:
            self._stack[-1].child_ns += ns

    def _close(self, layer: str, func: str, frame: _Frame, start: int, end: int) -> None:
        self.stats[f"{layer}.calls"] += 1
        self.stats[f"{layer}.self_ns"] += frame.busy_ns - frame.child_ns
        if self.keep_spans:
            self.spans.append((frame.span, frame.parent, self._instance, layer, func, start, end, frame.busy_ns))

    @contextlib.contextmanager
    def instance(self, name: str):
        """The spans opened inside share one instance id: the id of a root
        span named after the instance."""
        self._instance = self._next_id
        self._next_id += 1
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            if self.keep_spans:
                self.spans.append((self._instance, 0, self._instance, "instance", name, start, end, end - start))
            self._instance = 0

    def _wrap_function(self, layer: str, func: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._busy(frame, end - start)
                tracer._close(layer, func, frame, start, end)
            _count_call(tracer.stats, func, args, result)
            return result

        if func == "_minimalize":
            # materialize the argument so its size can be counted
            def traced_minimalize(monos):
                return traced(list(monos))

            return traced_minimalize
        return traced

    def _wrap_generator(self, layer: str, func: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            gen = fn(*args, **kwargs)
            first = last = None
            try:
                while True:
                    tracer._stack.append(frame)
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter_ns()
                        tracer._stack.pop()
                        tracer._busy(frame, t1 - t0)
                        first = t0 if first is None else first
                        last = t1
                    _count_yield(tracer.stats, func, item)
                    yield item
            finally:
                gen.close()
                tracer._close(layer, func, frame, first, last)

        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function present and rebind every reference to
        it inside the ``reeslab`` package.  A missing function is listed in
        ``absent``, and so is a layer none of whose functions is present."""
        self.absent = []
        wrappers: dict[int, object] = {}
        for layer, targets in LAYERS.items():
            found = 0
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, name, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                found += 1
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_function
                wrappers[id(fn)] = wrap(layer, name, fn)
            if not found:
                self.absent.append(layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "reeslab":
                continue
            classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module_name]
            for owner in [module, *classes]:
                for attr, value in list(vars(owner).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        setattr(owner, attr, wrapper)
                        self._originals.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals = []

    def layer_metrics(self) -> dict:
        """The per-layer totals, self time in seconds."""
        out = {}
        for key, value in self.stats.items():
            if key.endswith(".self_ns"):
                out[key.removesuffix("_ns") + "_s"] = value / 1e9
            else:
                out[key] = value
            if key == "core.ideal.min_out":
                mi = self.stats["core.ideal.min_in"]
                out["core.ideal.keep_ratio"] = value / mi if mi else 0.0
        return out

