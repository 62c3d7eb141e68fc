"""One workload process: set up, compute references, run timed passes.

Started by ``run.py``; not meant to be run by hand.  It prints one JSON
object on its last stdout line.  ``--setup-only`` stops after set-up and
reports only the moment it became ready, so the parent can sample set-up
time several times.

The load is a closed loop: one caller, one thread, instances in a fixed
order, each call issued when the previous one returned.  Passes repeat
while another pass still fits in ``--seconds``.  Outputs are checked after
each pass, outside the timed region.  With ``--trace 1`` passes alternate
between untraced and traced, so the tracing overhead is measured in the
same process.

The calibration loop of ``calib.py`` runs before the first call of a pass
and after every call.  Each call's wall and CPU time is scaled by
``calib.REF_S`` over the mean of the two loop times around it, so a run
that lands in a slow phase of the machine reports the same figures as one
in a fast phase.  The measured times are kept beside the scaled ones.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402


_CRASHED = object()


def _cpu() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


@dataclass
class Pass:
    """Per-instance seconds of one pass, scaled and as measured."""
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    raw_cpus: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    failed: int = 0


def run_pass(instances, references, tracer=None) -> Pass:
    """Run every instance once, each between two calibration loops."""
    res, outcomes = Pass(), []
    loop = calib.sample()
    res.loops.append(loop)
    for inst in instances:
        w0, c0 = time.perf_counter(), _cpu()
        try:
            with tracer.instance(inst.name) if tracer else contextlib.nullcontext():
                outcome = inst.run()
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc(file=sys.stderr)
            outcome = _CRASHED
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        after = calib.sample()
        res.raw_walls.append(wall)
        res.raw_cpus.append(cpu)
        res.walls.append(wall * 2 * calib.REF_S / (loop[0] + after[0]))
        res.cpus.append(cpu * 2 * calib.REF_S / (loop[1] + after[1]))
        res.loops.append(after)
        loop = after
        outcomes.append(outcome)
    for inst, ref, outcome in zip(instances, references, outcomes):
        if outcome is _CRASHED or not inst.check(outcome, ref):
            print(f"check failed: {inst.name}", file=sys.stderr)
            res.failed += 1
    return res


def _per_instance_median(samples: list[list[float]], keep) -> float:
    """Sum over the kept instances of each one's median across passes."""
    return sum(statistics.median(col) for i, col in enumerate(zip(*samples)) if keep(i))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    # set-up: interpreter start (already paid), imports, CLI parser, inputs
    import numpy
    import reeslab
    import workloads
    from reeslab import cli

    if Path(reeslab.__file__).resolve().parent != ROOT / "src" / "reeslab":
        sys.exit(f"reeslab was imported from {reeslab.__file__}, not from {ROOT / 'src'}")

    cli.build_parser()
    instances = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    references = [inst.reference() for inst in instances]
    small = [inst.tier == "small" for inst in instances]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced_passes, layer_runs = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    last = 0.0
    while not plain or (tracer and not traced_passes) or time.monotonic() - start + last <= args.seconds:
        t0 = time.monotonic()
        if tracer is not None and len(plain) > len(traced_passes):
            tracer.keep_spans = not layer_runs
            tracer.reset_stats()
            tracer.install()
            try:
                res = run_pass(instances, references, tracer)
            finally:
                tracer.uninstall()
            traced_passes.append(res)
            layer_runs.append(tracer.layer_metrics())
        else:
            res = run_pass(instances, references)
            plain.append(res)
        last = time.monotonic() - t0
        attempted += len(instances)
        failed += res.failed

    def total(attr: str, keep=lambda i: True, passes=plain) -> float:
        return _per_instance_median([getattr(ps, attr) for ps in passes], keep)

    result = {
        "ready": ready,
        "passes": len(plain),
        "instances": [f"{inst.tier}: {inst.name}" for inst in instances],
        "attempted": attempted,
        "failed": failed,
        "wall_s": total("walls"),
        "small_s": total("walls", lambda i: small[i]),
        "cpu_s": total("cpus"),
        "measured": {
            "wall_s": total("raw_walls"),
            "small_s": total("raw_walls", lambda i: small[i]),
            "cpu_s": total("raw_cpus"),
        },
        "measured_passes": [{"wall_s": ps.raw_walls, "cpu_s": ps.raw_cpus, "loops": ps.loops} for ps in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "threads_env": os.environ.get("REES_LAB_THREADS"),
    }
    if tracer:
        counts = [{k: v for k, v in run.items() if not k.endswith("self_s")} for run in layer_runs]
        layers = {key: statistics.median(run[key] for run in layer_runs) if key.endswith("self_s")
                  else counts[0][key] for key in layer_runs[0]}
        layers["trace.overhead_s"] = total("walls", passes=traced_passes) - result["wall_s"]
        result.update(
            traced_passes=len(traced_passes),
            layers=layers,
            counts_repeat=all(c == counts[0] for c in counts),
            absent=tracer.absent,
        )
        if args.spans_out:
            fields = ["span", "parent", "instance", "layer", "function", "start_ns", "end_ns", "busy_ns"]
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": fields, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
