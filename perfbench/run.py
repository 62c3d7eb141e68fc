"""Benchmark of reeslab's oracles: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload binary-verify --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each workload runs in its own child
process with ``REES_LAB_THREADS`` unset.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
End-to-end times are scaled to a reference speed of the machine with the
calibration of ``calib.py``; the times as measured are kept beside them.
A table goes to stdout first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
context and the full result are also written under ``perfbench/out/``.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("binary-verify", "binary-mingens", "lengths", "ternary")
#: set-up is sampled this many times besides the measured process itself
SETUP_PROBES = 4
#: a run that has not finished by then is killed and reported as an error
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Start ``child.py`` with REES_LAB_THREADS unset, right after a
    reference spawn.  Return the reference spawn's time, the moment the
    child was spawned and the JSON object on its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "REES_LAB_THREADS"}
    try:
        reference = calib.spawn_sample(ROOT, env, timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"reference spawn failed: {exc}")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {args} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    return reference, spawned, json.loads(lines[-1])


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []  # (measured set-up, reference spawn) pairs

    def probe_setup(times: int) -> None:
        for _ in range(0 if trace else times):
            reference, spawned, ready = _child([*common, "--setup-only"], deadline)
            setups.append((ready["ready"] - spawned, reference))

    # half of the probes before the measured process and half after it, so
    # that set-up is sampled in more than one phase of the machine's speed
    probe_setup(SETUP_PROBES // 2)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    extra = ["--trace", "1", "--spans-out", str(spans)] if trace else []
    reference, spawned, res = _child([*common, *extra], deadline)
    setups.append((res["ready"] - spawned, reference))
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    res["setup_s"] = statistics.median(t - ref + calib.SPAWN_REF_S for t, ref in setups)
    res["measured"]["setup_s"] = statistics.median(t for t, _ in setups)
    res["setup_samples"] = setups
    res["failed_frac"] = res["failed"] / res["attempted"]
    res["context"] = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": res.pop("numpy"),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rees_lab_threads_unset": res.pop("threads_env") is None,
        "caller_rees_lab_threads": os.environ.get("REES_LAB_THREADS"),
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(res, indent=1) + "\n")
    return res


END_TO_END = (
    ("wall_s", "s"), ("small_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def _metrics(res: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
    return {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


def _table(workload: str, res: dict, trace: int) -> list[str]:
    ctx = res["context"]
    lines = [f"# {workload}: seed {ctx['seed']}, {res['passes']} untraced passes"
             + (f", {res['traced_passes']} traced" if trace else "")
             + f", {len(res['instances'])} instances per pass, commit {ctx['commit']}, "
             f"nproc {ctx['nproc']}, python {ctx['python']}, numpy {ctx['numpy']}, "
             f"REES_LAB_THREADS unset: {ctx['rees_lab_threads_unset']}"]
    for name, m in _metrics(res, trace).items():
        measured = res["measured"].get(name) if not trace else None
        lines.append(f"{workload:15s} {name:32s} {m['value']:14.6g} {m['unit']}"
                     + (f"  (measured {measured:.6g} s)" if measured is not None else ""))
    if not trace:
        lines.append(f"{workload:15s} {'failed_frac':32s} {res['failed_frac']:14.6g} 1"
                     f"  ({res['failed']} of {res['attempted']} operations)")
    else:
        if res["absent"]:
            lines.append(f"{workload:15s} absent, counted as 0: {', '.join(res['absent'])}")
        if not res["counts_repeat"]:
            lines.append(f"{workload:15s} WARNING: per-layer counts differ between traced passes")
        lines.append(f"{workload:15s} no layer waits on a queue or lock; no waiting metric is reported")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, deadline) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for w, res in results.items():
        print("\n".join(_table(w, res, args.trace)))
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in _metrics(res, args.trace).items()})
    failed = sum(r["failed"] for r in results.values())
    ok = failed == 0 and all(r.get("counts_repeat", True) for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
