"""A fixed pure-Python loop that measures how fast the machine is right now.

The cores of a shared virtual machine slow down and speed up by up to 1.8x
within a minute, and a whole run can land in a slow or a fast phase.  The
benchmark therefore runs this loop between the calls it times and reports
each time scaled to a machine on which the loop takes ``REF_S`` seconds:

    scaled = measured * REF_S / loop_time

The loop uses no code of ``reeslab``, so a change to the program cannot
change the scale.  It does the kinds of work the oracles do (tuples of small
ints, dict and set lookups, comparisons, short function calls and a sort),
so it slows down with them.  The garbage collector is off while it runs, so
the size of the program's heap does not leak into it.

Set-up time follows the loop poorly: three quarters of it is the start of
an interpreter that imports numpy, which depends on process creation and
the loading of shared libraries more than on the speed of a core.  It is
corrected instead by the time of a reference spawn that does just that:

    corrected_setup = measured_setup - reference_spawn_time + SPAWN_REF_S

so what set-up costs beyond that common part is kept as measured.  The
reference spawn imports nothing of ``reeslab`` either.
"""
from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

#: the loop's time on the reference machine; fixed once, never re-tuned,
#: because every scaled figure is proportional to it
REF_S = 0.005
#: the reference spawn's time on the reference machine; fixed the same way
SPAWN_REF_S = 0.25
#: the reference spawn: an interpreter that imports numpy and exits
SPAWN = [sys.executable, "-c", "import numpy"]


def _step(t: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = t
    return (b, c, (a * 7 + b * 3 + c) % 101)


def _loop() -> int:
    seen: dict[tuple[int, int, int], int] = {}
    front: set[tuple[int, int, int]] = set()
    t = (1, 2, 3)
    for _ in range(7500):
        t = _step(t)
        seen[t] = seen.get(t, 0) + 1
        if t[0] <= t[1] and t[1] <= t[2]:
            front.add(t)
        elif t in front:
            front.discard(t)
    return len(seen) + len(sorted(front)) + sum(seen.values())


def sample(loops: int = 3) -> tuple[float, float]:
    """Run the loop ``loops`` times; return the median wall and CPU seconds
    of one loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        walls, cpus = [], []
        for _ in range(loops):
            w0, c0 = time.perf_counter(), time.process_time()
            _loop()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        return statistics.median(walls), statistics.median(cpus)
    finally:
        if enabled:
            gc.enable()


def spawn_sample(cwd, env, timeout: float) -> float:
    """Run the reference spawn once; return its wall seconds."""
    t0 = time.monotonic()
    subprocess.run(SPAWN, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=timeout)
    return time.monotonic() - t0
