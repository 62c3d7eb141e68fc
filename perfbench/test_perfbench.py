"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Each run is cut to one pass per mode (``--seconds 1``), so the whole file
takes about two minutes on a 2-core machine.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_on_the_same_seed(workload):
    first, second = _bench(workload, 7, 1), _bench(workload, 7, 1)
    assert first["correct"] and second["correct"]
    counts = _counts(first)
    assert any(v for k, v in counts.items() if k.endswith(".calls"))
    assert counts == _counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_has_no_failed_operation(workload):
    result = _bench(workload, 20261017, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "small_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_missing_layer_function_is_reported_absent(monkeypatch):
    from reeslab import toric

    monkeypatch.delattr(toric, "_fiber_components")
    t = tracer.Tracer()
    t.install()
    try:
        assert "reeslab.toric._fiber_components" in t.absent
        assert "toric.connect" in t.absent and "toric.fibers" not in t.absent
    finally:
        t.uninstall()


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    from reeslab import core, reduction, ternary, toric

    originals = (toric.binomial_in_binomial_ideal, reduction.monomial_in_mixed_ideal,
                 core.MonomialIdeal.product)
    t = tracer.Tracer()
    t.install()
    try:
        assert ternary.binomial_in_binomial_ideal is toric.binomial_in_binomial_ideal
        assert reduction.monomial_in_mixed_ideal is toric.monomial_in_mixed_ideal
        assert toric.binomial_in_binomial_ideal is not originals[0]
        assert core.MonomialIdeal.__mul__ is core.MonomialIdeal.product
        with t.instance("probe"):
            ideal = core.MonomialIdeal.from_exponents([(2, 0), (0, 2), (1, 1)])
            ideal.product(ideal)
    finally:
        t.uninstall()
    assert (toric.binomial_in_binomial_ideal, reduction.monomial_in_mixed_ideal,
            core.MonomialIdeal.product) == originals
    stats = t.layer_metrics()
    assert stats["core.ideal.calls"] == 3  # two _minimalize calls and one product
    assert stats["core.ideal.min_in"] == 3 + 9
    assert stats["core.ideal.min_out"] == 3 + 5
    root = [s for s in t.spans if s[3] == "instance"]
    assert len(root) == 1 and all(s[2] == root[0][0] for s in t.spans)


def test_each_call_is_scaled_by_the_calibration_loops_around_it(monkeypatch):
    import calib
    import child
    from workloads import Instance

    loops = iter([(0.010, 0.012), (0.020, 0.016), (0.005, 0.004)])
    monkeypatch.setattr(calib, "sample", lambda: next(loops))
    inst = Instance("probe", "small", lambda: sum(range(10000)), lambda: None, lambda out, ref: out > 0)
    res = child.run_pass([inst, inst], [None, None])
    assert res.failed == 0 and len(res.loops) == 3
    assert res.walls == pytest.approx([res.raw_walls[0] * calib.REF_S / 0.015,
                                       res.raw_walls[1] * calib.REF_S / 0.0125])
    assert res.cpus == pytest.approx([res.raw_cpus[0] * calib.REF_S / 0.014,
                                      res.raw_cpus[1] * calib.REF_S / 0.010])
