"""CLI behaviour: golden output, exit codes, determinism, round-trip."""

import csv
import json
import time

import pytest

from reeslab import binary, toric
from reeslab.binary import IntegralityError, SylvesterError
from reeslab.cli import Report, main
from reeslab.core import parse_binomial
from reeslab.toric import KernelMismatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_14_3 = [
    "y^3*v - x^3*u",
    "y^11*t - x^11*v",
    "y^8*t*u - x^8*v^2",
    "y^5*t*u^2 - x^5*v^3",
    "y^2*t*u^3 - x^2*v^4",
    "x*t*u^4 - y*v^5",
    "y*t^2*u^7 - x*v^9",
    "t^3*u^11 - v^14",
]


def test_binary_gens_golden(capsys):
    code, out, _ = run_cli(capsys, "binary-gens", "14", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "rees-lab/1"
    # parse_binomial normalizes, so the comparison is up to orientation
    got = {parse_binomial(g["binomial"], 2, 3) for g in data["results"]["generators"]}
    expected = {parse_binomial(t, 2, 3) for t in GOLDEN_14_3}
    assert got == expected
    assert data["results"]["count"] == 8


def test_binary_gens_2_1(capsys):
    code, out, _ = run_cli(capsys, "binary-gens", "2", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 3


def test_binary_gens_reparametrizes(capsys):
    code, out, _ = run_cli(capsys, "binary-gens", "4", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["reparametrized"] == {"d": 2, "b": 1, "delta": [2, 2]}
    assert data["results"]["count"] == 3


def test_binary_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "binary-verify", "2", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["results"]["generates"] and data["results"]["minimal"]


def test_binary_verify_drop_fails_at_bidegree(capsys):
    code, out, _ = run_cli(capsys, "binary-verify", "7", "3", "--drop", "5", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert "first_failure" in data["results"]
    # the removal probes run only on the full set, so minimality is open
    assert data["results"]["minimal"] is None
    assert data["results"]["removal_probes"] == []


def test_sweep_bounds_are_not_options(capsys):
    for flag in (["--t-bound", "-1"], ["--t-bound", "5"], ["--g-bound", "0"], ["--skip-removal"]):
        with pytest.raises(SystemExit) as exc:
            main(["binary-verify", "7", "3", *flag])
        assert exc.value.code == 2, flag
    assert capsys.readouterr().out == ""


def test_lengths_command(capsys):
    code, out, _ = run_cli(capsys, "lengths", "7", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["hm_sum"] == 21
    assert data["results"]["e1"] == 21
    assert data["results"]["ell0"] == 2
    assert data["results"]["ell0_prime"] == 5
    assert data["results"]["rows"][0] == {"ell": 1, "s": 4, "t": 3, "lambda": 12}


def test_red_command(capsys):
    code, out, _ = run_cli(capsys, "red", "--a", "14,14", "--b", "3,11", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["red"] == 13
    assert data["results"]["search_red"] == 13

    code, out, _ = run_cli(capsys, "red", "--uniform", "3", "5", "2", "--format", "json")
    assert json.loads(out)["results"]["red"] == 2

    code, out, _ = run_cli(capsys, "red", "--a", "4,4", "--b", "1,1", "--format", "json")
    data = json.loads(out)
    assert data["results"]["undecided"] is True
    assert data["results"]["sum_b_over_a_below_1"] is True


def test_ternary_command(capsys):
    code, out, _ = run_cli(capsys, "ternary", "7", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["regime"] == "E'"

    code, out, _ = run_cli(capsys, "ternary", "5", "2", "--verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["results"]["enumeration_matches"] is True


def test_ternary_gate_exit_2(capsys):
    code, _, err = run_cli(capsys, "ternary", "4", "2")
    assert code == 2
    assert "a > 2b" in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "binary-gens", "14", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "binary-gens", "14", "3", "--format", "json")
    assert out1 == out2
    _, t1, _ = run_cli(capsys, "lengths", "9", "2")
    _, t2, _ = run_cli(capsys, "lengths", "9", "2")
    assert t1 == t2


def test_timing_goes_to_stderr_only(capsys):
    _, out, err = run_cli(capsys, "binary-gens", "2", "1")
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in out


def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "lengths", "7", "3", "--format", "json")
    report = Report.from_json(out)
    assert report == Report.from_json(report.to_json())
    assert report.to_json() + "\n" == out


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--binary-max-d", "5", "--out", str(out_path), "--format", "csv")
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["d"] for r in rows] == ["2", "3", "3", "4", "4", "5", "5", "5", "5"]
    assert all(r["verdict"] == "pass" for r in rows)
    assert list(rows[0]) == ["d", "b", "count", "hmSum", "e1", "ell0", "ell0prime", "verdict"]
    # C(5,2) = 10 for the two d=5 profiles
    assert {r["hmSum"] for r in rows if r["d"] == "5"} == {"10"}


def test_csv_only_for_sweep_with_out(capsys):
    for argv in (["lengths", "7", "3"], ["sweep", "--binary-max-d", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2, argv
    assert capsys.readouterr().out == ""


def test_sweep_that_checks_nothing_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--binary-max-d", "1", "--format", "json")
    assert code == 2
    assert out == ""
    assert "checks nothing" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["red"])
    assert exc.value.code == 2


def test_invalid_parameters_exit_2(capsys):
    assert main(["binary-gens", "3", "5"]) == 2  # b > d
    assert main(["binary-gens", "3", "0"]) == 2
    assert main(["binary-verify", "4", "2"]) == 2  # gcd > 1
    assert main(["lengths", "4", "2"]) == 2
    capsys.readouterr()


def test_lengths_error_names_the_input(capsys):
    code, out, err = run_cli(capsys, "lengths", "7", "30")
    assert code == 2 and out == ""
    assert "(7, 30)" in err


@pytest.mark.parametrize("argv", [
    ["red", "--a", "2000000,2000000", "--b", "1,1"],
    ["red", "--uniform", "3", "2000000", "1"],
    ["binary-gens", "2000000", "3"],
    ["binary-gens", "2000000", "4"],
    ["lengths", "2000001", "2"],
    ["ternary", "2000000", "1"],
])
def test_exponents_above_the_cap_are_refused_at_once(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "exceeds the supported cap" in err
    assert time.monotonic() - start < 1.0


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("module, name, exc", [
    (binary, "sigma_set", IntegralityError("injected")),
    (binary, "sigma_set", SylvesterError("injected")),
    (toric, "generates_up_to", KernelMismatch("injected")),
])
def test_internal_error_exit_3(capsys, monkeypatch, module, name, exc):
    monkeypatch.setattr(module, name, _raise(exc))
    code, out, err = run_cli(capsys, "binary-verify", "7", "3", "--format", "json")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert f"{type(exc).__name__}: injected" in err
