"""CLI behaviour: golden output, exit codes, determinism, round-trip."""

import argparse
import contextlib
import csv
import io
import json
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiber_reference import reference_fiber
from monomial_text import parse_binomial, scale
from reeslab import binary, cli, ternary, toric
from reeslab.binary import IntegralityError, SylvesterError
from reeslab.cli import Report, main
from reeslab.core import EXPONENT_CAP, Binomial, Monomial
from reeslab.toric import KernelMismatch
from test_ternary import weakened_claims


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
    assert data["results"]["kernel_ok"] and data["verdict"] == "pass"


def test_binary_gens_reports_an_off_kernel_transport(capsys, monkeypatch):
    # the transported generators are checked by one MoveSet; generators
    # moved off the kernel read as kernel_ok false and verdict fail
    transport = binary.transport
    x = Monomial((1, 0), (0, 0, 0))

    def skewed(binomial, delta):
        moved = transport(binomial, delta)
        return Binomial(moved.lead * x, moved.trail)

    monkeypatch.setattr(binary, "transport", skewed)
    code, out, _ = run_cli(capsys, "binary-gens", "4", "2", "--format", "json")
    data = json.loads(out)
    assert (code, data["results"]["kernel_ok"], data["verdict"]) == (1, False, "fail")
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


def test_a_refuted_colon_claim_prints_its_violations(capsys, monkeypatch):
    # without its first claimed generator the claim on H1 fails: its entry,
    # and only its, lists the violations, in the order of the report
    monkeypatch.setattr(ternary, "colon_claims", weakened_claims([{0}, set(), set(), set()]))
    expected = ternary.verify_colon_claims(ternary.ternary_gens(5, 2)).claims[0].subset_violations
    assert len(expected) == 111
    code, out, _ = run_cli(capsys, "ternary", "5", "2", "--verify", "--format", "json")
    assert code == 1
    claims = json.loads(out)["results"]["colon_claims"]
    assert claims[0]["subset_violations"] == list(expected) and not claims[0]["subset"]
    assert all("subset_violations" not in c and c["subset"] for c in claims[1:])
    code, out, _ = run_cli(capsys, "ternary", "5", "2", "--verify")
    assert code == 1 and out.endswith("verdict: fail\n")
    lines = out.splitlines()
    start = lines.index("    subset_violations:")
    assert lines[start + 1:start + 1 + len(expected)] == [f"      - {v}" for v in expected]
    assert out.count("subset_violations:") == 1


def test_a_disconnected_ternary_fiber_prints_the_first_failure(capsys, monkeypatch):
    # a sweep without the cube relation fails at its fiber: the report adds
    # the sweep's bounds and that fiber, in binary-verify's shape
    sweep = ternary.generates_up_to
    monkeypatch.setattr(ternary, "generates_up_to", lambda moves, t, g: sweep(moves.without(9), t, g))
    cube = ternary.ternary_gens(5, 2)["E"]
    code, out, _ = run_cli(capsys, "ternary", "5", "2", "--verify", "--format", "json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["generates"] is False and (results["t_bound"], results["ground_bound"]) == (4, 15)
    failure = results["first_failure"]
    assert failure["image"] == toric.ternary_spec(5, 2).image_of(cube.lead).text(rnames=("T",))
    side = {m: i for i, comp in enumerate(failure["components"]) for m in comp}
    assert side[cube.lead.text()] != side[cube.trail.text()]
    code, out, _ = run_cli(capsys, "ternary", "5", "2", "--verify")
    assert code == 1
    assert {"t_bound: 4", "ground_bound: 15", "first_failure:", f"  image: {failure['image']}"} <= set(out.splitlines())


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
    # the JSON report holds every field of the report it was written from
    _, out, _ = run_cli(capsys, "lengths", "7", "3", "--format", "json")
    report = Report(**json.loads(out))
    assert report.to_json() + "\n" == out


def test_report_json_holds_the_report_fields():
    report = Report("lengths", {"d": 7, "b": 3}, {"rows": []}, "pass")
    data = json.loads(report.to_json())
    assert list(data) == ["command", "params", "results", "schema", "verdict"]
    assert data["schema"] == cli.SCHEMA
    assert Report(**data) == report


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_refuses_an_out_path_it_cannot_write_before_sweeping(tmp_path, capsys, monkeypatch, fmt):
    # a missing directory, or a directory where the file should be: exit 2
    # with the path named, and no sweep run
    def unreachable(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "_binary_instance", unreachable)
    for path in (tmp_path / "missing" / "sweep.out", tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--binary-max-d", "5", "--out", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write the --out file: ") and str(path) in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv", [
    ["red", "--a", "1,x", "--b", "1,1"],
    ["red", "--a", "3,3", "--b", "1;1"],
    ["red", "--a", "", "--b", "1,1"],
])
def test_a_malformed_red_list_names_the_expected_format(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "expected comma-separated integers" in captured.err
    assert "<lambda>" not in captured.err


@pytest.mark.parametrize("argv", [
    ["red", "--uniform", "3", "7", "2", "--a", "1,2", "--b", "1,1"],
    ["red", "--uniform", "3", "7", "2", "--a", "1,2"],
    ["red", "--uniform", "3", "7", "2", "--b", "1,1"],
    ["red", "--a", "3,5"],
])
def test_red_takes_one_form_of_input(capsys, argv):
    # --uniform with --a or --b is refused, not run with the lists dropped
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--a and --b, or --uniform N A B, not both" in captured.err


def test_ternary_builds_its_generators_once_per_check(capsys, monkeypatch):
    # ternary --verify: once, for the report, which hands the set to the
    # colon claims (certificates included) and the generation sweep; a
    # sweep row: its generation sweep
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return build(a, b)

    build = ternary.ternary_gens
    monkeypatch.setattr(ternary, "ternary_gens", counting)
    assert main(["ternary", "8", "3", "--verify"]) == 0
    assert calls == [(8, 3)]
    calls.clear()
    assert main(["sweep", "--binary-max-d", "1", "--ternary-max-a", "3"]) == 0
    assert calls == [(3, 1)]
    capsys.readouterr()


def _count_kernel_checks(monkeypatch) -> list:
    calls = []
    check = toric._check_kernel

    def spy(spec, leads, trails):
        calls.append(len(leads))
        return check(spec, leads, trails)

    monkeypatch.setattr(toric, "_check_kernel", spy)
    return calls


@pytest.mark.parametrize("argv, checks", [
    (["ternary", "8", "3"], 1),  # the generator set, when it is built
    (["binary-gens", "11", "5"], 1),  # Sigma, when it is built
    (["binary-verify", "11", "5"], 9),  # Sigma, then the probed move of each removal probe
])
def test_kernel_checks_per_command(capsys, monkeypatch, argv, checks):
    calls = _count_kernel_checks(monkeypatch)
    assert main(argv) == 0
    assert len(calls) == checks
    capsys.readouterr()


def test_ternary_verify_checks_the_kernel_at_most_36_times(capsys, monkeypatch):
    calls = _count_kernel_checks(monkeypatch)
    assert main(["ternary", "8", "3", "--verify"]) == 0
    assert 0 < len(calls) <= 36
    capsys.readouterr()


def test_ternary_verify_checks_each_move_set_once(capsys, monkeypatch):
    # the ten generators once; the colon claims' four batches of rows; the
    # probed move of each of the ten removal probes; the enumerated
    # binomials as one set, then each as the move of its membership walk
    calls = _count_kernel_checks(monkeypatch)
    assert main(["ternary", "8", "3", "--verify"]) == 0
    assert len(calls) == 19
    assert calls[0] == 10 and calls[5:15] == [1] * 10 and calls[15:] == [7, 1, 1, 1]
    capsys.readouterr()


def test_an_off_kernel_generator_fails_even_the_plain_ternary_report(capsys, monkeypatch):
    # the cube relation times x is off the kernel; the set is checked when
    # it is built, so the report without --verify is an internal error
    sylvester_det = ternary.sylvester_det
    cube_pivot = ternary.implicit_pivots(5, 2)[0]

    def skewed(f, g, pivot):
        det = sylvester_det(f, g, pivot)
        if pivot != cube_pivot:
            return det
        return Binomial(det.lead * Monomial((1, 0, 0), (0, 0, 0, 0)), det.trail)

    monkeypatch.setattr(ternary, "sylvester_det", skewed)
    code, out, err = run_cli(capsys, "ternary", "5", "2")
    assert code == 3
    assert out == ""
    assert "KernelMismatch" in err


def test_cube_relations_that_disagree_are_an_internal_error(capsys, monkeypatch):
    # (g2, H2) gives the cube relation times x: in the kernel, so only the
    # cross-check of the three pivot pairs refuses it, as the set is built
    sylvester_det = ternary.sylvester_det
    pivot = ternary.implicit_pivots(5, 2)[1]

    def skewed(f, g, p):
        det = sylvester_det(f, g, p)
        return scale(det, Monomial((1, 0, 0), (0, 0, 0, 0))) if p == pivot else det

    monkeypatch.setattr(ternary, "sylvester_det", skewed)
    with pytest.raises(RuntimeError, match=r"the cube relation from \(g2, H2\) is x\*w\^3 - x\^2\*y\*z\*t\*u\*v"):
        ternary.ternary_gens(5, 2)
    code, out, err = run_cli(capsys, "ternary", "5", "2")
    assert (code, out) == (3, "")
    assert "RuntimeError: the cube relation from (g2, H2)" in err


def test_invalid_parameters_exit_2(capsys):
    assert main(["binary-gens", "3", "5"]) == 2  # b > d
    assert main(["binary-gens", "3", "0"]) == 2
    assert main(["binary-verify", "4", "2"]) == 2  # gcd > 1
    assert main(["lengths", "4", "2"]) == 2
    # one r_cap validator for both branches of red --uniform
    assert main(["red", "--uniform", "3", "6", "2", "--r-cap", "-1"]) == 2  # monomial Q
    assert main(["red", "--uniform", "3", "10", "2", "--r-cap", "-1"]) == 2  # binomial Q
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


@pytest.mark.parametrize("argv", [
    ["binary-gens", "1010", "3"],
    ["binary-verify", "1010", "3"],
    ["binary-gens", "2000", "6"],
])
def test_image_exponents_above_the_cap_are_refused_at_once(capsys, argv):
    # the kernel check of the generators forms image exponents up to
    # d * max(b, d - b) / gcd(d, b): 1010 * 1007 = 1017070, 2000 * 1994 / 2 = 1994000
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "image exponent d * max(b, d - b) / gcd(d, b) =" in err
    assert "exceeds the supported cap" in err
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("argv", [["binary-gens", "1002", "5"], ["binary-gens", "2000", "4"]])
def test_image_exponents_up_to_the_cap_pass(capsys, argv):
    # 1002 * 997 = 998994 and 2000 * 1996 / 4 = 998000
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


@st.composite
def binary_gens_near_the_image_cap(draw):
    """`binary-gens d b` with d = g d', b = g b', gcd(d', b') = 1 and g
    within two of where the image cap d * max(b, d - b) / gcd(d, b) =
    g d' max(b', d' - b') meets EXPONENT_CAP."""
    d1 = draw(st.integers(2, 1100))
    b1 = draw(st.sampled_from([b for b in range(1, d1) if gcd(d1, b) == 1]))
    g = max(1, EXPONENT_CAP // (d1 * max(b1, d1 - b1)) + draw(st.integers(-2, 2)))
    return ["binary-gens", str(g * d1), str(g * b1)]


@st.composite
def ternary_near_the_cap(draw):
    """`ternary a b` with a within three of EXPONENT_CAP, and b anywhere up
    to a, at the regime boundaries a / 3 and a / 2, or small."""
    a = EXPONENT_CAP + draw(st.integers(-3, 3))
    b = draw(st.one_of(
        st.integers(0, a),
        st.tuples(st.sampled_from([a // 3, a // 2]), st.integers(-1, 1)).map(sum),
        st.integers(0, 3),
    ))
    return ["ternary", str(a), str(b)]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.one_of(binary_gens_near_the_image_cap(), ternary_near_the_cap()), st.sampled_from(["text", "json"]))
def test_commands_near_the_caps_pass_or_are_refused(argv, fmt):
    # a parameter near a cap is either run or refused as a usage error,
    # never an internal error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    assert code in (0, 2), (argv, err.getvalue())
    assert bool(out.getvalue()) == (code == 0)


@pytest.mark.parametrize("argv", [["lengths", "2000", "1"], ["lengths", "1001", "2"]])
def test_power_exponents_above_the_cap_are_refused_at_once(capsys, argv):
    # the profile builds J I^(d-2), whose pure powers reach x^((d-1) d):
    # 1999 * 2000 = 3998000 and 1000 * 1001 = 1001000
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "power exponent l * d =" in err and "exceeds the supported cap" in err
    assert time.monotonic() - start < 1.0


def test_ternary_length_exponents_above_the_cap_are_refused_at_once(capsys):
    # the profile builds J I^(l-1) up to l = 3a, whose pure powers reach
    # x^(3a * a): 3 * 578 * 578 = 1002252; without --lengths the same
    # pair still runs
    start = time.monotonic()
    code, out, err = run_cli(capsys, "ternary", "578", "1", "--lengths")
    assert code == 2 and out == ""
    assert "power exponent l * a =" in err and "exceeds the supported cap" in err
    assert time.monotonic() - start < 1.0
    code, out, _ = run_cli(capsys, "ternary", "578", "1")
    assert code == 0 and out


def test_binary_verify_counts_the_reduced_fibers(capsys):
    # fibers_checked counts the reduced fibers (two or more members, no
    # common variable) of T-degree <= d + 1 whose smallest member has
    # ground degree <= 3d, here counted with the reference fiber enumeration
    d, b = 7, 3
    code, out, _ = run_cli(capsys, "binary-verify", str(d), str(b), "--format", "json")
    assert code == 0
    spec = toric.binary_spec(d, b)
    count = 0
    for tau in range(d + 2):
        images = {
            spec.image_of(Monomial(ground, beta))
            for beta in toric.compositions(tau, 3)
            for total in range(3 * d + 1)
            for ground in toric.compositions(total, 2)
        }
        for image in images:
            members = reference_fiber(spec, image)
            if len(members) < 2 or min(m.ground_degree() for m in members) > 3 * d:
                continue
            common = members[0]
            for m in members[1:]:
                common = common.gcd(m)
            count += common.is_unit()
    assert json.loads(out)["results"]["fibers_checked"] == count


def test_reduction_search_beyond_the_cap_is_refused_at_once(capsys):
    # the search would walk C(1006, 1000) - 1001 s-vectors; it used to
    # recurse 1000 deep in toric.compositions and die of RecursionError
    start = time.monotonic()
    code, out, err = run_cli(capsys, "red", "--uniform", "1000", "5", "1")
    assert code == 2 and out == ""
    assert "above the cap" in err
    assert time.monotonic() - start < 1.0


def test_red_below_one_is_undecided_at_once(capsys):
    # sum b_i / a_i = 1/2 < 1: no r can succeed, so a huge r_cap costs nothing
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "red", "--a", "4,4", "--b", "1,1", "--r-cap", "100000000", "--format", "json")
    assert code == 0
    assert time.monotonic() - start < 1.0
    _, default, _ = run_cli(capsys, "red", "--a", "4,4", "--b", "1,1", "--format", "json")
    data, expected = json.loads(out), json.loads(default)
    assert data["results"].pop("r_cap") == 100000000
    assert expected["results"].pop("r_cap") == 16
    assert data == expected
    assert data["results"]["sum_b_over_a_below_1"] is True


def test_red_sum_of_exactly_one_is_not_below_one(capsys):
    # 1/2 + 1/3 + 1/6 = 1 exactly; summed in floating point it falls below 1
    code, out, _ = run_cli(capsys, "red", "--a", "2,3,6", "--b", "1,1,1", "--r-cap", "4", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["undecided"] is True and results["sum_b_over_a_below_1"] is False


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


@pytest.mark.parametrize("exps, code", [((EXPONENT_CAP + 1, 0), 2), ((-1, 0), 3)])
def test_monomial_exponent_refusals_map_to_their_exit_codes(capsys, monkeypatch, exps, code):
    # an exponent above the cap is the caller's (exit 2); a negative one
    # can only come from a bug (exit 3)
    monkeypatch.setattr(binary, "sigma_set", lambda d, b: Monomial(exps))
    got, out, err = run_cli(capsys, "binary-verify", "7", "3")
    assert (got, out) == (code, "")
    assert ("internal error:" in err) == (code == 3)


# -- one parser per process ----------------------------------------------------

@pytest.fixture
def fresh_parser():
    # drop the parser of earlier tests before and after, so the test sees a
    # first build and leaves no parser built under its patches behind
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_main_builds_the_parser_at_most_once(capsys, monkeypatch, fresh_parser):
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    main(["lengths", "7", "3"])
    built = len(progs)  # the subcommand parsers pass through the spy too
    for argv in (["red", "--uniform", "3", "7", "2", "--format", "json"],
                 ["lengths", "4", "2"], ["binary-gens", "14", "3"]):
        main(argv)
    with pytest.raises(SystemExit):
        main(["lengths", "7"])
    main(["lengths", "7", "3"])
    capsys.readouterr()
    assert progs.count("rees-lab") == 1
    assert len(progs) == built


def test_main_uses_the_parser_that_build_parser_returns(capsys, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    seen = []
    parse_args = parser.parse_args

    def spy(argv=None):
        seen.append(argv)
        return parse_args(argv)

    monkeypatch.setattr(parser, "parse_args", spy)
    code, out, _ = run_cli(capsys, "lengths", "7", "3")
    assert code == 0 and out
    assert seen == [["lengths", "7", "3"]]


def _outcome(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("argv, other", [
    (["lengths", "7", "3"], ["red", "--uniform", "3", "7", "2", "--format", "json"]),
    (["binary-verify", "7", "3", "--drop", "5", "--format", "json"], ["lengths", "9", "2"]),
    (["red", "--a", "3,5,7", "--b", "1,2,2"], ["ternary", "5", "2", "--format", "json"]),
    (["ternary", "5", "2", "--verify", "--format", "json"], ["binary-gens", "4", "2"]),
])
def test_a_command_reads_the_same_after_refusals_and_other_commands(argv, other, fresh_parser):
    first = _outcome(argv)
    assert _outcome(["lengths", "7"])[0] == 2  # a parser error
    assert _outcome(["lengths", "4", "2"]) == (2, "")  # an InputError refusal
    assert _outcome(other)[0] in (0, 1)
    assert _outcome(argv) == first


def test_main_runs_the_command_patched_after_the_parser_is_built(capsys, monkeypatch):
    cli.build_parser()

    def stub(args):
        return Report("lengths", {"d": args.d, "b": args.b}, {"stub": True}, "fail")

    monkeypatch.setattr(cli, "cmd_lengths", stub)
    code, out, _ = run_cli(capsys, "lengths", "7", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["results"] == {"stub": True}
