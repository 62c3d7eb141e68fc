"""Command-line front end.

Every command assembles a Report whose canonical body is deterministic:
fixed sort orders, no timestamps.  Timing goes to stderr as a trailer so
stdout stays byte-identical across runs.  Exit codes, all set in ``main``:

- 0: the verdict is "pass" (or "report", a plain report);
- 1: the verdict is "fail": a verified claim failed, with its witness in
  the report;
- 2: usage error: a parser error, or a parameter outside the supported
  range (``core.InputError``, raised by the validator that owns it);
- 3: internal error: any other exception; stdout stays empty and stderr
  carries the traceback.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import Optional

from . import binary, lengths, reduction, ternary, toric
from .core import AciSpec, InputError

SCHEMA = "rees-lab/1"


@dataclass
class Report:
    command: str
    params: dict
    results: dict
    verdict: str  # "pass" | "fail" | "report"
    schema: str = SCHEMA

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)

    def to_text(self) -> str:
        out = [f"# {self.command}"]
        for k in sorted(self.params):
            out.append(f"{k} = {self.params[k]}")
        out.append(_render(self.results))
        out.append(f"verdict: {self.verdict}")
        return "\n".join(out) + "\n"


def _render(value, indent: str = "") -> str:
    if isinstance(value, dict):
        lines = []
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_render(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
        return "\n".join(lines)
    if isinstance(value, list):
        return "\n".join(f"{indent}- {item}" if not isinstance(item, (dict, list))
                         else f"{indent}-\n{_render(item, indent + '  ')}" for item in value)
    return f"{indent}{value}"


def _sweep_bounds(d: int) -> tuple[int, int]:
    """(T-degree, ground-degree) bounds of the binary fiber sweep.  Each
    Sigma generator has both degrees <= d and coprime sides, so its reduced
    fiber is checked; one T-degree more lets a missing generator show."""
    return d + 1, 3 * d


def _entry_dict(e: binary.SigmaEntry) -> dict:
    return {
        "binomial": e.binomial.text(),
        "origin": e.origin,
        "k": e.k,
        "i": e.i,
        "bidegree": list(e.binomial.bidegree()),
    }


def _sweep_failure(report: toric.GenerationReport) -> dict:
    """A failed sweep's bounds and first disconnected fiber: its image, T for the T-degree, and components."""
    ff = report.first_failure
    failure = {"image": ff.image.text(rnames=("T",)), "components": [[m.text() for m in c] for c in ff.components]}
    return {"t_bound": report.t_bound, "ground_bound": report.ground_bound, "first_failure": failure}


# -- commands ----------------------------------------------------------------

def cmd_binary_gens(args) -> Report:
    d, b = args.d, args.b
    params = {"d": d, "b": b}
    results: dict = {}
    g = gcd(d, b)
    if g > 1:
        rp = binary.reparametrize((d, d), (b, d - b))
        spec = toric.binary_spec(d, b)
        d_red, b_red = rp.a_reduced[0], rp.b_reduced[0]
        sigma = binary.sigma_set(d_red, b_red)
        gens = [binary.transport(bi, rp.delta) for bi in sigma.binomials()]
        try:
            toric.MoveSet(spec, tuple(gens))
            kernel_ok = True
        except toric.KernelMismatch:
            kernel_ok = False
        results["reparametrized"] = {"d": d_red, "b": b_red, "delta": list(rp.delta)}
        results["generators"] = [bi.text() for bi in gens]
        results["count"] = len(gens)
        results["count_formula"] = sigma.count_formula()
        results["kernel_ok"] = kernel_ok
        verdict = "pass" if kernel_ok and len(gens) == sigma.count_formula() else "fail"
        return Report("binary-gens", params, results, verdict)
    sigma = binary.sigma_set(d, b)
    results["euclid"] = {
        "quotients": list(sigma.euclid.quotients),
        "remainders": list(sigma.euclid.remainders),
        "continuants": list(sigma.euclid.continuants),
    }
    results["generators"] = [_entry_dict(e) for e in sigma.entries]
    results["count"] = len(sigma)
    results["count_formula"] = sigma.count_formula()
    ok = len(sigma) == sigma.count_formula()
    return Report("binary-gens", params, results, "pass" if ok else "fail")


def cmd_binary_verify(args) -> Report:
    d, b = args.d, args.b
    sigma = binary.sigma_set(d, b)
    moves = sigma.moves
    dropped = None
    if args.drop is not None:
        if not 0 <= args.drop < len(moves):
            raise InputError(f"--drop index {args.drop} outside 0..{len(moves) - 1}")
        dropped = sigma.entries[args.drop].binomial
        moves = moves.without(args.drop)
    t_bound, g_bound = _sweep_bounds(d)
    report = toric.generates_up_to(moves, t_bound, g_bound)
    removal = []
    minimal = None  # the removal probes run on the full set only
    if dropped is None:
        removal = [{"binomial": mv.text(), "redundant": r} for mv, r in zip(moves, moves.redundant())]
        minimal = not any(p["redundant"] for p in removal)
    results = {
        "t_bound": t_bound,
        "ground_bound": g_bound,
        "fibers_checked": report.fibers_checked,
        "generates": report.passed,
        "minimal": minimal,
        "removal_probes": removal,
    }
    if dropped is not None:
        results["dropped"] = dropped.text()
    if report.first_failure is not None:
        results.update(_sweep_failure(report))
    ok = report.passed and minimal is True
    return Report("binary-verify", {"d": d, "b": b}, results, "pass" if ok else "fail")


def cmd_lengths(args) -> Report:
    d, b = args.d, args.b
    bb = min(b, d - b) if 0 < b < d else b  # symmetric under x <-> y; bad b stays as typed
    profile = lengths.hm_profile(d, bb)  # raises unless l0' >= d - l0
    results = {
        "rows": [{"ell": r.ell, "s": r.s, "t": r.t, "lambda": r.lam} for r in profile.rows],
        "hm_sum": profile.hm_sum,
        "e1": profile.e1,
        "hm_holds": profile.hm_holds,
        "hm_equal": profile.hm_equal,
        "ell0": profile.ell0,
        "ell0_prime": profile.ell0_prime,
        "equidistant": profile.equidistant,
    }
    if b != bb:
        results["mirrored_b"] = bb
    return Report("lengths", {"d": d, "b": b}, results, "pass" if profile.hm_holds else "fail")


def cmd_red(args) -> Report:
    if args.uniform:
        n, a, b = args.uniform
        params = {"uniform": [n, a, b]}
        u = reduction.red_uniform(n, a, b)
        spec = AciSpec((a,) * n, (b,) * n)
        results = {"kind": u.kind, "red": u.red}
        if u.kind == "binomial":
            results["q_generators"] = list(u.q_generators)
            results["j_undecided"] = reduction.is_monomial_reduction(spec, args.r_cap).undecided
        else:
            search = reduction.red_search_general(spec, args.r_cap)
            results["search_red"] = search.r
            results["witness"] = list(search.witness) if search.witness else None
        return Report("red", params, results, "report")
    a = tuple(args.a)
    b = tuple(args.b)
    params = {"a": list(a), "b": list(b)}
    spec = AciSpec(a, b)
    res = reduction.is_monomial_reduction(spec, args.r_cap)
    results: dict = {"r_cap": res.r_cap}
    if res.undecided:
        results["red"] = None
        results["undecided"] = True
        results["sum_b_over_a_below_1"] = res.sum_below_one
    else:
        search = reduction.red_search_general(spec, args.r_cap)
        results["red"] = res.r
        results["undecided"] = False
        results["witness"] = list(res.witness)
        results["search_red"] = search.r
    return Report("red", params, results, "report")


def cmd_ternary(args) -> Report:
    a, b = args.a, args.b
    gens = ternary.ternary_gens(a, b)
    results: dict = {
        "regime": gens.regime,
        "generators": [{"label": lbl, "binomial": bi.text()} for lbl, bi in gens.labelled()],
        "reduction": reduction.red_uniform(3, a, b).red,
    }
    ok = True
    if args.verify:
        colon = ternary.verify_colon_claims(gens)
        gen_rep = ternary.ternary_generation_check(gens)
        enum = ternary.enumeration_check(gens)
        results["colon_claims"] = [
            {"name": c.name, "certificates": c.certificates_ok, "superset": c.superset_ok,
             "subset": c.subset_ok, "subset_checked": c.subset_checked}
            | ({} if c.ok else {"subset_violations": list(c.subset_violations)})
            for c in colon.claims
        ]
        results["generates"] = gen_rep.passed
        results["redundant_generators"] = list(gen_rep.redundant)
        results["enumeration_matches"] = enum.matches
        results["enumeration_types"] = enum.types
        if not gen_rep.passed:
            results.update(_sweep_failure(gen_rep.generation))
        ok = colon.ok and gen_rep.passed and enum.matches
    if args.lengths:
        rows = ternary.ternary_length_profile(a, b)
        results["exploratory_lengths"] = {
            "note": "no closed form asserted",
            "rows": [{"ell": r.ell, "lambda": r.lam} for r in rows],
        }
    return Report("ternary", {"a": a, "b": b}, results, "pass" if ok else "fail")


CSV_COLUMNS = ["d", "b", "count", "hmSum", "e1", "ell0", "ell0prime", "verdict"]


def _binary_instance(d: int, b: int) -> dict:
    sigma = binary.sigma_set(d, b)
    gen = toric.generates_up_to(sigma.moves, *_sweep_bounds(d))
    profile = lengths.hm_profile(d, min(b, d - b))
    red = reduction.is_monomial_reduction(toric.binary_spec(d, b))
    ok = (
        gen.passed
        and len(sigma) == sigma.count_formula()
        and profile.hm_holds
        and red.r == d - 1
    )
    return {
        "d": d, "b": b,
        "count": len(sigma),
        "hmSum": profile.hm_sum,
        "e1": profile.e1,
        "ell0": profile.ell0,
        "ell0prime": profile.ell0_prime,
        "verdict": "pass" if ok else "fail",
    }


def cmd_sweep(args) -> Report:
    if args.binary_max_d < 2 and args.ternary_max_a < 3:
        raise InputError("the sweep checks nothing: need --binary-max-d >= 2 or --ternary-max-a >= 3")
    if not args.out:
        return _sweep(args)
    try:  # before any sweep work, so a path that cannot be written is refused at once
        fh = open(args.out, "w", newline="" if args.format == "csv" else None)
    except OSError as exc:
        raise InputError(f"cannot write the --out file: {exc}") from None
    with fh:
        report = _sweep(args)
        if args.format == "csv":
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for r in report.results["binary"]:
                writer.writerow({c: r[c] for c in CSV_COLUMNS})
        else:
            fh.write(report.to_json() + "\n")
    return report


def _sweep(args) -> Report:
    rows = [  # canonical parameter order
        _binary_instance(d, b)
        for d in range(2, args.binary_max_d + 1)
        for b in range(1, d)
        if gcd(d, b) == 1
    ]

    ternary_rows = []
    if args.ternary_max_a:
        for a in range(3, args.ternary_max_a + 1):
            for b in range(1, (a - 1) // 2 + 1):
                gen = ternary.ternary_generation_check(ternary.ternary_gens(a, b))
                ternary_rows.append({
                    "a": a, "b": b,
                    "regime": ternary.regime_of(a, b),
                    "red": reduction.red_uniform(3, a, b).red,
                    "verdict": "pass" if gen.passed else "fail",
                })

    uniform_rows = []
    if args.uniform:
        # exploratory data for the uniform grid: reduction numbers only
        for n in (2, 3):
            for a in range(2, 8):
                for b in range(1, a):
                    u = reduction.red_uniform(n, a, b)
                    uniform_rows.append({
                        "n": n, "a": a, "b": b, "kind": u.kind, "red": u.red,
                    })

    all_pass = all(r["verdict"] == "pass" for r in rows) and all(
        r["verdict"] == "pass" for r in ternary_rows
    )
    results: dict = {"binary": rows}
    if ternary_rows:
        results["ternary"] = ternary_rows
    if uniform_rows:
        results["uniform"] = uniform_rows
    return Report(
        "sweep",
        {"binary_max_d": args.binary_max_d, "ternary_max_a": args.ternary_max_a},
        results,
        "pass" if all_pass else "fail",
    )


def _int_list(text: str) -> list[int]:
    """The value of ``red --a`` and ``--b``: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; ``main`` runs the
    module's ``cmd_<command>`` as it stands at call time."""
    parser = argparse.ArgumentParser(
        prog="rees-lab",
        description="Sylvester-form generators of Rees ideals of monomial "
        "almost complete intersections, with brute-force toric oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binary-gens", help="generators of the binary Rees ideal")
    p.add_argument("d", type=int)
    p.add_argument("b", type=int)

    p = sub.add_parser("binary-verify", help="generation + minimality via the fiber oracle")
    p.add_argument("d", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--drop", type=int, default=None,
                   help="drop the generator at this index first and skip the removal probes (expect failure)")

    p = sub.add_parser("lengths", help="length profile and Huckaba-Marley verdict")
    p.add_argument("d", type=int)
    p.add_argument("b", type=int)

    p = sub.add_parser("red", help="reduction numbers")
    p.add_argument("--a", type=_int_list, default=None,
                   help="comma-separated pure-power exponents")
    p.add_argument("--b", type=_int_list, default=None,
                   help="comma-separated mixed-monomial exponents")
    p.add_argument("--uniform", type=int, nargs=3, metavar=("N", "A", "B"), default=None)
    p.add_argument("--r-cap", type=int, default=None)

    p = sub.add_parser("ternary", help="ternary uniform generators and colon claims")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--verify", action="store_true", help="run colon claims + generation sweep")
    p.add_argument("--lengths", action="store_true", help="exploratory length rows")

    p = sub.add_parser("sweep", help="batch invariant suites over parameter grids")
    p.add_argument("--binary-max-d", type=int, default=12)
    p.add_argument("--ternary-max-a", type=int, default=0)
    p.add_argument("--uniform", action="store_true", help="include the uniform reduction-number data grid")
    p.add_argument("--out", type=str, default=None)

    for name, sp in sub.choices.items():
        formats = ("text", "json", "csv") if name == "sweep" else ("text", "json")
        sp.add_argument("--format", choices=formats, default="text")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "red" and (args.a is not None) + (args.b is not None) != (0 if args.uniform else 2):
        parser.error("red needs either --a and --b, or --uniform N A B, not both")
    if args.format == "csv" and not args.out:
        parser.error("--format csv writes only to a file: add --out PATH")
    start = time.monotonic()
    try:
        report = globals()["cmd_" + args.command.replace("-", "_")](args)
        text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only on this path, so startup stays lean

        print("internal error:", traceback.format_exc(), file=sys.stderr, end="")
        return 3
    sys.stdout.write(text)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    print(f"# elapsed_ms={elapsed_ms}", file=sys.stderr)
    return 1 if report.verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
