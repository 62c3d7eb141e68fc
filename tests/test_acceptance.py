"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  All comparisons are
exact (integer / structural); the only tolerances are the stated runtime
budgets, asserted against wall-clock time.
"""

import json
import random
import time
from math import gcd

from monomial_text import parse_binomial
from reeslab import cli
from reeslab.binary import euclid_sequence, pk_qk, reparametrize, sigma_set, transport
from reeslab.lengths import hm_profile, st_formula, st_oracle
from reeslab.reduction import (
    AciSpec,
    is_monomial_reduction,
    red_search_general,
    red_uniform,
    verify_q_reduction,
)
from reeslab.ternary import (
    certificate_identities,
    enumeration_check,
    ternary_generation_check,
    ternary_gens,
    verify_colon_claims,
)
from reeslab.toric import (
    binary_spec,
    binomial_in_binomial_ideal,
    bruteforce_min_gens,
    generates_up_to,
)
from reeslab.core import Monomial


def pb(text):
    return parse_binomial(text, 2, 3)


def coprime_pairs(dmax, half_only=False):
    return [
        (d, b)
        for d in range(2, dmax + 1)
        for b in range(1, (d // 2 if half_only else d - 1) + 1)
        if gcd(d, b) == 1 and (not half_only or b <= d - b)
    ]


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


def test_criterion_01_golden_example(capsys):
    golden = [
        "y^3*v - x^3*u",
        "y^11*t - x^11*v",
        "y^8*t*u - x^8*v^2",
        "y^5*t*u^2 - x^5*v^3",
        "y^2*t*u^3 - x^2*v^4",
        "x*t*u^4 - y*v^5",
        "y*t^2*u^7 - x*v^9",
        "t^3*u^11 - v^14",
    ]
    start = time.monotonic()
    code = cli.main(["binary-gens", "14", "3", "--format", "json"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    got = [g["binomial"] for g in data["results"]["generators"]]
    assert len(got) == 8
    # zero tolerance, up to orientation and listing order
    assert {pb(t) for t in got} == {pb(t) for t in golden}
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"binary-gens 14 3 emits the 8 golden binomials in {elapsed * 1000:.0f} ms")


def test_criterion_02_generation_and_minimality():
    start = time.monotonic()
    pairs = coprime_pairs(12)
    for d, b in pairs:
        sigma = sigma_set(d, b)
        moves = sigma.moves
        rep = generates_up_to(moves, d + 1, 3 * d)
        assert rep.passed, (d, b)
        # dropping any entry disconnects its own fiber: the sweep fails at
        # exactly that bidegree (no smaller fiber can use the entry)
        for i, e in enumerate(sigma.entries):
            assert not binomial_in_binomial_ideal(e.binomial, moves.without(i)), (d, b, i)
    # literal first-failure confirmation on the small instances
    for d, b in coprime_pairs(6):
        sigma = sigma_set(d, b)
        moves = sigma.moves
        for i, e in enumerate(sigma.entries):
            rep = generates_up_to(moves.without(i), d + 1, 3 * d)
            assert not rep.passed
            failure = rep.first_failure
            assert failure.image == moves.spec.image_of(e.binomial.lead), (d, b, i)
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"sweep took {elapsed:.0f}s"
    report(2, f"{len(pairs)} pairs verified (generation + per-entry minimality) in {elapsed:.0f}s")


def test_criterion_03_count_formula():
    for d, b in coprime_pairs(30):
        sigma = sigma_set(d, b)
        assert len(sigma) == 1 + sum(sigma.euclid.quotients), (d, b)
    checked = 0
    for d, b in coprime_pairs(12):
        oracle = bruteforce_min_gens(binary_spec(d, b), d + 1, 3 * d)
        assert len(oracle) == sigma_set(d, b).count_formula(), (d, b)
        checked += 1
    report(3, f"count formula on d <= 30; brute-force agreement on {checked} pairs with d <= 12")


def test_criterion_04_integrality_suite():
    counted = 0
    for d, b in coprime_pairs(30):
        ed = euclid_sequence(d, b)
        assert ed.ek(ed.steps) == d, (d, b)
        for k in range(1, ed.steps + 1):
            for i in range(1, ed.ck(k) + 1):
                val = pk_qk(ed, k, i)  # raises on any integrality failure
                assert 0 <= val <= i * ed.ek(k - 1) + ed.ek(k - 2), (d, b, k, i)
                counted += 1
    report(4, f"{counted} (k, i) exponents integral and within bounds across d <= 30")


def test_criterion_05_length_formulas():
    rows = 0
    for d, b in coprime_pairs(20, half_only=True):
        for ell in range(1, d):
            formula = st_formula(d, b, ell)
            oracle = st_oracle(d, b, ell)  # raises unless two pure powers
            assert formula == oracle, (d, b, ell)
            rows += 1
        assert st_oracle(d, b, 1) == (d - b, b), (d, b)
        if 2 * b < d:
            s2, t2 = st_oracle(d, b, 2)
            assert s2 * t2 == b * (d - 2 * b), (d, b)
    report(5, f"formula = oracle on {rows} rows (d <= 20), row-1 and row-2 closed forms hold")


def test_criterion_06_huckaba_marley():
    strict = []
    for d, b in coprime_pairs(20, half_only=True):
        p = hm_profile(d, b)
        assert p.hm_sum <= p.e1, (d, b, p.hm_sum, p.e1)
        if p.hm_sum < p.e1:
            strict.append((d, b, p.hm_sum, p.e1))
    detail = "equality on all instances" if not strict else f"FLAGGED strict inequalities: {strict}"
    report(6, f"sum <= C(d,2) for every (d <= 20) instance; {detail}")


def test_criterion_07_reduction_numbers():
    for d, b in coprime_pairs(20):
        assert is_monomial_reduction(AciSpec((d, d), (b, d - b))).r == d - 1, (d, b)
    uniform_checked = 0
    for n in (2, 3, 4):
        for a in range(2, 13):
            for b in range(1, a):
                spec = AciSpec((a,) * n, (b,) * n)
                if n * b >= a:
                    u = red_uniform(n, a, b)
                    s = red_search_general(spec)  # cross-validates internally
                    assert u.red == s.r, (n, a, b)
                else:
                    assert is_monomial_reduction(spec).undecided, (n, a, b)
                uniform_checked += 1
    q_checked = 0
    for a in range(4, 7):
        for b in range(1, a):
            if 3 * b >= a:
                continue
            rep = verify_q_reduction(3, a, b)
            assert rep.power_contained, (a, b)
            assert rep.witness_excluded, (a, b)
            q_checked += 1
    report(7, f"binary d <= 20, {uniform_checked} uniform triples, {q_checked} Q-reduction instances")


def _expected_ternary(a, b):
    def m3(gx=0, gy=0, gz=0, t=0, u=0, v=0, w=0):
        return Monomial((gx, gy, gz), (t, u, v, w))

    from reeslab.core import Binomial

    expected = {
        "f1": Binomial(m3(gx=a, u=1), m3(gy=a, t=1)),
        "f2": Binomial(m3(gx=a, v=1), m3(gz=a, t=1)),
        "f3": Binomial(m3(gy=a, v=1), m3(gz=a, u=1)),
        "g1": Binomial(m3(gx=a - b, w=1), m3(gy=b, gz=b, t=1)),
        "g2": Binomial(m3(gy=a - b, w=1), m3(gx=b, gz=b, u=1)),
        "g3": Binomial(m3(gz=a - b, w=1), m3(gx=b, gy=b, v=1)),
        "H1": Binomial(m3(gx=a - 2 * b, gy=a - 2 * b, w=2), m3(gz=2 * b, t=1, u=1)),
        "H2": Binomial(m3(gx=a - 2 * b, gz=a - 2 * b, w=2), m3(gy=2 * b, t=1, v=1)),
        "H3": Binomial(m3(gy=a - 2 * b, gz=a - 2 * b, w=2), m3(gx=2 * b, u=1, v=1)),
    }
    if 3 * b >= a:
        e = 3 * b - a
        expected["E"] = Binomial(m3(w=3), m3(gx=e, gy=e, gz=e, t=1, u=1, v=1))
    else:
        e = a - 3 * b
        expected["E'"] = Binomial(m3(gx=e, gy=e, gz=e, w=3), m3(t=1, u=1, v=1))
    return expected


def test_criterion_08_ternary():
    pairs = [(a, b) for a in range(3, 8) for b in range(1, a) if a > 2 * b]
    for a, b in pairs:
        start = time.monotonic()
        gens = ternary_gens(a, b)
        expected = _expected_ternary(a, b)
        for lbl, bi in gens.labelled():
            assert bi == expected[lbl], (a, b, lbl)
        for step, label, lhs, rhs in certificate_identities(gens):
            assert lhs == rhs, (a, b, step, label)
        colon = verify_colon_claims(gens)
        for claim in colon.claims:
            assert claim.certificates_ok, (a, b, claim.name)
            assert claim.superset_ok, (a, b, claim.name)
            assert claim.subset_ok, (a, b, claim.name, claim.subset_violations)
        gen_rep = ternary_generation_check(gens)
        assert gen_rep.passed, (a, b)
        assert enumeration_check(gens).matches, (a, b)
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"({a},{b}) took {elapsed:.0f}s"
    report(8, f"{len(pairs)} ternary instances: closed forms, certificates, colons, generation")


def test_criterion_09_reparametrization_transport():
    rng = random.Random(20260810)
    done = 0
    while done < 20:
        d_red = rng.randint(2, 10)
        bs = [b for b in range(1, d_red) if gcd(d_red, b) == 1]
        b_red = rng.choice(bs)
        scale = rng.randint(2, 4)
        d, b = d_red * scale, b_red * scale
        r = reparametrize((d, d), (b, d - b))
        assert (r.a_reduced, r.b_reduced) == ((d_red, d_red), (b_red, d_red - b_red))
        sigma = sigma_set(d_red, b_red)
        spec = binary_spec(d, b)
        moved = [transport(bi, r.delta) for bi in sigma.binomials()]
        assert len(moved) == len(sigma)
        for orig, new in zip(sigma.binomials(), moved):
            assert spec.image_of(new.lead) == spec.image_of(new.trail), (d, b)
            assert new.lead.rees_degree() == orig.lead.rees_degree()
            assert new.trail.rees_degree() == orig.trail.rees_degree()
        red_orig = is_monomial_reduction(AciSpec((d_red, d_red), (b_red, d_red - b_red))).r
        red_big = is_monomial_reduction(AciSpec((d, d), (b, d - b))).r
        assert red_orig == red_big == d_red - 1
        done += 1
    report(9, "20 random gcd-reducible pairs: transported kernels, counts, T-degrees, reductions")


def test_criterion_10_syzygy_indices():
    table = []
    for d, b in coprime_pairs(20, half_only=True):
        p = hm_profile(d, b)  # raises if an index is missing or the bound fails
        assert 1 <= p.ell0 <= p.ell0_prime <= d - 1
        assert p.ell0_prime >= d - p.ell0, (d, b)
        table.append((d, b, p.ell0, p.ell0_prime, p.ell0_prime == d - p.ell0))
    # the equidistance question is emitted as data, never asserted
    eq = sum(1 for row in table if row[4])
    print("\n  d  b  l0  l0'  l0'=d-l0")
    for d, b, l0, l0p, equal in table:
        print(f"  {d:2d} {b:2d}  {l0:2d}  {l0p:3d}  {equal}")
    report(10, f"indices exist with l0' >= d - l0 on {len(table)} instances; equality on {eq}/{len(table)} (data only)")
