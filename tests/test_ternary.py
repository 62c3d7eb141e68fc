"""Ternary uniform generators, type classification, colon claims."""

from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from reeslab import cli, ternary
from monomial_text import divides, parse_binomial, parse_monomial, scale
from reeslab.core import InputError, Monomial
from reeslab.ternary import (
    ColonClaimReport,
    ColonClaimsReport,
    certificate_identities,
    colon_claims,
    classify_type,
    enumerate_kernel_binomials,
    enumeration_check,
    implicit_pivots,
    ternary_generation_check,
    ternary_gens,
    ternary_length_profile,
    verify_colon_claims,
)
from reeslab.toric import (
    KernelMismatch,
    binomial_in_binomial_ideal,
    bruteforce_min_gens,
    compositions,
    ternary_spec,
)
from test_ideal_kernel import ref_colength, ref_colon, ref_product


def pb3(text):
    return parse_binomial(text, 3, 4)


ALL_PAIRS = [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (7, 2), (7, 3)]
PAIRS_TO_8 = ALL_PAIRS + [(8, 1), (8, 2), (8, 3)]


def test_gens_closed_forms_5_2():
    g = ternary_gens(5, 2)
    assert g["H1"] == pb3("x*y*w^2 - z^4*t*u")
    assert g["H2"] == pb3("x*z*w^2 - y^4*t*v")
    assert g["H3"] == pb3("y*z*w^2 - x^4*u*v")
    assert g["E"] == pb3("w^3 - x*y*z*t*u*v")
    assert g.regime == "E"
    assert g["g1"] == pb3("x^3*w - y^2*z^2*t")
    assert g["f1"] == pb3("x^5*u - y^5*t")


def test_gens_eprime_regime():
    g = ternary_gens(7, 2)
    assert g["E'"] == pb3("x*y*z*w^3 - t*u*v")
    assert g.regime == "E'"


def test_boundary_a_equals_3b():
    g = ternary_gens(6, 2)
    assert g["E"] == pb3("w^3 - t*u*v")
    assert g.regime == "E"
    # the a > 3b formula degenerates to the same binomial at a = 3b
    pairs = zip((g["g1"], g["g2"], g["g3"]), (g["H3"], g["H2"], g["H1"]), implicit_pivots(6, 2))
    assert [ternary.sylvester_det(f, h, pivot) for f, h, pivot in pairs] == [g["E"]] * 3


def test_gens_rejects_gate():
    with pytest.raises(InputError):
        ternary_gens(4, 2)


def test_ternary_spec_owns_the_family_rule():
    for a, b in [(4, 2), (2, 1), (5, 0), (3, 2)]:
        with pytest.raises(InputError, match=r"need a > 2b >= 2"):
            ternary_spec(a, b)
    assert ternary_spec(5, 2).a == (5, 5, 5)


@pytest.mark.parametrize("a, b", [(5, 2), (6, 2), (7, 2)])
def test_generators_are_read_by_label(a, b):
    g = ternary_gens(a, b)
    labels = ternary._labels(a, b)
    assert [g[label] for label in labels] == list(g.moves) == [bi for _, bi in g.labelled()]
    assert [g.index(label) for label in labels] == list(range(10))
    other = "E'" if g.regime == "E" else "E"
    for label in (other, "h1", "implicit", "H4"):
        with pytest.raises(KeyError):
            g[label]
    with pytest.raises(KeyError):
        g.before(other)


def test_the_prefix_of_a_label_is_the_generators_before_it():
    g = ternary_gens(5, 2)
    assert g.before("H1").moves == tuple(g[label] for label in ("f1", "f2", "f3", "g1", "g2", "g3"))
    assert g.before("E").moves == g.moves.moves[:9]
    assert g.before("f1").moves == ()
    assert g.before("H2").spec == ternary_spec(5, 2)


def test_checks_read_the_generators_they_are_given(monkeypatch):
    # the CLI hands its one checked set to every check: the reports are
    # those of a set built anew, and no check builds the set again
    gens = ternary_gens(5, 2)
    checks = (verify_colon_claims, ternary_generation_check, certificate_identities)
    expected = [check(ternary_gens(5, 2)) for check in checks]

    def unreachable(a, b):
        raise AssertionError("the generators were built again")

    monkeypatch.setattr(ternary, "ternary_gens", unreachable)
    assert [check(gens) for check in checks] == expected


def test_ternary_gens_builds_every_pair():
    # each build cross-checks the cube relation of its three pivot pairs
    # and raises unless they agree
    for a, b in ALL_PAIRS:
        assert len(ternary_gens(a, b).moves) == 10


def test_all_gens_in_kernel():
    for a, b in ALL_PAIRS:
        g = ternary_gens(a, b)
        spec = ternary_spec(a, b)
        for bi in g.moves:
            assert spec.image_of(bi.lead) == spec.image_of(bi.trail)


def test_classify_type():
    g = ternary_gens(5, 2)
    assert classify_type(g["E"]) == 1  # w^3 alone on the w-side
    assert classify_type(g["H1"]) == 3
    assert classify_type(g["g1"]) == 2
    assert classify_type(g["f1"]) is None  # no w: an L-element, not conforming
    assert classify_type(ternary_gens(7, 2)["E'"]) == 4
    # common factor disqualifies
    scaled = scale(g["H1"], Monomial((1, 0, 0), (0, 0, 0, 0)))
    assert classify_type(scaled) is None


def test_enumeration_recovers_generators():
    for a, b in [(5, 2), (7, 2), (4, 1)]:
        g = ternary_gens(a, b)
        found = set(enumerate_kernel_binomials(a, b))
        assert {g[label] for label in ("g1", "g2", "g3", "H1", "H2", "H3", g.regime)} <= found
        # and everything else found is already in (L)
        assert enumeration_check(g).matches, (a, b)


def test_the_enumeration_finds_only_the_generators_with_w_up_to_a_40():
    # what `enumeration_check` and README say it checks: within its bounds
    # the enumeration holds g1, g2, g3, the Sylvester forms and the cube
    # relation and nothing else, so its (L) half only meets moves of (L)
    for a in range(3, 41):
        for b in range(1, (a - 1) // 2 + 1):
            g = ternary_gens(a, b)
            found = enumerate_kernel_binomials(a, b)
            assert len(found) == 7, (a, b)
            assert set(found) == {g[label] for label in ("g1", "g2", "g3", "H1", "H2", "H3", g.regime)}, (a, b)


def test_the_enumeration_check_sees_a_missing_generator_and_a_binomial_outside_l(monkeypatch):
    g = ternary_gens(5, 2)
    found = enumerate_kernel_binomials(5, 2)
    for kept in ([bi for bi in found if bi != g["H2"]], [bi for bi in found if bi != g["E"]]):
        monkeypatch.setattr(ternary, "enumerate_kernel_binomials", lambda a, b: tuple(kept))
        assert not enumeration_check(g).matches
    # a binomial of w-degree 4 that (L) misses
    outside = pb3("z^2*w^4 - x^3*y^3*t*u*v^2")
    assert outside in enumerate_kernel_binomials(5, 2, 4)
    monkeypatch.setattr(ternary, "enumerate_kernel_binomials", lambda a, b: found + (outside,))
    assert not enumeration_check(g).matches


def test_enumeration_is_checked_against_the_map(monkeypatch):
    # the enumerated binomials go through one MoveSet, whose kernel check
    # survives python -O: under the map of another pair they are refused
    monkeypatch.setattr(ternary, "ternary_spec", lambda a, b: ternary_spec(a + 1, b))
    with pytest.raises(KernelMismatch):
        enumerate_kernel_binomials(5, 2)


def test_enumeration_types_at_5_2():
    by_type = {}
    for bi in enumerate_kernel_binomials(5, 2):
        by_type.setdefault(classify_type(bi), []).append(bi)
    g = ternary_gens(5, 2)
    assert set(by_type[3]) == {g["H1"], g["H2"], g["H3"]}
    assert by_type[1] == [g["E"]]
    assert enumeration_check(g).types == {t: len(by_type[t]) for t in sorted(by_type)} == {1: 1, 2: 3, 3: 3}
    assert enumeration_check(ternary_gens(7, 2)).types == {2: 3, 3: 3, 4: 1}


def test_delta_four_diagnostic():
    # every new binomial at w-degree 4 reduces into the delta <= 3 set
    for a, b in [(5, 2), (7, 2), (6, 2), (4, 1)]:
        moves = ternary_gens(a, b).moves
        three = set(enumerate_kernel_binomials(a, b, 3))
        four = set(enumerate_kernel_binomials(a, b, 4)) - three
        for bi in four:
            assert binomial_in_binomial_ideal(bi, moves), (a, b, str(bi))


def test_certificates_all_pairs():
    for a, b in ALL_PAIRS:
        for step, label, lhs, rhs in certificate_identities(ternary_gens(a, b)):
            assert lhs == rhs, (a, b, step, label)


def test_certificate_expansion_of_z_times_h1():
    # z^(a-b) H1 = (xy)^(a-2b) w g3 + y^(a-b) v g1 + z^b t f3 at (5, 2),
    # both sides expanded by hand: H1 = x*y*w^2 - z^4*t*u and the inner
    # terms x^3*y^3*v*w and y^5*z^2*t*v cancel on the right
    identities = {label: (lhs, rhs) for _, label, lhs, rhs in certificate_identities(ternary_gens(5, 2))}
    expected = {parse_monomial("x*y*z^3*w^2", 3, 4): 1, parse_monomial("z^7*t*u", 3, 4): -1}
    assert identities["z^(a-b)*H1"] == (expected, expected)


def test_a_false_certificate_is_refused(monkeypatch, capsys):
    # flip the sign of t*f3 in y^(a-2b) H2 = z^(a-2b) H1 - t f3: H2's
    # certificate no longer holds, its claimed colon is unchanged, and the
    # verdict fails
    table = ternary._certificate_table

    def flipped(a, b):
        rows = list(table(a, b))
        i = next(i for i, row in enumerate(rows) if row[:2] == ("H2", "y^(a-2b)"))
        claim, text, mult, terms = rows[i]
        rows[i] = (claim, text, mult, [(-sign if label == "f3" else sign, label, m) for sign, label, m in terms])
        return tuple(rows)

    claims = colon_claims(5, 2)
    monkeypatch.setattr(ternary, "_certificate_table", flipped)
    assert colon_claims(5, 2) == claims
    report = verify_colon_claims(ternary_gens(5, 2))
    assert [c.certificates_ok for c in report.claims] == [True, False, True, True]
    assert not report.ok
    assert cli.main(["ternary", "5", "2", "--verify"]) == 1
    capsys.readouterr()


def test_colon_claims_small():
    rep = verify_colon_claims(ternary_gens(5, 2))
    assert rep.ok
    names = [c.name for c in rep.claims]
    assert names == ["H1", "H2", "H3", "E"]
    for c in rep.claims:
        assert c.subset_checked > 0
        assert c.subset_violations == ()


def test_colon_h1_subset_witness():
    # z^2 is outside (x^2, y^2, z^3) and z^2 H1 stays outside (L) at (5, 2)
    g = ternary_gens(5, 2)
    l_moves = g.before("H1")
    z2 = Monomial((0, 0, 2), (0, 0, 0, 0))
    assert not binomial_in_binomial_ideal(scale(g["H1"], z2), l_moves)
    # while the claimed generator z^{a-b} = z^3 multiplies in
    z3 = Monomial((0, 0, 3), (0, 0, 0, 0))
    assert binomial_in_binomial_ideal(scale(g["H1"], z3), l_moves)


def test_generation_check_with_removals():
    for a, b in [(5, 2), (7, 2), (4, 1)]:
        rep = ternary_generation_check(ternary_gens(a, b))
        assert rep.passed, (a, b)
        assert rep.redundant == (), (a, b)


def test_exploratory_lengths():
    rows = ternary_length_profile(5, 2)
    # reduction number is 2, so exactly two nonzero rows
    assert [r.ell for r in rows] == [1, 2]
    assert all(r.lam > 0 for r in rows)


def reference_length_profile(a, b):
    """(l, lambda) rows of `ternary_length_profile` from the pure-Python
    ideal reference: J I^(l-1) : (xyz)^(bl) point by point."""
    gens = ((a, 0, 0), (0, a, 0), (0, 0, a), (b, b, b))
    power, rows = ((0, 0, 0),), []
    for ell in range(1, 3 * a + 1):
        lam = ref_colength(ref_colon(ref_product(gens[:3], power), (b * ell,) * 3), 3)
        if lam == 0:
            break
        rows.append((ell, lam))
        power = ref_product(power, gens)
    return rows


@pytest.mark.parametrize("a, b", [(3, 1), (4, 1), (5, 1), (5, 2)])
def test_length_profile_matches_the_ideal_reference(a, b):
    assert [(r.ell, r.lam) for r in ternary_length_profile(a, b)] == reference_length_profile(a, b)


@pytest.mark.parametrize("a, b, lams", [
    (7, 2, [125, 81] + [49] * 19),
    (10, 3, [343, 208] + [100] * 28),
], ids=["7-2", "10-3"])
def test_length_profile_rows(a, b, lams):
    # recorded before the ideal kernel built its divisibility masks column
    # by column; too large for the point-by-point reference
    assert [(r.ell, r.lam) for r in ternary_length_profile(a, b)] == list(enumerate(lams, start=1))


def test_reduction_number_is_two_for_all_pairs():
    from reeslab.reduction import red_uniform

    for a, b in ALL_PAIRS:
        assert red_uniform(3, a, b).red == 2, (a, b)


def construction_polys(a, b):
    """The ten generators as (pos, neg) pairs, the polynomial pos - neg in
    the construction orientation, typed out by hand: the reference for
    `ternary._oriented`, which derives them from `ternary_gens`."""
    def m(gx=0, gy=0, gz=0, t=0, u=0, v=0, w=0):
        return Monomial((gx, gy, gz), (t, u, v, w))

    e3 = 3 * b - a
    polys = {
        "f1": (m(gx=a, u=1), m(gy=a, t=1)),
        "f2": (m(gx=a, v=1), m(gz=a, t=1)),
        "f3": (m(gy=a, v=1), m(gz=a, u=1)),
        "g1": (m(gx=a - b, w=1), m(gy=b, gz=b, t=1)),
        "g2": (m(gy=a - b, w=1), m(gx=b, gz=b, u=1)),
        "g3": (m(gz=a - b, w=1), m(gx=b, gy=b, v=1)),
        "H1": (m(gx=a - 2 * b, gy=a - 2 * b, w=2), m(gz=2 * b, t=1, u=1)),
        "H2": (m(gx=a - 2 * b, gz=a - 2 * b, w=2), m(gy=2 * b, t=1, v=1)),
        "H3": (m(gy=a - 2 * b, gz=a - 2 * b, w=2), m(gx=2 * b, u=1, v=1)),
    }
    if e3 >= 0:
        polys["E"] = (m(w=3), m(gx=e3, gy=e3, gz=e3, t=1, u=1, v=1))
    else:
        polys["E'"] = (m(gx=-e3, gy=-e3, gz=-e3, w=3), m(t=1, u=1, v=1))
    return polys


PAIRS_TO_12 = [(a, b) for a in range(3, 13) for b in range(1, (a - 1) // 2 + 1)]


def test_certificate_polynomials_are_the_generators_in_construction_orientation():
    # every pair with a <= 12: both regimes and the boundary a = 3b
    assert {ternary_gens(a, b).regime for a, b in PAIRS_TO_12} == {"E", "E'"} and (6, 2) in PAIRS_TO_12
    for a, b in PAIRS_TO_12:
        assert ternary._oriented(ternary_gens(a, b)) == construction_polys(a, b), (a, b)


def hand_written_colon_claims(a, b):
    """The colon claims as they were typed out before `colon_claims` read
    them off the certificate table: the reference for their names,
    prefixes and generators, in order (`weakened_claims` drops generators
    by position)."""
    def m(gx=0, gy=0, gz=0):
        return Monomial((gx, gy, gz), (0, 0, 0, 0))

    last_name = "E" if 3 * b >= a else "E'"
    last_gens = (
        [m(gx=a - b), m(gy=a - b), m(gz=a - b),
         m(gx=a - 2 * b, gy=a - 2 * b), m(gx=a - 2 * b, gz=a - 2 * b), m(gy=a - 2 * b, gz=a - 2 * b)]
        if 3 * b >= a
        else [m(gx=2 * b), m(gy=2 * b), m(gz=2 * b), m(gx=b, gy=b), m(gx=b, gz=b), m(gy=b, gz=b)]
    )
    return (
        {"name": "H1", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3"),
         "colon": [m(gx=b), m(gy=b), m(gz=a - b)]},
        {"name": "H2", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3", "H1"),
         "colon": [m(gx=b), m(gy=a - 2 * b), m(gz=b)]},
        {"name": "H3", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3", "H1", "H2"),
         "colon": [m(gx=a - 2 * b), m(gy=b), m(gz=b)]},
        {"name": last_name, "prefix": ("f1", "f2", "f3", "g1", "g2", "g3", "H1", "H2", "H3"),
         "colon": last_gens},
    )


def test_colon_claims_are_read_off_the_certificate_table():
    for a, b in PAIRS_TO_12:
        assert colon_claims(a, b) == hand_written_colon_claims(a, b), (a, b)
        assert len(ternary._certificate_table(a, b)) == 15


def reference_colon_claims(a, b, claims):
    """The colon checks with one congruence walk per multiplier: the route
    `verify_colon_claims` took before its memberships were batched."""
    gens = ternary_gens(a, b)
    certs_ok = {}
    for step, _, lhs, rhs in certificate_identities(gens):
        certs_ok[step] = certs_ok.get(step, True) and lhs == rhs
    reports = []
    for claim in claims:
        h = gens[claim["name"]]
        prefix = gens.before(claim["name"])
        superset_ok = all(binomial_in_binomial_ideal(scale(h, m), prefix) for m in claim["colon"])
        violations, checked = [], 0
        for total in range(a + 1):
            for split in compositions(total, 7):
                m = Monomial(split[:3], split[3:])
                if any(divides(g, m) for g in claim["colon"]):
                    continue
                checked += 1
                if binomial_in_binomial_ideal(scale(h, m), prefix):
                    violations.append(m.text())
        reports.append(ColonClaimReport(
            claim["name"], certs_ok[claim["name"]], superset_ok, not violations, checked, tuple(violations)
        ))
    return ColonClaimsReport(a, b, tuple(reports))


def weakened_claims(drop):
    """`colon_claims` with claimed colon generators removed: the generator
    of index `drop` from every claim when `drop` is an int, else the
    indices in `drop[c]` from claim c."""
    def claims(a, b):
        full = colon_claims(a, b)
        drops = [{drop}] * len(full) if isinstance(drop, int) else drop
        return tuple(
            dict(c, colon=[g for i, g in enumerate(c["colon"]) if i not in out]) for c, out in zip(full, drops)
        )

    return claims


@pytest.mark.parametrize("a, b", [(3, 1), (5, 2), (6, 1)])
def test_colon_claims_match_the_walk_reference(a, b):
    assert verify_colon_claims(ternary_gens(a, b)) == reference_colon_claims(a, b, colon_claims(a, b))


# no shrink phase: each example runs the walk reference, so shrinking a
# failure takes minutes, while an unshrunk example is already small
@settings(max_examples=20, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    pair=st.sampled_from([(a, b) for a, b in ALL_PAIRS if a <= 6]),
    drop=st.tuples(*[st.sets(st.integers(0, 2), min_size=1)] * 3, st.sets(st.integers(0, 5), min_size=1)),
)
def test_claims_missing_generators_match_the_walk_reference(pair, drop):
    # the converse is decided on the degree-a multipliers; with any claimed
    # generators dropped, all of them included, it still reports every
    # violation the walk over all degrees <= a finds, in the walk's order
    a, b = pair
    claims = weakened_claims(drop)
    expected = reference_colon_claims(a, b, claims(a, b))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ternary, "colon_claims", claims)
        assert verify_colon_claims(ternary_gens(a, b)) == expected


def test_a_claimed_generator_with_a_rees_part_is_refused(monkeypatch):
    # the degree-a rule needs claimed generators without a Rees part
    def claims(a, b):
        first, *rest = colon_claims(a, b)
        return (dict(first, colon=first["colon"][:2] + [first["colon"][2] * Monomial((0, 0, 0), (1, 0, 0, 0))]), *rest)

    monkeypatch.setattr(ternary, "colon_claims", claims)
    with pytest.raises(ValueError, match="Rees part"):
        verify_colon_claims(ternary_gens(5, 2))


@pytest.mark.parametrize("a, b, block_rows", [
    pytest.param(a, b, rows, id=f"{a}-{b}" + (f"-rows{rows}" if rows else ""))
    for rows in (None, 7, 97) for a, b in [(5, 2), (6, 1)]
])
def test_passing_claims_test_only_the_degree_a_multipliers(monkeypatch, a, b, block_rows):
    # the claimed generators, then the multipliers of total degree exactly
    # a outside the claimed colon, in walk order, in calls of at most
    # _BLOCK_ROWS rows: one call per claim at the default size
    if block_rows is not None:
        monkeypatch.setattr(ternary, "_BLOCK_ROWS", block_rows)
    calls = []
    batched = ternary.binomials_in_binomial_ideal

    def spy(leads, trails, moves):
        calls.append((moves, leads))
        return batched(leads, trails, moves)

    monkeypatch.setattr(ternary, "binomials_in_binomial_ideal", spy)
    assert verify_colon_claims(ternary_gens(a, b)).ok
    assert all(len(leads) <= ternary._BLOCK_ROWS for _, leads in calls)
    gens = ternary_gens(a, b)
    claims = colon_claims(a, b)
    per_claim = [[leads for _, leads in group] for _, group in groupby(calls, key=lambda call: id(call[0]))]
    assert len(per_claim) == len(claims)
    if block_rows is None:
        assert all(len(leads) == 1 for leads in per_claim)
    for claim, leads in zip(claims, per_claim):
        h = gens[claim["name"]]
        rows = [tuple(r) for r in (np.concatenate(leads) - np.array(h.lead.ground + h.lead.rees)).tolist()]
        top = [
            split for split in compositions(a, 7)
            if not any(divides(g, Monomial(split[:3], split[3:])) for g in claim["colon"])
        ]
        assert rows == [g.ground + g.rees for g in claim["colon"]] + top


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3, 11) for b in range(1, (a - 1) // 2 + 1)])
def test_subset_checked_counts_the_outside_multipliers(monkeypatch, a, b):
    # count only: the closed form over the staircase against the 7-variable
    # monomials of degree <= a that no claimed generator divides; the
    # memberships are stubbed out, the walk-reference tests cover them
    monkeypatch.setattr(ternary, "binomials_in_binomial_ideal", lambda leads, trails, moves: np.zeros(len(leads), bool))
    rows = np.array([split for e in range(a + 1) for split in compositions(e, 7)])
    for claim, report in zip(colon_claims(a, b), verify_colon_claims(ternary_gens(a, b)).claims):
        colon = np.array([g.ground for g in claim["colon"]])
        inside = (rows[:, None, :3] >= colon[None]).all(axis=2).any(axis=1)
        assert report.subset_checked == int((~inside).sum()), (a, b, claim["name"])


@pytest.mark.parametrize("a, b, counts", [(5, 2, [111, 77, 259, 21]), (7, 3, None)])
def test_weakened_claim_is_refuted(monkeypatch, a, b, counts):
    # without its first generator no claimed colon holds, and the batched
    # check refutes each claim with the walk's violations, in the walk's order
    claims = weakened_claims(0)
    expected = reference_colon_claims(a, b, claims(a, b))
    monkeypatch.setattr(ternary, "colon_claims", claims)
    got = verify_colon_claims(ternary_gens(a, b))
    assert got == expected
    assert not got.ok and all(c.superset_ok and not c.subset_ok for c in got.claims)
    if counts is not None:
        assert [len(c.subset_violations) for c in got.claims] == counts


def test_colon_claims_are_the_same_in_small_blocks(monkeypatch):
    # multipliers split over several batched calls, the claimed generators
    # checked in the first only
    expected = [verify_colon_claims(ternary_gens(7, 3)), reference_colon_claims(5, 2, weakened_claims(2)(5, 2))]
    monkeypatch.setattr(ternary, "_BLOCK_ROWS", 97)
    assert verify_colon_claims(ternary_gens(7, 3)) == expected[0]
    monkeypatch.setattr(ternary, "colon_claims", weakened_claims(2))
    assert verify_colon_claims(ternary_gens(5, 2)) == expected[1]


@pytest.mark.parametrize("block_rows", [7, 64])
def test_colon_claims_over_many_blocks_match_one_block(monkeypatch, block_rows):
    # every a <= 5 fits in one block of the default size; these sizes split
    # its degree-a multipliers over 1 to 40 batched calls per claim
    pairs = [(a, b) for a, b in PAIRS_TO_8 if a <= 5]
    expected = [verify_colon_claims(ternary_gens(a, b)) for a, b in pairs]
    monkeypatch.setattr(ternary, "_BLOCK_ROWS", block_rows)
    assert [verify_colon_claims(ternary_gens(a, b)) for a, b in pairs] == expected


def _bidegrees(spec, moves):
    images = [spec.image_of(mv.lead) for mv in moves]
    return Counter((im.ground_degree(), im.rees[0]) for im in images)


@pytest.mark.parametrize("a, b", PAIRS_TO_8)
def test_bruteforce_census_matches_the_ten_generators(a, b):
    # independent route: a minimal generating set found fiber by fiber
    # within T <= 4 and ground degree <= 3a has ten moves, in the same
    # (image ground degree, T-degree) bidegrees as the construction
    spec = ternary_spec(a, b)
    found = bruteforce_min_gens(spec, 4, 3 * a)
    gens = ternary_gens(a, b).moves.moves
    assert len(found) == len(gens) == 10
    assert _bidegrees(spec, found) == _bidegrees(spec, gens)


def test_overclaimed_colon_fails_the_superset_check(monkeypatch):
    # claiming z^2 in place of z^3 in (L) : H1 at (5, 2) is false, since
    # z^2 H1 stays outside (L); the batched check says so like the walk
    def claims(a, b):
        first, *rest = colon_claims(a, b)
        z = Monomial((0, 0, 1), (0, 0, 0, 0))
        return (dict(first, colon=first["colon"][:2] + [first["colon"][2].divide(z)]), *rest)

    expected = reference_colon_claims(5, 2, claims(5, 2))
    monkeypatch.setattr(ternary, "colon_claims", claims)
    got = verify_colon_claims(ternary_gens(5, 2))
    assert got == expected
    assert not got.claims[0].superset_ok and got.claims[0].subset_ok
    assert all(c.ok for c in got.claims[1:])
