"""Ternary uniform generators, type classification, colon claims."""

import pytest

from reeslab.core import InputError, Monomial, parse_binomial, poly_identity_check
from reeslab.ternary import (
    certificate_identities,
    classify_type,
    enumerate_kernel_binomials,
    implicit_three_ways,
    ternary_generation_check,
    ternary_gens,
    ternary_length_profile,
    verify_colon_claims,
)
from reeslab.toric import MoveSet, binomial_in_binomial_ideal


def pb3(text):
    return parse_binomial(text, 3, 4)


ALL_PAIRS = [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (7, 2), (7, 3)]


def test_gens_closed_forms_5_2():
    g = ternary_gens(5, 2)
    assert g.h1 == pb3("x*y*w^2 - z^4*t*u")
    assert g.h2 == pb3("x*z*w^2 - y^4*t*v")
    assert g.h3 == pb3("y*z*w^2 - x^4*u*v")
    assert g.implicit == pb3("w^3 - x*y*z*t*u*v")
    assert g.regime == "E"
    assert g.g1 == pb3("x^3*w - y^2*z^2*t")
    assert g.f1 == pb3("x^5*u - y^5*t")


def test_gens_eprime_regime():
    g = ternary_gens(7, 2)
    assert g.implicit == pb3("x*y*z*w^3 - t*u*v")
    assert g.regime == "E'"


def test_boundary_a_equals_3b():
    g = ternary_gens(6, 2)
    assert g.implicit == pb3("w^3 - t*u*v")
    assert g.regime == "E"
    # the a > 3b formula degenerates to the same binomial at a = 3b
    assert all(x == g.implicit for x in implicit_three_ways(g))


def test_gens_rejects_gate():
    with pytest.raises(InputError):
        ternary_gens(4, 2)


def test_implicit_three_ways_agree():
    for a, b in ALL_PAIRS:
        ways = set(implicit_three_ways(ternary_gens(a, b)))
        assert len(ways) == 1


def test_all_gens_in_kernel():
    for a, b in ALL_PAIRS:
        g = ternary_gens(a, b)
        spec = g.spec()
        for bi in g.all():
            assert spec.image_of(bi.lead) == spec.image_of(bi.trail)


def test_classify_type():
    g = ternary_gens(5, 2)
    assert classify_type(g.implicit) == 1  # w^3 alone on the w-side
    assert classify_type(g.h1) == 3
    assert classify_type(g.g1) == 2
    assert classify_type(g.f1) is None  # no w: an L-element, not conforming
    assert classify_type(ternary_gens(7, 2).implicit) == 4
    # common factor disqualifies
    scaled = g.h1.scale(Monomial((1, 0, 0), (0, 0, 0, 0)))
    assert classify_type(scaled) is None


def test_enumeration_recovers_generators():
    for a, b in [(5, 2), (7, 2), (4, 1)]:
        g = ternary_gens(a, b)
        found = set(enumerate_kernel_binomials(a, b))
        assert {g.g1, g.g2, g.g3, g.h1, g.h2, g.h3, g.implicit} <= found
        # everything else found is already in (L)
        l_moves = MoveSet(g.spec(), g.syzygies())
        extras = found - {g.h1, g.h2, g.h3, g.implicit}
        for bi in extras:
            assert binomial_in_binomial_ideal(bi, l_moves), (a, b, str(bi))


def test_enumeration_types_at_5_2():
    by_type = {}
    for bi in enumerate_kernel_binomials(5, 2):
        by_type.setdefault(classify_type(bi), []).append(bi)
    g = ternary_gens(5, 2)
    assert set(by_type[3]) == {g.h1, g.h2, g.h3}
    assert by_type[1] == [g.implicit]


def test_delta_four_diagnostic():
    # every new binomial at w-degree 4 reduces into the delta <= 3 set
    for a, b in [(5, 2), (7, 2), (6, 2), (4, 1)]:
        g = ternary_gens(a, b)
        moves = g.move_set()
        three = set(enumerate_kernel_binomials(a, b, 3))
        four = set(enumerate_kernel_binomials(a, b, 4)) - three
        for bi in four:
            assert binomial_in_binomial_ideal(bi, moves), (a, b, str(bi))


def test_certificates_all_pairs():
    for a, b in ALL_PAIRS:
        for step, label, lhs, rhs in certificate_identities(a, b):
            assert poly_identity_check(lhs, rhs), (a, b, step, label)


def test_colon_claims_small():
    rep = verify_colon_claims(5, 2)
    assert rep.ok
    names = [c.name for c in rep.claims]
    assert names == ["H1", "H2", "H3", "E"]
    for c in rep.claims:
        assert c.subset_checked > 0
        assert c.subset_violations == ()


def test_colon_h1_subset_witness():
    # z^2 is outside (x^2, y^2, z^3) and z^2 H1 stays outside (L) at (5, 2)
    g = ternary_gens(5, 2)
    l_moves = MoveSet(g.spec(), g.syzygies())
    z2 = Monomial((0, 0, 2), (0, 0, 0, 0))
    assert not binomial_in_binomial_ideal(g.h1.scale(z2), l_moves)
    # while the claimed generator z^{a-b} = z^3 multiplies in
    z3 = Monomial((0, 0, 3), (0, 0, 0, 0))
    assert binomial_in_binomial_ideal(g.h1.scale(z3), l_moves)


def test_generation_check_with_removals():
    for a, b in [(5, 2), (7, 2), (4, 1)]:
        rep = ternary_generation_check(a, b)
        assert rep.passed, (a, b)
        assert rep.redundant == (), (a, b)


def test_exploratory_lengths():
    rows = ternary_length_profile(5, 2)
    # reduction number is 2, so exactly two nonzero rows
    assert [r.ell for r in rows] == [1, 2]
    assert all(r.lam > 0 for r in rows)


def test_reduction_number_is_two_for_all_pairs():
    from reeslab.reduction import red_uniform

    for a, b in ALL_PAIRS:
        assert red_uniform(3, a, b).red == 2, (a, b)
