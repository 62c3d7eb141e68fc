"""Euclid data, Sylvester forms and the Sigma construction."""

import random
from math import gcd

import pytest

from reeslab.binary import (
    SylvesterError,
    euclid_sequence,
    make_generator,
    pk_qk,
    reparametrize,
    sigma_set,
    sylvester_det,
    transport,
)
from monomial_text import parse_binomial, parse_monomial, scale
from reeslab.core import EXPONENT_CAP, InputError
from reeslab.toric import binary_spec, bruteforce_min_gens


def pm(text):
    return parse_monomial(text, 2, 3)


def pb(text):
    return parse_binomial(text, 2, 3)


def test_euclid_14_3():
    ed = euclid_sequence(14, 3)
    assert ed.remainders == (2, 1)
    assert ed.quotients == (4, 1, 2)
    assert ed.continuants == (0, 1, 4, 5, 14)
    assert ed.ek(ed.steps) == 14  # e_{s+2} = d for gcd 1


def test_euclid_2_1():
    ed = euclid_sequence(2, 1)
    assert ed.quotients == (2,)
    assert ed.continuants == (0, 1, 2)
    assert ed.remainders == ()


def test_euclid_7_3():
    ed = euclid_sequence(7, 3)
    assert ed.remainders == (1,)
    assert ed.quotients == (2, 3)
    assert ed.continuants == (0, 1, 2, 7)


def test_euclid_rejects_bad_input():
    with pytest.raises(InputError):
        euclid_sequence(3, 3)
    with pytest.raises(InputError):
        euclid_sequence(3, 0)
    with pytest.raises(InputError):
        euclid_sequence(14, 4)  # gcd 2
    euclid_sequence(EXPONENT_CAP, 3)
    with pytest.raises(InputError):
        euclid_sequence(EXPONENT_CAP + 1, 3)


def test_euclid_indices_are_refused_just_outside_each_range():
    ed = euclid_sequence(14, 3)  # steps 3: d_{-1..3}, c_{1..3}, e_{-1..3}
    assert [ed.dk(k) for k in range(-1, 4)] == [14, 3, 2, 1, 0]
    assert [ed.ck(k) for k in range(1, 4)] == [4, 1, 2]
    assert [ed.ek(k) for k in range(-1, 4)] == [0, 1, 4, 5, 14]
    for read, first in ((ed.dk, -1), (ed.ck, 1), (ed.ek, -1)):
        for k in (first - 1, ed.steps + 1):
            with pytest.raises(IndexError):
                read(k)


def test_pk_qk_values():
    ed = euclid_sequence(14, 3)
    assert pk_qk(ed, 1, 1) == 1  # O = 14 - 3 + 3*1 = 14
    assert pk_qk(ed, 2, 1) == 4  # E = 3 - 2 + 11*5 = 56
    assert pk_qk(ed, 3, 2) == 3  # O = 0 + 3*14 = 42
    with pytest.raises(IndexError):
        pk_qk(ed, 4, 1)
    with pytest.raises(IndexError):
        pk_qk(ed, 1, 5)


def test_integrality_sweep():
    for d in range(2, 31):
        for b in range(1, d):
            if gcd(d, b) != 1:
                continue
            ed = euclid_sequence(d, b)
            assert ed.ek(ed.steps) == d
            for k in range(1, ed.steps + 1):
                for i in range(1, ed.ck(k) + 1):
                    val = pk_qk(ed, k, i)  # raises on non-integrality
                    assert 0 <= val <= i * ed.ek(k - 1) + ed.ek(k - 2)


def test_make_generator_examples():
    ed = euclid_sequence(14, 3)
    assert make_generator(ed, 1, 1) == pb("x^11*v - y^11*t")
    assert make_generator(ed, 2, 1) == pb("y*v^5 - x*t*u^4")
    assert make_generator(ed, 3, 2) == pb("t^3*u^11 - v^14")
    assert make_generator(ed, 0, 0) == pb("y^3*v - x^3*u")


def test_sylvester_det_first_form():
    # det of (F, G) w.r.t. (x^b, y^b) is x^(d-2b) v^2 - y^(d-2b) t u, d=7, b=3
    d, b = 7, 3
    f = pb(f"x^{d-b}*v - y^{d-b}*t")
    g = pb(f"y^{b}*v - x^{b}*u")
    det = sylvester_det(f, g, (pm(f"x^{b}"), pm(f"y^{b}")))
    assert det == pb("x*v^2 - y*t*u")


def test_sylvester_det_contract_violation():
    f = pb("x^4*v - y^4*t")
    g = pb("y^3*v - x^3*u")
    with pytest.raises(SylvesterError):
        sylvester_det(f, g, (pm("x^5"), pm("y^5")))  # 5 > all x-exponents
    with pytest.raises(SylvesterError):
        sylvester_det(f, g, (pm("x^2*y"), pm("y^2")))  # pivot not coprime


def test_sigma_14_3_matches_golden_list():
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
    sigma = sigma_set(14, 3)
    assert set(sigma.binomials()) == {pb(t) for t in golden}
    assert len(sigma) == 8 == sigma.count_formula()


def test_sigma_2_1():
    sigma = sigma_set(2, 1)
    assert set(sigma.binomials()) == {pb("y*v - x*u"), pb("x*v - y*t"), pb("v^2 - t*u")}
    assert len(sigma) == 3 == 1 + 2


def test_sigma_7_2_size():
    sigma = sigma_set(7, 2)
    assert len(sigma) == 1 + 3 + 2
    assert len(bruteforce_min_gens(binary_spec(7, 2), 8, 21)) == 6


def test_sigma_rejects_gcd():
    with pytest.raises(InputError):
        sigma_set(4, 2)
    with pytest.raises(InputError):
        sigma_set(1, 1)


def test_sigma_origins_and_pivots():
    sigma = sigma_set(14, 3)
    origins = [e.origin for e in sigma.entries]
    assert origins[0] == origins[1] == "syzygy"
    assert origins[-1] == "implicit"
    assert all(o == "sylvester" for o in origins[2:-1])
    # worked example: G_{2,1} pairs the last top-line form with G_{0,0}, pivot (x^2, y^2)
    g21 = next(e for e in sigma.entries if (e.k, e.i) == (2, 1))
    assert g21.pivot == (pm("x^2"), pm("y^2"))
    a, b = g21.predecessors
    assert {(sigma.entries[a].k, sigma.entries[a].i), (sigma.entries[b].k, sigma.entries[b].i)} == {(0, 0), (1, 4)}
    # F_{3,1} pairs G_{2,1} and F_{1,4} with pivot (x, y)
    f31 = next(e for e in sigma.entries if (e.k, e.i) == (3, 1))
    assert f31.pivot == (pm("x"), pm("y"))


def test_sigma_iterativity_via_provenance():
    # recompute every Sylvester entry from its recorded predecessors
    for d, b in [(14, 3), (7, 2), (7, 3), (11, 4), (12, 11)]:
        sigma = sigma_set(d, b)
        for e in sigma.entries:
            if e.predecessors is None:
                continue
            a, bidx = e.predecessors
            det = sylvester_det(sigma.entries[a].binomial, sigma.entries[bidx].binomial, e.pivot)
            assert det == e.binomial, (d, b, e.k, e.i)


def test_sigma_kernel_membership():
    for d, b in [(5, 2), (9, 4), (13, 6)]:
        sigma = sigma_set(d, b)
        spec = binary_spec(d, b)
        for bi in sigma.binomials():
            assert spec.image_of(bi.lead) == spec.image_of(bi.trail)


def test_implicit_equation_shape():
    # the last entry, the one of origin "implicit"
    for d, b in [(2, 1), (7, 2), (14, 3), (9, 4)]:
        sigma = sigma_set(d, b)
        implicit = sigma.entries[-1].binomial
        assert [e.origin for e in sigma.entries].index("implicit") == len(sigma) - 1
        assert implicit == pb(f"v^{d} - t^{b}*u^{d-b}")
        ground_free = [bi for bi in sigma.binomials() if bi.lead.ground_degree() == 0 and bi.trail.ground_degree() == 0]
        assert ground_free == [implicit]


def test_b_equals_one_degenerate_cycle():
    sigma = sigma_set(5, 1)
    assert sigma.euclid.quotients == (5,)
    assert len(sigma) == 6
    assert sigma.entries[-1].binomial == pb("v^5 - t*u^4")
    assert len(bruteforce_min_gens(binary_spec(5, 1), 6, 15)) == 6


def telescopic(sigma, k):
    """The prefix T(k) of Sigma: G_{0,0} plus all cycles up to k."""
    return sigma.moves.prefix(1 + sum(sigma.euclid.quotients[:k]))


def test_telescopic_subideals():
    # Sigma lists G_{0,0}, then cycle k's c_k entries for k = 1, 2, ...,
    # so T(k) is a prefix of it
    for d, b in [(14, 3), (7, 2)]:
        sigma = sigma_set(d, b)
        cycles = [k for k, c in enumerate(sigma.euclid.quotients, start=1) for _ in range(c)]
        assert [e.k for e in sigma.entries] == [0] + cycles
        assert tuple(telescopic(sigma, 0)) == (sigma.entries[0].binomial,)
        assert len(telescopic(sigma, 1)) == 1 + sigma.euclid.ck(1)
        assert tuple(telescopic(sigma, sigma.euclid.steps)) == sigma.binomials()


def test_telescopic_colon_claim_regression():
    # T(k) : G_{k+1,1} contains (x^{d_k}, y^{d_k}): the scaled binomials
    # must land inside the prefix ideal (membership via the oracle)
    from reeslab.toric import binomial_in_binomial_ideal

    d, b = 14, 3
    sigma = sigma_set(d, b)
    ed = sigma.euclid
    t1 = telescopic(sigma, 1)
    g21 = next(e.binomial for e in sigma.entries if (e.k, e.i) == (2, 1))
    d1 = ed.dk(1)
    assert binomial_in_binomial_ideal(scale(g21, pm(f"x^{d1}")), t1)
    assert binomial_in_binomial_ideal(scale(g21, pm(f"y^{d1}")), t1)
    assert not binomial_in_binomial_ideal(g21, t1)


def test_reparametrize_examples():
    r = reparametrize((4, 6), (2, 3))
    assert (r.a_reduced, r.b_reduced, r.delta) == ((2, 2), (1, 1), (2, 3))
    r = reparametrize((14, 14), (3, 11))
    assert (r.a_reduced, r.b_reduced, r.delta) == ((14, 14), (3, 11), (1, 1))
    r = reparametrize((9, 6), (3, 4))
    assert (r.a_reduced, r.b_reduced) == ((3, 3), (1, 2))
    with pytest.raises(InputError):
        reparametrize((4, 4), (4, 1))
    with pytest.raises(InputError):
        reparametrize((4, 4), (1, 0))


def test_transport_produces_kernel_elements():
    rng = random.Random(2)
    for _ in range(20):
        d_red = rng.randint(2, 9)
        b_red = rng.choice([b for b in range(1, d_red) if gcd(d_red, b) == 1])
        factor = rng.randint(2, 4)
        d, b = d_red * factor, b_red * factor
        r = reparametrize((d, d), (b, d - b))
        assert (r.a_reduced, r.b_reduced) == ((d_red, d_red), (b_red, d_red - b_red))
        sigma = sigma_set(d_red, b_red)
        spec = binary_spec(d, b)
        moved = [transport(bi, r.delta) for bi in sigma.binomials()]
        assert len(moved) == len(sigma)
        for orig, new in zip(sigma.binomials(), moved):
            assert spec.image_of(new.lead) == spec.image_of(new.trail)
            assert new.lead.rees_degree() == orig.lead.rees_degree()
