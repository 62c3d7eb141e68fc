"""Core arithmetic: monomials, binomials, monomial ideals."""

import itertools
import random

import pytest

from reeslab.core import (
    EXPONENT_CAP,
    AmbientMismatch,
    InputError,
    Binomial,
    InfiniteColength,
    Monomial,
    MonomialIdeal,
    ground_monomial,
)
from monomial_text import contains, divides, ideal, parse_binomial, parse_monomial


def m2(gx, gy):
    return Monomial((gx, gy))


def test_mono_mul():
    assert m2(2, 0) * m2(0, 3) == m2(2, 3)
    assert m2(3, 11) * m2(0, 0) == m2(3, 11)
    a = Monomial((1, 0), (1, 0, 0))
    b = Monomial((0, 1), (0, 1, 0))
    assert a * b == Monomial((1, 1), (1, 1, 0))


def test_mono_mul_dimension_mismatch():
    with pytest.raises(AmbientMismatch):
        m2(1, 0) * Monomial((1, 0, 0))


def test_mono_divide():
    assert m2(14, 0).divide(m2(3, 0)) == m2(11, 0)
    assert m2(3, 0).divide(m2(0, 1)) is None
    assert m2(3, 11).divide(m2(3, 11)) == m2(0, 0)


def test_exponent_guard():
    # an exponent above the cap is the caller's parameter out of range
    with pytest.raises(InputError, match=f"exponent 1000001 exceeds the supported cap {EXPONENT_CAP}"):
        Monomial((10**6 + 1, 0))
    with pytest.raises(InputError):
        Monomial((0, 0), (0, EXPONENT_CAP + 1))
    Monomial((EXPONENT_CAP, 0), (EXPONENT_CAP,))


def test_negative_exponent_is_not_an_input_error():
    # no parameter reaches a negative exponent, so one is a bug
    for ground, rees in (((-1, 0), ()), ((0, 0), (0, -1))):
        with pytest.raises(ValueError, match="negative exponent -1") as exc:
            Monomial(ground, rees)
        assert not isinstance(exc.value, InputError)


def test_candidate_rows_above_the_cap_are_refused():
    # every candidate row is checked, not only the minimal ones
    with pytest.raises(InputError, match=f"exponent 1200000 exceeds the supported cap {EXPONENT_CAP}"):
        ideal("x^600000", nvars=1).power(2)
    # x^1000001*y^5*z^5 is over the cap but divisible by y*z
    a = MonomialIdeal([Monomial((600000, 0, 5)), Monomial((0, 1, 0))], 3)
    b = MonomialIdeal([Monomial((400001, 5, 0)), Monomial((0, 0, 1))], 3)
    with pytest.raises(ValueError, match="exponent 1000001 exceeds the supported cap"):
        a.product(b)
    # the square of x^600000*y*z is over the cap but divisible by y^2*z^2
    c = MonomialIdeal([Monomial((600000, 1, 1)), Monomial((0, 2, 0)), Monomial((0, 0, 2))], 3)
    with pytest.raises(ValueError, match="exponent 1200000 exceeds the supported cap"):
        c.power(2)
    assert c.product(MonomialIdeal([Monomial((400000, 0, 0))], 3)).gens[0] == Monomial((1000000, 1, 1))


def test_ideal_colon():
    assert ideal("x^2", "y^2").colon(parse_monomial("x*y", 2)) == ideal("x", "y")
    # (x^14, y^14) : x^3 y^11 = (x^11, y^3): apply g/gcd(g, m) per generator
    assert ideal("x^14", "y^14").colon(parse_monomial("x^3*y^11", 2)) == ideal("x^11", "y^3")
    assert ideal("x^2", "y^2", "x*y").colon(parse_monomial("x*y", 2)) == ideal("1", nvars=2)


def test_ideal_product_and_power():
    sq = ideal("x^2", "y^2", "x*y").power(2)
    assert sq == ideal("x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4")
    i = ideal("x^2", "y^2", "x*y")
    assert i.power(1) == i
    assert ideal("x", nvars=2).product(ideal("y", nvars=2)) == ideal("x*y")


def test_power_product_compatibility():
    rng = random.Random(7)
    for _ in range(8):
        n = rng.choice((2, 3))
        gens = [
            ground_monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            for _ in range(rng.randint(2, 4))
        ]
        gens = [g for g in gens if not g.is_unit()]
        if not gens:
            continue
        ideal_i = MonomialIdeal(gens, n)
        for r in range(4):
            assert ideal_i.power(r + 1) == ideal_i.power(r).product(ideal_i)


def test_product_matches_brute_minimalization():
    # independent route: all pairwise products, then divisibility filtering
    i = ideal("x^2", "y^2", "x*y")
    prods = [a * b for a in i.gens for b in i.gens]
    brute = [
        p for p in set(prods)
        if not any(q != p and divides(q, p) for q in set(prods))
    ]
    assert sorted(brute, key=Monomial.sort_key) == sorted(i.power(2).gens, key=Monomial.sort_key)


def test_ideal_contains():
    i = ideal("x^2", "y^2")
    assert contains(i, m2(3, 0))
    assert not contains(i, m2(1, 1))
    assert not contains(ideal("x^3", "y^3"), m2(2, 2))


def test_colon_adjunction_property():
    # q in (I : m)  iff  q*m in I, on random small instances
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice((2, 3))
        gens = [ground_monomial(tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(3)]
        gens = [g for g in gens if not g.is_unit()] or [ground_monomial((1,) * n)]
        ideal_i = MonomialIdeal(gens, n)
        m = ground_monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        q = ground_monomial(tuple(rng.randint(0, 3) for _ in range(n)))
        assert contains(ideal_i.colon(m), q) == contains(ideal_i, q * m)


def _colength_inclusion_exclusion(ideal_i: MonomialIdeal) -> int:
    # independent oracle: inclusion-exclusion over generator subsets inside
    # the pure-power bounding box
    bounds = []
    for i in range(ideal_i.nvars):
        pure = [g.ground[i] for g in ideal_i.gens if all(e == 0 for j, e in enumerate(g.ground) if j != i)]
        bounds.append(min(pure))
    total = 0
    gens = ideal_i.gens
    for r in range(len(gens) + 1):
        for subset in itertools.combinations(gens, r):
            lcm = [0] * ideal_i.nvars
            for g in subset:
                lcm = [max(a, e) for a, e in zip(lcm, g.ground)]
            box = 1
            for bound, l in zip(bounds, lcm):
                box *= max(0, bound - l)
            total += (-1) ** r * box
    return total


def test_colength_examples():
    assert ideal("x^4", "y^5").colength() == 20  # rectangle staircase
    assert ideal("x^11", "y^3").colength() == 33
    assert ideal("x", "y", "z").colength() == 1
    # one slab of x at a time: the box is never built whole
    assert ideal("x^3000", "y^3000", "z^3000", "x*y*z").colength() == 3000**3 - 2999**3


def test_colength_matches_inclusion_exclusion():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice((2, 3))
        gens = [ground_monomial(tuple(rng.randint(0, 5) for _ in range(n))) for _ in range(2)]
        gens += [ground_monomial(tuple(5 if j == i else 0 for j in range(n))) for i in range(n)]
        gens = [g for g in gens if not g.is_unit()]
        ideal_i = MonomialIdeal(gens, n)
        assert ideal_i.colength() == _colength_inclusion_exclusion(ideal_i)


def test_colength_infinite():
    with pytest.raises(InfiniteColength):
        ideal("x^2", "x*y").colength()


def test_binomial_normalization():
    a, b = m2(2, 0), m2(0, 2)
    assert Binomial(a, b) == Binomial(b, a)
    assert Binomial(a, b).lead == a  # x^2 > y^2 in the x > y order
    with pytest.raises(ValueError):
        Binomial(a, a)


def test_binomial_orientation_rees_first():
    # w > t > u > v > x > y > z; for three Rees variables t > u > v > x > y
    f = parse_binomial("x^11*v - y^11*t", 2, 3)
    assert f.lead == parse_monomial("y^11*t", 2, 3)
    g_21 = parse_binomial("y*v^5 - x*t*u^4", 2, 3)
    assert g_21.lead == parse_monomial("x*t*u^4", 2, 3)
    imp = parse_binomial("v^14 - t^3*u^11", 2, 3)
    assert imp.lead == parse_monomial("t^3*u^11", 2, 3)


def test_monomial_text_format():
    assert parse_monomial("y^11*t", 2, 3).text() == "y^11*t"
    assert Monomial((0, 0), (0, 0, 0)).text() == "1"
    assert Monomial((1, 2), (0, 1, 0)).text() == "x*y^2*u"
    assert Monomial((3, 0), (4,)).text(rnames=("T",)) == "x^3*T^4"  # an image of the Rees map
    b = parse_binomial("y^11*t - x^11*v", 2, 3)
    assert b.text() == "y^11*t - x^11*v"


def test_minimalization_is_eager_and_sorted():
    i = MonomialIdeal([m2(2, 0), m2(2, 1), m2(0, 1)], 2)
    assert i.gens == (m2(2, 0), m2(0, 1))
    j = MonomialIdeal([m2(0, 1), m2(2, 0)], 2)
    assert i == j
