"""Reduction numbers: feasibility search, uniform closed forms, Q facts."""

import pytest

from reeslab.core import EXPONENT_CAP, InputError
from reeslab.reduction import (
    AciSpec,
    is_monomial_reduction,
    red_search_general,
    red_uniform,
    verify_q_reduction,
)


def test_binary_reduction_number():
    res = is_monomial_reduction(AciSpec((14, 14), (3, 11)))
    assert res.r == 13
    assert sum(res.witness) == 14


def test_trivial_square():
    assert is_monomial_reduction(AciSpec((2, 2), (1, 1))).r == 1


def test_uniform_monomial_case():
    res = is_monomial_reduction(AciSpec((5, 5, 5), (2, 2, 2)))
    assert res.r == 2
    assert red_uniform(3, 5, 2).kind == "monomial"
    assert red_uniform(3, 5, 2).red == 2


def test_uniform_binomial_case():
    u = red_uniform(3, 7, 2)
    assert u.kind == "binomial"
    assert u.red == 2
    assert len(u.q_generators) == 3
    # J certificate absent: sum b/a < 1
    assert is_monomial_reduction(AciSpec((7, 7, 7), (2, 2, 2))).undecided


def test_trivial_binary_uniform():
    assert red_uniform(2, 2, 1).red == 1
    assert red_uniform(2, 2, 1).kind == "monomial"


def test_undecided_below_threshold():
    # sum b_i / a_i < 1 never certifies, at any cap
    for cap in (8, 30, 80):
        assert is_monomial_reduction(AciSpec((4, 4), (1, 1)), cap).undecided
        assert is_monomial_reduction(AciSpec((4, 4), (1, 1)), cap).sum_below_one


def test_sum_exactly_one_is_not_below_one():
    # 1/2 + 1/3 + 1/6 = 1, though in floating point the sum falls below 1
    spec = AciSpec((2, 3, 6), (1, 1, 1))
    short = is_monomial_reduction(spec, 4)
    assert short.undecided and not short.sum_below_one
    assert is_monomial_reduction(spec).r == 5


def test_search_cross_validation():
    for a, b in [((14, 14), (3, 11)), ((5, 5, 5), (2, 2, 2)), ((4, 4), (1, 1)), ((6, 5, 7), (2, 3, 1))]:
        spec = AciSpec(a, b)
        assert red_search_general(spec).r == is_monomial_reduction(spec).r


def test_uniform_closed_form_vs_search():
    for n in (2, 3, 4):
        for a in range(2, 13):
            for b in range(1, a):
                if n * b < a:
                    assert is_monomial_reduction(AciSpec((a,) * n, (b,) * n)).undecided
                    continue
                u = red_uniform(n, a, b)
                s = red_search_general(AciSpec((a,) * n, (b,) * n))
                assert u.red == s.r, (n, a, b)


def test_verify_q_reduction():
    for a, b in [(4, 1), (5, 1), (7, 2)]:
        rep = verify_q_reduction(3, a, b)
        assert rep.power_contained
        assert rep.witness_excluded
        assert rep.states_explored > 0


def test_verify_q_rejects_monomial_case():
    with pytest.raises(InputError):
        verify_q_reduction(3, 3, 1)  # boundary n b = a


def test_aci_spec_validation():
    with pytest.raises(InputError):
        AciSpec((4, 4), (4, 1))
    with pytest.raises(InputError):
        AciSpec((4, 4), (1, 0))
    with pytest.raises(InputError):
        AciSpec((4,), (1,))
    with pytest.raises(InputError):
        AciSpec((EXPONENT_CAP + 1, 4), (1, 1))


def test_binary_reduction_sweep_small():
    from math import gcd

    for d in range(2, 13):
        for b in range(1, d):
            if gcd(d, b) == 1:
                assert is_monomial_reduction(AciSpec((d, d), (b, d - b))).r == d - 1


def test_reparametrization_preserves_reduction():
    from reeslab.binary import reparametrize

    for d, b in [(6, 2), (10, 4), (9, 3), (12, 8)]:
        r = reparametrize((d, d), (b, d - b))
        big = is_monomial_reduction(AciSpec((d, d), (b, d - b))).r
        small = is_monomial_reduction(AciSpec(r.a_reduced, r.b_reduced)).r
        assert big == small
