"""Length profiles, the Huckaba-Marley sum, and the syzygy indices."""

from math import gcd

import pytest

from reeslab.core import InputError
from reeslab.lengths import (
    ColonShapeError,
    formula_minima,
    hm_profile,
    st_formula,
    st_oracle,
)


def sweep_pairs(dmax):
    return [
        (d, b)
        for d in range(2, dmax + 1)
        for b in range(1, d // 2 + 1)
        if gcd(d, b) == 1 and b <= d - b
    ]


def test_row_one_is_colon_rule():
    for d, b in [(14, 3), (7, 3), (9, 2)]:
        assert st_formula(d, b, 1) == (d - b, b)
        assert st_oracle(d, b, 1) == (d - b, b)


def test_trivial_2_1():
    assert st_oracle(2, 1, 1) == (1, 1)
    p = hm_profile(2, 1)
    assert p.hm_sum == 1 == p.e1
    assert (p.ell0, p.ell0_prime) == (1, 1)


def test_sector_structure_7_3():
    # d = cb + 1 with c = 2: rows follow the three-sector structure
    expected = [(4, 3), (1, 3), (1, 2), (1, 2), (1, 1), (1, 1)]
    for ell, st in enumerate(expected, start=1):
        assert st_formula(7, 3, ell) == st
        assert st_oracle(7, 3, ell) == st
    p = hm_profile(7, 3)
    assert p.hm_sum == 21 == p.e1
    assert (p.ell0, p.ell0_prime) == (2, 5)
    assert p.ell0_prime >= p.d - p.ell0


def test_formula_matches_oracle_small_sweep():
    for d, b in sweep_pairs(12):
        for ell in range(1, d):
            assert st_formula(d, b, ell) == st_oracle(d, b, ell), (d, b, ell)


def test_selection_rule_agrees_with_minima():
    # selection rule: s = m if the all-positive sector is
    # nonempty else m'; t = n if the all-negative sector is nonempty else n'
    for d, b in sweep_pairs(14):
        for ell in range(1, d):
            mins = formula_minima(d, b, ell)
            s, t = st_formula(d, b, ell)
            assert s == (mins["m"] if mins["m"] is not None else mins["m_prime"])
            assert t == (mins["n"] if mins["n"] is not None else mins["n_prime"])


def test_row_two_formula():
    for d, b in sweep_pairs(13):
        if 2 * b < d and d >= 3:
            s, t = st_oracle(d, b, 2)
            assert s * t == b * (d - 2 * b), (d, b)


def test_hm_inequality_and_equality_flags():
    for d, b in sweep_pairs(12):
        p = hm_profile(d, b)
        assert p.hm_holds
        assert p.hm_equal  # observed on every tested instance; recorded, not forced


def test_monotone_sector_structure():
    for d, b in sweep_pairs(12):
        p = hm_profile(d, b)
        s_vals = [r.s for r in p.rows]
        assert all(a >= b2 for a, b2 in zip(s_vals, s_vals[1:]))
        seen_one = False
        for r in p.rows:
            if r.s == 1:
                seen_one = True
            if seen_one:
                assert r.s == 1


def test_syzygy_indices_exist_and_bound():
    for d, b in sweep_pairs(12):
        p = hm_profile(d, b)
        assert 1 <= p.ell0 <= p.ell0_prime <= d - 1
        assert p.ell0_prime >= d - p.ell0


def test_colon_two_pure_powers_everywhere():
    # st_oracle raises ColonShapeError if the colon is not (x^s, y^t)
    for d, b in sweep_pairs(10):
        for ell in range(1, d):
            s, t = st_oracle(d, b, ell)
            assert s >= 1 and t >= 1


def test_parameter_validation():
    with pytest.raises(InputError):
        st_formula(14, 4, 1)  # gcd 2
    with pytest.raises(InputError):
        st_formula(7, 4, 1)  # b > d - b
    with pytest.raises(InputError):
        st_formula(7, 3, 7)  # ell out of range
