"""Length profiles, the Huckaba-Marley sum, and the syzygy indices."""

from math import gcd

import pytest

from reeslab.core import InputError
from reeslab.lengths import (
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


def test_profile_matches_formula_d21_to_40():
    # literal ideal arithmetic against the closed form on 181 instances
    # beyond the acceptance grid (d <= 20)
    pairs = [(d, b) for d, b in sweep_pairs(40) if d >= 21]
    assert len(pairs) == 181
    for d, b in pairs:
        rows = [(r.ell, r.s, r.t) for r in hm_profile(d, b).rows]
        assert rows == [(ell, *st_formula(d, b, ell)) for ell in range(1, d)], (d, b)


def test_selection_rule_agrees_with_minima():
    # selection rule: s = m if the all-positive sector is
    # nonempty else m'; t = n if the all-negative sector is nonempty else n'
    for d, b in sweep_pairs(14):
        for ell in range(1, d):
            mins = formula_minima(d, b, ell)
            s, t = st_formula(d, b, ell)
            assert s == (mins["m"] if mins["m"] is not None else mins["m_prime"])
            assert t == (mins["n"] if mins["n"] is not None else mins["n_prime"])


def test_sector_minima_coincide():
    # on all 6,311 (d, b, l) with d <= 40 the sign-change sector is never
    # empty, and the positive and negative sectors, where non-empty, have
    # the minima m' and n' of the sign-change one: the selection rule above
    # agrees with (m', n') alone
    triples = [(d, b, ell) for d, b in sweep_pairs(40) for ell in range(1, d)]
    assert len(triples) == 6311
    for d, b, ell in triples:
        mins = formula_minima(d, b, ell)
        assert mins["m_prime"] is not None and mins["n_prime"] is not None, (d, b, ell)
        assert mins["m"] in (None, mins["m_prime"]), (d, b, ell)
        assert mins["n"] in (None, mins["n_prime"]), (d, b, ell)


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


def test_power_exponents_above_the_cap_are_refused():
    # J I^(l-1) holds x^(l d): 1000 * 1001 = 1001000 exceeds the cap
    with pytest.raises(InputError, match="power exponent l \\* d = 1001000"):
        st_oracle(1001, 2, 1000)
    with pytest.raises(InputError, match="power exponent l \\* d = 1001000"):
        hm_profile(1001, 2)
    assert st_oracle(1001, 2, 1) == (999, 2)
