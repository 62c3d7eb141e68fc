"""Length profile of the binary ideal I = (x^d, y^d, x^b y^(d-b)).

Each module I^l / J I^(l-1) is cyclic with annihilator a colon ideal that
collapses to two pure powers (x^{s_l}, y^{t_l}); the profile collects these
exponents, their product lengths, the Huckaba-Marley comparison against
e_1 = C(d, 2), and the linear-syzygy indices l0 (first row with a 1) and
l0' (first row equal to (1, 1)).

Two independent routes produce (s_l, t_l): one closed-form scan over the
index triangle, `formula_minima`, whose four sector minima `st_formula`
combines, and `st_oracle`, the literal ideal-arithmetic colon.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .core import InputError, MonomialIdeal, check_exponent_cap
from .toric import binary_spec


class ColonShapeError(RuntimeError):
    """A colon J I^(l-1) : I^l failed to be two pure powers; carries the
    offending generators (this would refute the closed form)."""

    def __init__(self, d: int, b: int, ell: int, gens):
        super().__init__(f"colon at (d={d}, b={b}, l={ell}) is not two pure powers: {[str(g) for g in gens]}")
        self.d, self.b, self.ell, self.gens = d, b, ell, gens


class ProfileError(RuntimeError):
    """A structural guarantee of the profile failed (missing syzygy index
    or violated lower bound)."""


def _check_params(d: int, b: int, ell: int | None = None, top_power: int | None = None) -> None:
    """Refuse bad (d, b, l).  `top_power` is the largest l for which the
    caller builds J I^(l-1), whose pure powers have exponent l * d."""
    if not (1 <= b <= d - b):
        raise InputError(f"need 1 <= b <= d - b, got ({d}, {b})")
    if gcd(d, b) != 1:
        raise InputError(f"gcd({d}, {b}) != 1")
    if ell is not None and not 1 <= ell <= d - 1:
        raise InputError(f"need 1 <= l <= d - 1, got {ell}")
    if top_power is not None:
        check_exponent_cap(top_power * d, "power exponent l * d =")


def formula_minima(d: int, b: int, ell: int) -> dict:
    """The four sector minima m, m', n', n of the triangle i + j <= l - 1.

    The colon generators are x^v for v = alpha*d - (l-j)*b > 0 and y^(-v)
    for v < 0, with alpha running over i and i + 1.  The cell (i, j) lies
    in the positive sector when both of its v are positive (m is their
    least), in the negative sector when both are negative (n is the least
    -v), and otherwise in the sign-change sector (m' the least positive v,
    n' the least -v).  A zero v raises ProfileError.  No ideal arithmetic
    is involved.

    On every (d, b, l) with d <= 40 the sign-change sector is non-empty,
    m = m' wherever m exists and n = n' wherever n does
    (`test_sector_minima_coincide`), so `test_selection_rule_agrees_with_minima`
    cannot tell the selection rule of `st_formula` from (m', n') alone.
    """
    _check_params(d, b, ell)
    m = mp = np_ = n = None

    def take(cur, v):
        return v if cur is None or v < cur else cur

    for i in range(ell):
        for j in range(ell - i):
            lo = i * d - (ell - j) * b
            hi = (i + 1) * d - (ell - j) * b
            if lo == 0 or hi == 0:
                raise ProfileError(f"zero colon exponent at (d={d}, b={b}, l={ell})")
            if lo > 0:  # both positive
                m = take(m, lo)
            elif hi > 0:  # sign change
                mp = take(mp, hi)
                np_ = take(np_, -lo)
            else:  # both negative
                n = take(n, -hi)
    return {"m": m, "m_prime": mp, "n_prime": np_, "n": n}


def st_formula(d: int, b: int, ell: int) -> tuple[int, int]:
    """(s_l, t_l) = (min(m, m'), min(n', n)) over the sector minima of
    `formula_minima`, the two minimal colon exponent magnitudes.  The cell
    i = l - 1, j = 0 has a positive v and the cell i = j = 0 a negative
    one, so both minima exist."""
    mins = formula_minima(d, b, ell)

    def least(*values):
        return min(v for v in values if v is not None)

    return least(mins["m"], mins["m_prime"]), least(mins["n_prime"], mins["n"])


def _pure_power_split(colon: MonomialIdeal, d: int, b: int, ell: int) -> tuple[int, int]:
    gens = colon.gens
    if len(gens) != 2:
        raise ColonShapeError(d, b, ell, gens)
    s = t = None
    for g in gens:
        gx, gy = g.ground
        if gx > 0 and gy == 0:
            s = gx
        elif gy > 0 and gx == 0:
            t = gy
    if s is None or t is None:
        raise ColonShapeError(d, b, ell, gens)
    return s, t


def st_oracle(d: int, b: int, ell: int) -> tuple[int, int]:
    """(s_l, t_l) by literal ideal arithmetic: build J I^(l-1), colon out
    x^(b l) y^((d-b) l), and read off the two pure powers."""
    _check_params(d, b, ell, top_power=ell)
    spec = binary_spec(d, b)
    power = next(itertools.islice(spec.powers(), ell - 1, None))
    return _pure_power_split(spec.colon(ell, power), d, b, ell)


@dataclass(frozen=True)
class LengthRow:
    ell: int
    s: int
    t: int

    @property
    def lam(self) -> int:
        return self.s * self.t


@dataclass(frozen=True)
class LengthProfile:
    d: int
    b: int
    rows: tuple[LengthRow, ...]
    ell0: int
    ell0_prime: int

    @property
    def hm_sum(self) -> int:
        return sum(r.lam for r in self.rows)

    @property
    def e1(self) -> int:
        return self.d * (self.d - 1) // 2

    @property
    def hm_holds(self) -> bool:
        return self.hm_sum <= self.e1

    @property
    def hm_equal(self) -> bool:
        return self.hm_sum == self.e1

    @property
    def equidistant(self) -> bool:
        """Whether l0' = d - l0 (the open question; reported, never asserted)."""
        return self.ell0_prime == self.d - self.ell0


def hm_profile(d: int, b: int) -> LengthProfile:
    """Full length profile for l = 1 .. d-1 via the colon oracle, with the
    syzygy indices checked to exist and satisfy l0' >= d - l0."""
    _check_params(d, b, top_power=d - 1)
    rows = []
    for ell, colon in zip(range(1, d), binary_spec(d, b).colons()):
        s, t = _pure_power_split(colon, d, b, ell)
        rows.append(LengthRow(ell, s, t))
    ell0 = next((r.ell for r in rows if r.s == 1 or r.t == 1), None)
    ell0p = next((r.ell for r in rows if r.s == 1 and r.t == 1), None)
    if ell0 is None or ell0p is None:
        raise ProfileError(f"missing syzygy index for (d={d}, b={b}): rows={rows}")
    if ell0p < d - ell0:
        raise ProfileError(f"l0' = {ell0p} < d - l0 = {d - ell0} for (d={d}, b={b})")
    return LengthProfile(d, b, tuple(rows), ell0, ell0p)
