"""Reduction numbers of monomial almost complete intersections.

For I = (x_1^{a_1}, ..., x_n^{a_n}, x^b) with J the pure-power subideal,
red_J(I) = r iff x^{(r+1)b} lies in J^{r+1}, which is a pure feasibility
question on exponents.  When J is not a reduction (uniform case nb < a),
the binomial reduction Q takes over and its two defining membership facts
are checked by congruence walks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import AciSpec, Binomial, InputError, MonomialIdeal  # AciSpec is re-exported here
from .toric import compositions, monomial_in_mixed_ideal


class ReductionInconsistency(RuntimeError):
    """The two reduction-number searches disagree; implementation bug."""


@dataclass(frozen=True)
class ReductionNumber:
    """Outcome of a reduction-number search up to r_cap."""

    r: Optional[int]
    witness: Optional[tuple[int, ...]]  # s-vector with sum r+1, s_i a_i <= (r+1) b_i
    r_cap: int

    @property
    def undecided(self) -> bool:
        return self.r is None


def is_monomial_reduction(spec: AciSpec, r_cap: int | None = None) -> ReductionNumber:
    """Least r <= r_cap with x^{(r+1)b} in J^{r+1}, else undecided.

    Feasibility for fixed r is sum_i floor((r+1) b_i / a_i) >= r + 1; the
    witness s-vector is rebuilt greedily.  Support >= 2 is automatic since
    each s_i <= r.
    """
    if r_cap is None:
        r_cap = spec.default_r_cap()
    if r_cap < 1:
        raise InputError("r_cap must be >= 1")
    for r in range(1, r_cap + 1):
        caps = [((r + 1) * bi) // ai for ai, bi in zip(spec.a, spec.b)]
        if sum(caps) >= r + 1:
            witness = []
            remaining = r + 1
            for c in caps:
                s = min(c, remaining)
                witness.append(s)
                remaining -= s
            assert remaining == 0 and sum(1 for s in witness if s) >= 2
            return ReductionNumber(r, tuple(witness), r_cap)
    return ReductionNumber(None, None, r_cap)


def red_search_general(spec: AciSpec, r_cap: int | None = None) -> ReductionNumber:
    """Independent search: least r such that some t >= 2 indices carry
    positive s_i with sum r+1 and (r+1) b_i >= s_i a_i.  Cross-validated
    against is_monomial_reduction; disagreement is a hard failure.
    """
    if r_cap is None:
        r_cap = spec.default_r_cap()
    quick = is_monomial_reduction(spec, r_cap)
    found: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None
    bound = quick.r if quick.r is not None else r_cap
    for r in range(1, bound + 1):
        for s in compositions(r + 1, spec.n):
            if sum(1 for si in s if si) < 2:
                continue
            if all(si == 0 or (r + 1) * bi >= si * ai for si, ai, bi in zip(s, spec.a, spec.b)):
                found, witness = r, s
                break
        if found is not None:
            break
    if found != quick.r:
        raise ReductionInconsistency(f"search found {found}, feasibility test found {quick.r}")
    return ReductionNumber(found, witness, r_cap)


@dataclass(frozen=True)
class UniformReduction:
    """Reduction data for I = (x_1^a, ..., x_n^a, (x_1...x_n)^b)."""

    n: int
    a: int
    b: int
    kind: str  # "monomial" (J works) or "binomial" (Q takes over)
    red: int

    @property
    def q_generators(self) -> tuple[str, ...]:
        if self.kind != "binomial":
            return ()
        names = [f"x{i + 1}" for i in range(self.n)]
        diffs = tuple(f"{names[i]}^{self.a} - {names[-1]}^{self.a}" for i in range(self.n - 1))
        return diffs + ("(" + "".join(names) + f")^{self.b}",)


def red_uniform(n: int, a: int, b: int) -> UniformReduction:
    """Closed-form reduction number in the uniform case: J with red = p - 1
    (p least with p b >= a) when n b >= a, otherwise Q with red = n - 1."""
    if not 0 < b < a:
        raise InputError(f"need 0 < b < a, got ({a}, {b})")
    if n < 2:
        raise InputError("need n >= 2")
    if n * b >= a:
        p = -(-a // b)  # least p with p*b >= a
        return UniformReduction(n, a, b, "monomial", p - 1)
    return UniformReduction(n, a, b, "binomial", n - 1)


@dataclass(frozen=True)
class QReductionReport:
    n: int
    a: int
    b: int
    power_contained: bool        # every minimal generator of I^n lies in Q I^(n-1)
    witness_excluded: bool       # x_n^{(n-1)a} is not in Q I^(n-2)
    generators_checked: int
    states_explored: int


def _q_times(spec: AciSpec, power: MonomialIdeal):
    """Generators of Q * power, split into pure differences and monomials."""
    *others, xn = spec.pure_powers
    diffs = [Binomial(xi * g, xn * g) for g in power.gens for xi in others]
    monos = [spec.mixed * g for g in power.gens]
    return diffs, monos


def verify_q_reduction(n: int, a: int, b: int, cap: int = 10**6) -> QReductionReport:
    """Confirm the two membership facts behind the binomial reduction Q:
    I^n is inside Q I^(n-1) and x_n^{(n-1)a} stays outside Q I^(n-2).
    Requires n b < a (otherwise the monomial reduction applies)."""
    if n * b >= a:
        raise InputError(f"n*b = {n * b} >= a = {a}: monomial reduction case, Q check not applicable")
    if n < 3:
        raise InputError("need n >= 3 for the Q-reduction facts")
    spec = AciSpec((a,) * n, (b,) * n)
    powers = list(itertools.islice(spec.powers(), n + 1))  # I^0 .. I^n
    explored = 0

    diffs, monos = _q_times(spec, powers[n - 1])
    contained = True
    checked = 0
    for m in powers[n].gens:
        res = monomial_in_mixed_ideal(m, diffs, monos, cap)
        explored += res.explored
        checked += 1
        if not res:
            contained = False
            break

    diffs2, monos2 = _q_times(spec, powers[n - 2])
    target = spec.pure_powers[-1].power(n - 1)
    res2 = monomial_in_mixed_ideal(target, diffs2, monos2, cap)
    explored += res2.explored
    return QReductionReport(n, a, b, contained, not res2.member, checked, explored)
