"""Generators of the Rees ideal of I = (x^d, y^d, x^b y^(d-b)) by iterated
Sylvester forms.

The Euclidean algorithm on (d, b) drives everything: its quotients c_k and
the continuant sequence e_k = c_k e_{k-1} + e_{k-2} fix the bidegrees of
the generators F_{k,i} (k odd) and G_{k,i} (k even), and the full set Sigma
is assembled cycle by cycle, each new binomial the 2x2 content determinant
of the previous cycle's last form against the preceding entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import AciSpec, Binomial, InputError, Monomial, check_exponent_cap
from .toric import MoveSet, binary_spec


class SylvesterError(ValueError):
    """Content matrix not constructible under the assignment rule."""


class IntegralityError(RuntimeError):
    """A p/q exponent failed integrality or its bound; implementation bug."""


@dataclass(frozen=True)
class EuclidData:
    """Remainders, quotients and continuants of the Euclid run on (d, b).

    Indexing follows d_{-1} = d, d_0 = b, d_{k-2} = c_k d_{k-1} + d_k; the
    positive remainders stop at d_{s+1} = 1 and there are s+2 quotients.
    Continuants run e_{-1} = 0, e_0 = 1, e_k = c_k e_{k-1} + e_{k-2}.
    """

    d: int
    b: int
    quotients: tuple[int, ...]
    remainders: tuple[int, ...]
    continuants: tuple[int, ...]

    @property
    def steps(self) -> int:
        """s + 2, the number of Euclid steps / Sylvester cycles."""
        return len(self.quotients)

    def dk(self, k: int) -> int:
        if not -1 <= k <= self.steps:
            raise IndexError(f"d_{k} undefined")
        return (self.d, self.b, *self.remainders, 0)[k + 1]

    def ck(self, k: int) -> int:
        if not 1 <= k <= self.steps:
            raise IndexError(f"c_{k} undefined")
        return self.quotients[k - 1]

    def ek(self, k: int) -> int:
        if not -1 <= k <= self.steps:
            raise IndexError(f"e_{k} undefined")
        return self.continuants[k + 1]


def euclid_sequence(d: int, b: int) -> EuclidData:
    """Full Euclid data for d > b >= 1 with gcd(d, b) = 1.

    For b = 1 the run degenerates to the single division d = d * 1; callers
    with gcd > 1 must reparametrize first.
    """
    if b <= 0:
        raise InputError(f"b must be positive, got {b}")
    if b >= d:
        raise InputError(f"need d > b, got ({d}, {b})")
    if gcd(d, b) != 1:
        raise InputError(f"gcd({d}, {b}) != 1; reparametrize first")
    check_exponent_cap(d)
    quotients: list[int] = []
    remainders: list[int] = []
    prev, cur = d, b
    while cur > 0:
        q, r = divmod(prev, cur)
        quotients.append(q)
        if r > 0:
            remainders.append(r)
        prev, cur = cur, r
    cont = [0, 1]
    for q in quotients:
        cont.append(q * cont[-1] + cont[-2])
    return EuclidData(d, b, tuple(quotients), tuple(remainders), tuple(cont))


def pk_qk(ed: EuclidData, k: int, i: int) -> int:
    """The Rees-variable split exponent p_{k,i} (k odd) or q_{k,i} (k even).

    Defined as (d_{k-2} - i d_{k-1} + b (i e_{k-1} + e_{k-2})) / d for odd k
    and with d - b in place of b for even k; integrality and the bound
    value <= i e_{k-1} + e_{k-2} are enforced, failure being a bug.
    """
    if not (1 <= k <= ed.steps and 1 <= i <= ed.ck(k)):
        raise IndexError(f"(k, i) = ({k}, {i}) out of range")
    tdeg = i * ed.ek(k - 1) + ed.ek(k - 2)
    weight = ed.b if k % 2 == 1 else ed.d - ed.b
    numerator = ed.dk(k - 2) - i * ed.dk(k - 1) + weight * tdeg
    value, rem = divmod(numerator, ed.d)
    if rem != 0:
        raise IntegralityError(f"{numerator} not divisible by {ed.d} at (k, i) = ({k}, {i})")
    if not 0 <= value <= tdeg:
        raise IntegralityError(f"exponent {value} outside [0, {tdeg}] at (k, i) = ({k}, {i})")
    return value


def _mono(gx: int, gy: int, t: int = 0, u: int = 0, v: int = 0) -> Monomial:
    return Monomial((gx, gy), (t, u, v))


def make_generator(ed: EuclidData, k: int, i: int) -> Binomial:
    """The binomial F_{k,i} (k odd) or G_{k,i} (k even); (0, 0) gives the
    syzygy G_{0,0} = y^b v - x^b u.  Canonically oriented."""
    if (k, i) == (0, 0):
        return Binomial(_mono(0, ed.b, v=1), _mono(ed.b, 0, u=1))
    ground = ed.dk(k - 2) - i * ed.dk(k - 1)
    tdeg = i * ed.ek(k - 1) + ed.ek(k - 2)
    split = pk_qk(ed, k, i)
    if k % 2 == 1:
        # F: x^ground v^tdeg - y^ground t^p u^(tdeg - p)
        return Binomial(_mono(ground, 0, v=tdeg), _mono(0, ground, t=split, u=tdeg - split))
    # G: y^ground v^tdeg - x^ground t^(tdeg - q) u^q
    return Binomial(_mono(0, ground, v=tdeg), _mono(ground, 0, t=tdeg - split, u=split))


def _content_row(h: Binomial, pivot: tuple[Monomial, Monomial]):
    """Row (c1, c2) with h = c1 * A + c2 * B, entries signed monomials.

    Tries the direct assignment (lead/A, -trail/B) first, then the swapped
    one; the deterministic rule reproduces every matrix in scope.
    """
    A, B = pivot
    qa, qb = h.lead.divide(A), h.trail.divide(B)
    if qa is not None and qb is not None:
        return (1, qa), (-1, qb)
    qa, qb = h.trail.divide(A), h.lead.divide(B)
    if qa is not None and qb is not None:
        return (-1, qa), (1, qb)
    raise SylvesterError(f"{h} has no content row for pivot ({A}, {B})")


def sylvester_det(f: Binomial, g: Binomial, pivot: tuple[Monomial, Monomial]) -> Binomial:
    """Sylvester form of (f, g) with respect to the pivot pair: the
    determinant of the 2x2 content matrix, as a canonically oriented
    binomial.  The pivot entries must be coprime non-unit ground monomials.
    """
    A, B = pivot
    for p in (A, B):
        if not p.is_ground() or p.is_unit():
            raise SylvesterError(f"pivot entry {p} must be a non-unit ground monomial")
    if not A.gcd(B).is_unit():
        raise SylvesterError(f"pivot ({A}, {B}) is not a regular pair")
    (s1, c1), (s2, c2) = _content_row(f, pivot)
    (t1, d1), (t2, d2) = _content_row(g, pivot)
    lead_sign = s1 * t2
    trail_sign = -(s2 * t1)
    m_main, m_anti = c1 * d2, c2 * d1
    if lead_sign == trail_sign:
        raise SylvesterError("determinant is not a pure difference")
    if m_main == m_anti:
        raise SylvesterError("zero Sylvester determinant")
    return Binomial(m_main, m_anti) if lead_sign > 0 else Binomial(m_anti, m_main)


@dataclass(frozen=True)
class SigmaEntry:
    binomial: Binomial
    origin: str  # "syzygy" | "sylvester" | "implicit"
    k: int
    i: int
    predecessors: Optional[tuple[int, int]] = None  # indices into SigmaSet.entries
    pivot: Optional[tuple[Monomial, Monomial]] = None


@dataclass(frozen=True)
class SigmaSet:
    """The complete generator set of the binary Rees ideal, with provenance;
    `moves` holds the binomials of `entries` as a `MoveSet`, checked when
    `sigma_set` built it."""

    d: int
    b: int
    euclid: EuclidData
    entries: tuple[SigmaEntry, ...]
    moves: MoveSet

    def binomials(self) -> tuple[Binomial, ...]:
        return self.moves.moves

    def count_formula(self) -> int:
        return 1 + sum(self.euclid.quotients)

    def __len__(self):
        return len(self.entries)


def sigma_set(d: int, b: int) -> SigmaSet:
    """Assemble Sigma for (d, b): the two syzygies plus one Sylvester form
    per Euclid quotient step, built by the parity-alternating iteration and
    cross-checked against the closed F/G formulas.  `euclid_sequence`, then
    `binary_spec` (the image cap), refuse (d, b) before any form is built."""
    ed = euclid_sequence(d, b)
    spec = binary_spec(d, b)
    entries: list[SigmaEntry] = [SigmaEntry(make_generator(ed, 0, 0), "syzygy", 0, 0)]
    cycle_last = [0]  # entry index of the last element of each finished cycle

    def pivot_for(cycle: int) -> tuple[Monomial, Monomial]:
        e = ed.dk(cycle - 1)
        return (_mono(e, 0), _mono(0, e))

    for j in range(1, ed.steps + 1):
        cj = ed.ck(j)
        for i in range(1, cj + 1):
            if j == 1 and i == 1:
                entries.append(SigmaEntry(make_generator(ed, 1, 1), "syzygy", 1, 1))
                continue
            if i == 1:
                preds = (cycle_last[j - 2], cycle_last[j - 1])
            else:
                preds = (cycle_last[j - 1], len(entries) - 1)
            piv = pivot_for(j)
            det = sylvester_det(entries[preds[0]].binomial, entries[preds[1]].binomial, piv)
            expected = make_generator(ed, j, i)
            if det != expected:
                raise IntegralityError(
                    f"Sylvester iteration disagrees with the closed formula at (k, i) = ({j}, {i})"
                )
            origin = "implicit" if (j == ed.steps and i == cj) else "sylvester"
            entries.append(SigmaEntry(det, origin, j, i, preds, piv))
        cycle_last.append(len(entries) - 1)
    moves = MoveSet(spec, tuple(e.binomial for e in entries))
    sigma = SigmaSet(d, b, ed, tuple(entries), moves)
    assert len(sigma) == sigma.count_formula()
    return sigma


@dataclass(frozen=True)
class Reparametrization:
    """Per-variable gcd reduction of ACI exponent data, with the
    substitution x_i -> x_i^{delta_i} transporting the reduced Rees ideal
    back to the original one."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    a_reduced: tuple[int, ...]
    b_reduced: tuple[int, ...]
    delta: tuple[int, ...]


def reparametrize(a: Sequence[int], b: Sequence[int]) -> Reparametrization:
    spec = AciSpec(tuple(a), tuple(b))
    a, b = spec.a, spec.b
    delta = tuple(gcd(ai, bi) if bi else 1 for ai, bi in zip(a, b))
    a_red = tuple(ai // c for ai, c in zip(a, delta))
    b_red = tuple(bi // c for bi, c in zip(b, delta))
    return Reparametrization(a, b, a_red, b_red, delta)


def transport(binomial: Binomial, delta: Sequence[int]) -> Binomial:
    """Apply x_i -> x_i^{delta_i} to both sides (Rees variables fixed)."""

    def sub(m: Monomial) -> Monomial:
        return Monomial(tuple(e * c for e, c in zip(m.ground, delta)), m.rees)

    return Binomial(sub(binomial.lead), sub(binomial.trail))
