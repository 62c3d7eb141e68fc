"""Generators and colon certificates for I = (x^a, y^a, z^a, (xyz)^b), a > 2b.

The six syzygy binomials L, three Sylvester forms H1, H2, H3 on the pivots
(x^b, y^b), (x^b, z^b), (y^b, z^b), and a final cube relation E (3b >= a)
or E' (a > 3b) generate the Rees ideal.  The colon claims behind the
mapping-cone argument are checked three ways: exact Cramer-style
polynomial identities, congruence-walk memberships for the claimed colon
generators, and a bounded-degree scan showing nothing smaller multiplies in.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import AciSpec, Binomial, InputError, Monomial, Polynomial, check_exponent_cap, poly_identity_check
from .binary import sylvester_det
from .toric import (
    GenerationReport,
    MoveSet,
    ReesMapSpec,
    binomial_in_binomial_ideal,
    compositions,
    generates_up_to,
    ternary_spec,
)


def _m(gx=0, gy=0, gz=0, t=0, u=0, v=0, w=0) -> Monomial:
    return Monomial((gx, gy, gz), (t, u, v, w))


def _poly(*terms: tuple[int, Monomial]) -> Polynomial:
    return Polynomial(terms)


@dataclass(frozen=True)
class TernaryGenSet:
    """The ten generators, with the regime flag for the cube relation."""

    a: int
    b: int
    f1: Binomial
    f2: Binomial
    f3: Binomial
    g1: Binomial
    g2: Binomial
    g3: Binomial
    h1: Binomial
    h2: Binomial
    h3: Binomial
    implicit: Binomial
    regime: str  # "E" when 3b >= a, "E'" when a > 3b

    def labelled(self) -> tuple[tuple[str, Binomial], ...]:
        return (
            ("f1", self.f1), ("f2", self.f2), ("f3", self.f3),
            ("g1", self.g1), ("g2", self.g2), ("g3", self.g3),
            ("H1", self.h1), ("H2", self.h2), ("H3", self.h3),
            (self.regime, self.implicit),
        )

    def all(self) -> tuple[Binomial, ...]:
        return tuple(b for _, b in self.labelled())

    def syzygies(self) -> tuple[Binomial, ...]:
        return (self.f1, self.f2, self.f3, self.g1, self.g2, self.g3)

    def spec(self) -> ReesMapSpec:
        return ternary_spec(self.a, self.b)

    def move_set(self) -> MoveSet:
        return MoveSet(self.spec(), self.all())


def _check_ab(a: int, b: int) -> None:
    if not (a > 2 * b >= 2):
        raise InputError(f"need a > 2b >= 2, got ({a}, {b})")
    check_exponent_cap(a)


def implicit_pivots(a: int, b: int) -> tuple[tuple[Monomial, Monomial], ...]:
    """The three regime-dependent pivots producing the cube relation from
    (g1, H3), (g2, H2), (g3, H1) respectively."""
    if 3 * b >= a:
        return (
            (_m(gx=a - b), _m(gy=a - 2 * b, gz=a - 2 * b)),
            (_m(gy=a - b), _m(gx=a - 2 * b, gz=a - 2 * b)),
            (_m(gz=a - b), _m(gx=a - 2 * b, gy=a - 2 * b)),
        )
    return (
        (_m(gx=2 * b), _m(gy=b, gz=b)),
        (_m(gy=2 * b), _m(gx=b, gz=b)),
        (_m(gz=2 * b), _m(gx=b, gy=b)),
    )


def ternary_gens(a: int, b: int) -> TernaryGenSet:
    """Build the full generator set; the H's and the cube relation are
    produced by sylvester_det on the pivots from the construction."""
    _check_ab(a, b)
    f1 = Binomial(_m(gx=a, u=1), _m(gy=a, t=1))
    f2 = Binomial(_m(gx=a, v=1), _m(gz=a, t=1))
    f3 = Binomial(_m(gy=a, v=1), _m(gz=a, u=1))
    g1 = Binomial(_m(gx=a - b, w=1), _m(gy=b, gz=b, t=1))
    g2 = Binomial(_m(gy=a - b, w=1), _m(gx=b, gz=b, u=1))
    g3 = Binomial(_m(gz=a - b, w=1), _m(gx=b, gy=b, v=1))
    h1 = sylvester_det(g1, g2, (_m(gx=b), _m(gy=b)))
    h2 = sylvester_det(g1, g3, (_m(gx=b), _m(gz=b)))
    h3 = sylvester_det(g2, g3, (_m(gy=b), _m(gz=b)))
    implicit = sylvester_det(g1, h3, implicit_pivots(a, b)[0])
    regime = "E" if 3 * b >= a else "E'"
    return TernaryGenSet(a, b, f1, f2, f3, g1, g2, g3, h1, h2, h3, implicit, regime)


def implicit_three_ways(gens: TernaryGenSet) -> tuple[Binomial, Binomial, Binomial]:
    """The cube relation from each of the three pair/pivot choices; all
    three must coincide."""
    p1, p2, p3 = implicit_pivots(gens.a, gens.b)
    return (
        sylvester_det(gens.g1, gens.h3, p1),
        sylvester_det(gens.g2, gens.h2, p2),
        sylvester_det(gens.g3, gens.h1, p3),
    )


def classify_type(bin_: Binomial) -> Optional[int]:
    """Type 1-4 by the number of ground variables sharing the w-side, or
    None for non-conforming shapes (no w, w on both sides, common factor,
    or t/u/v mixed into the w-side)."""
    if bin_.ambient != (3, 4):
        raise ValueError(f"expected the ternary ambient (3, 4), got {bin_.ambient}")
    if not bin_.is_coprime():
        return None
    lead_w, trail_w = bin_.lead.rees[3], bin_.trail.rees[3]
    if (lead_w > 0) == (trail_w > 0):
        return None
    wside = bin_.lead if lead_w > 0 else bin_.trail
    if any(wside.rees[:3]):
        return None
    return 1 + sum(1 for e in wside.ground if e > 0)


def enumerate_kernel_binomials(a: int, b: int, delta_max: int = 3) -> tuple[Binomial, ...]:
    """All coprime kernel binomials with w-degree 1 <= delta <= delta_max
    and every ground exponent < a, by exhausting the per-type exponent
    equations: with alpha the (t, u, v) degrees, each coordinate forces
    beta from alpha_c * a - delta * b."""
    _check_ab(a, b)
    spec = ternary_spec(a, b)
    out = []
    for delta in range(1, delta_max + 1):
        for alpha in compositions(delta, 3):
            wside = [0, 0, 0]
            other = [0, 0, 0]
            for c in range(3):
                vc = alpha[c] * a - delta * b
                if vc >= 0:
                    wside[c] = vc
                else:
                    other[c] = -vc
            if any(e >= a for e in wside) or any(e >= a for e in other):
                continue
            lead = Monomial(tuple(wside), (0, 0, 0, delta))
            trail = Monomial(tuple(other), alpha + (0,))
            bin_ = Binomial(lead, trail)
            assert spec.in_kernel(bin_)
            out.append(bin_)
    return tuple(sorted(out, key=lambda bb: (bb.lead.rees[3] + bb.trail.rees[3], bb.lead.sort_key())))


# -- colon claims ------------------------------------------------------------

def _oriented_polys(a: int, b: int) -> dict[str, Polynomial]:
    """The generators as polynomials in the construction orientation the
    certificate identities need (they are sign-sensitive)."""
    e3 = 3 * b - a
    polys = {
        "f1": _poly((1, _m(gx=a, u=1)), (-1, _m(gy=a, t=1))),
        "f2": _poly((1, _m(gx=a, v=1)), (-1, _m(gz=a, t=1))),
        "f3": _poly((1, _m(gy=a, v=1)), (-1, _m(gz=a, u=1))),
        "g1": _poly((1, _m(gx=a - b, w=1)), (-1, _m(gy=b, gz=b, t=1))),
        "g2": _poly((1, _m(gy=a - b, w=1)), (-1, _m(gx=b, gz=b, u=1))),
        "g3": _poly((1, _m(gz=a - b, w=1)), (-1, _m(gx=b, gy=b, v=1))),
        "H1": _poly((1, _m(gx=a - 2 * b, gy=a - 2 * b, w=2)), (-1, _m(gz=2 * b, t=1, u=1))),
        "H2": _poly((1, _m(gx=a - 2 * b, gz=a - 2 * b, w=2)), (-1, _m(gy=2 * b, t=1, v=1))),
        "H3": _poly((1, _m(gy=a - 2 * b, gz=a - 2 * b, w=2)), (-1, _m(gx=2 * b, u=1, v=1))),
    }
    if e3 >= 0:
        polys["E"] = _poly((1, _m(w=3)), (-1, _m(gx=e3, gy=e3, gz=e3, t=1, u=1, v=1)))
    else:
        polys["E'"] = _poly((1, _m(gx=-e3, gy=-e3, gz=-e3, w=3)), (-1, _m(t=1, u=1, v=1)))
    return polys


def certificate_identities(a: int, b: int) -> tuple[tuple[str, str, Polynomial, Polynomial], ...]:
    """Every claimed colon generator paired with its exact identity in the
    prefix ideal: (step, label, lhs, rhs) with lhs = generator * step."""
    _check_ab(a, b)
    P = _oriented_polys(a, b)
    f1, f3 = P["f1"], P["f3"]
    g1, g2, g3 = P["g1"], P["g2"], P["g3"]
    H1, H2, H3 = P["H1"], P["H2"], P["H3"]
    ids = [
        ("H1", "z^(a-b)*H1", H1 * _m(gz=a - b),
         g3 * _m(gx=a - 2 * b, gy=a - 2 * b, w=1) + g1 * _m(gy=a - b, v=1) + f3 * _m(gz=b, t=1)),
        ("H1", "x^b*H1", H1 * _m(gx=b),
         g1 * _m(gy=a - 2 * b, w=1) + g2 * _m(gz=b, t=1)),
        ("H1", "y^b*H1", H1 * _m(gy=b),
         g1 * _m(gz=b, u=1) + g2 * _m(gx=a - 2 * b, w=1)),
        ("H2", "y^(a-2b)*H2", H2 * _m(gy=a - 2 * b),
         H1 * _m(gz=a - 2 * b) - f3 * _m(t=1)),
        ("H2", "x^b*H2", H2 * _m(gx=b),
         g1 * _m(gz=a - 2 * b, w=1) + g3 * _m(gy=b, t=1)),
        ("H2", "z^b*H2", H2 * _m(gz=b),
         g1 * _m(gy=b, v=1) + g3 * _m(gx=a - 2 * b, w=1)),
        ("H3", "x^(a-2b)*H3", H3 * _m(gx=a - 2 * b),
         H2 * _m(gy=a - 2 * b) - f1 * _m(v=1)),
        ("H3", "y^b*H3", H3 * _m(gy=b),
         g2 * _m(gz=a - 2 * b, w=1) + g3 * _m(gx=b, u=1)),
        ("H3", "z^b*H3", H3 * _m(gz=b),
         g2 * _m(gx=b, v=1) + g3 * _m(gy=a - 2 * b, w=1)),
    ]
    if 3 * b >= a:
        E = P["E"]
        e3 = 3 * b - a
        ids += [
            ("E", "x^(a-b)*E", E * _m(gx=a - b),
             g1 * _m(w=2) + H3 * _m(gy=e3, gz=e3, t=1)),
            ("E", "(yz)^(a-2b)*E", E * _m(gy=a - 2 * b, gz=a - 2 * b),
             g1 * _m(gx=e3, u=1, v=1) + H3 * _m(w=1)),
            ("E", "y^(a-b)*E", E * _m(gy=a - b),
             g2 * _m(w=2) + H2 * _m(gx=e3, gz=e3, u=1)),
            ("E", "(xz)^(a-2b)*E", E * _m(gx=a - 2 * b, gz=a - 2 * b),
             g2 * _m(gy=e3, t=1, v=1) + H2 * _m(w=1)),
            ("E", "z^(a-b)*E", E * _m(gz=a - b),
             g3 * _m(w=2) + H1 * _m(gx=e3, gy=e3, v=1)),
            ("E", "(xy)^(a-2b)*E", E * _m(gx=a - 2 * b, gy=a - 2 * b),
             g3 * _m(gz=e3, t=1, u=1) + H1 * _m(w=1)),
        ]
    else:
        Ep = P["E'"]
        e3 = a - 3 * b
        ids += [
            ("E'", "x^(2b)*E'", Ep * _m(gx=2 * b),
             g1 * _m(gy=e3, gz=e3, w=2) + H3 * _m(t=1)),
            ("E'", "(yz)^b*E'", Ep * _m(gy=b, gz=b),
             g1 * _m(u=1, v=1) + H3 * _m(gx=e3, w=1)),
            ("E'", "y^(2b)*E'", Ep * _m(gy=2 * b),
             g2 * _m(gx=e3, gz=e3, w=2) + H2 * _m(u=1)),
            ("E'", "(xz)^b*E'", Ep * _m(gx=b, gz=b),
             g2 * _m(t=1, v=1) + H2 * _m(gy=e3, w=1)),
            ("E'", "z^(2b)*E'", Ep * _m(gz=2 * b),
             g3 * _m(gx=e3, gy=e3, w=2) + H1 * _m(v=1)),
            ("E'", "(xy)^b*E'", Ep * _m(gx=b, gy=b),
             g3 * _m(t=1, u=1) + H1 * _m(gz=e3, w=1)),
        ]
    return tuple(ids)


def colon_claims(a: int, b: int) -> tuple[dict, ...]:
    """The four colon steps of the construction: for each new generator,
    the prefix ideal it is coloned against and the claimed colon ideal."""
    _check_ab(a, b)
    last_name = "E" if 3 * b >= a else "E'"
    last_gens = (
        [_m(gx=a - b), _m(gy=a - b), _m(gz=a - b),
         _m(gx=a - 2 * b, gy=a - 2 * b), _m(gx=a - 2 * b, gz=a - 2 * b), _m(gy=a - 2 * b, gz=a - 2 * b)]
        if 3 * b >= a
        else [_m(gx=2 * b), _m(gy=2 * b), _m(gz=2 * b),
              _m(gx=b, gy=b), _m(gx=b, gz=b), _m(gy=b, gz=b)]
    )
    return (
        {"name": "H1", "h": "H1", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3"),
         "colon": [_m(gx=b), _m(gy=b), _m(gz=a - b)]},
        {"name": "H2", "h": "H2", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3", "H1"),
         "colon": [_m(gx=b), _m(gy=a - 2 * b), _m(gz=b)]},
        {"name": "H3", "h": "H3", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3", "H1", "H2"),
         "colon": [_m(gx=a - 2 * b), _m(gy=b), _m(gz=b)]},
        {"name": last_name, "h": "implicit", "prefix": ("f1", "f2", "f3", "g1", "g2", "g3", "H1", "H2", "H3"),
         "colon": last_gens},
    )


@dataclass(frozen=True)
class ColonClaimReport:
    name: str
    certificates_ok: bool
    superset_ok: bool
    subset_ok: bool
    subset_checked: int
    subset_violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.certificates_ok and self.superset_ok and self.subset_ok


@dataclass(frozen=True)
class ColonClaimsReport:
    a: int
    b: int
    claims: tuple[ColonClaimReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)


def _monomials_up_to(degree: int):
    """All (3, 4)-ambient monomials of total degree <= degree."""
    for total in range(degree + 1):
        for split in compositions(total, 7):
            yield Monomial(split[:3], split[3:])


def verify_colon_claims(a: int, b: int) -> ColonClaimsReport:
    """Check every colon claim: exact certificates, oracle membership of
    each claimed generator, and the bounded-degree converse (monomials of
    total degree <= a outside the claimed colon never multiply H into the
    prefix)."""
    gens = ternary_gens(a, b)
    spec = gens.spec()
    by_label = dict(gens.labelled())
    by_label["implicit"] = gens.implicit
    certs = certificate_identities(a, b)
    cert_ok_by_step: dict[str, bool] = {}
    for step, _, lhs, rhs in certs:
        ok = poly_identity_check(lhs, rhs)
        cert_ok_by_step[step] = cert_ok_by_step.get(step, True) and ok

    reports = []
    for claim in colon_claims(a, b):
        h = by_label[claim["h"]]
        prefix = MoveSet(spec, tuple(by_label[p] for p in claim["prefix"]))
        colon_gens = claim["colon"]
        superset_ok = all(
            binomial_in_binomial_ideal(h.scale(m), prefix) for m in colon_gens
        )
        violations = []
        checked = 0
        for m in _monomials_up_to(a):
            if any(g.divides(m) for g in colon_gens):
                continue
            checked += 1
            if binomial_in_binomial_ideal(h.scale(m), prefix):
                violations.append(m.text())
        reports.append(ColonClaimReport(
            claim["name"],
            cert_ok_by_step[claim["name"]],
            superset_ok,
            not violations,
            checked,
            tuple(violations),
        ))
    return ColonClaimsReport(a, b, tuple(reports))


# -- generation --------------------------------------------------------------

@dataclass(frozen=True)
class TernaryGenerationReport:
    a: int
    b: int
    generation: GenerationReport
    redundant: tuple[str, ...]  # labels removable without losing generation

    @property
    def passed(self) -> bool:
        return self.generation.passed


def ternary_generation_check(a: int, b: int, t_bound: int = 4) -> TernaryGenerationReport:
    """Full fiber sweep (ground degree <= 3a) for the ten generators plus
    per-generator removal probes.  A removable generator is reported, not
    asserted away."""
    gens = ternary_gens(a, b)
    moves = gens.move_set()
    report = generates_up_to(gens.spec(), moves, t_bound, 3 * a)
    redundant = []
    for idx, (lbl, bin_) in enumerate(gens.labelled()):
        if binomial_in_binomial_ideal(bin_, moves.without(idx)):
            redundant.append(lbl)
    return TernaryGenerationReport(a, b, report, tuple(redundant))


# -- exploratory lengths -----------------------------------------------------

@dataclass(frozen=True)
class TernaryLengthRow:
    ell: int
    lam: int


def ternary_length_profile(a: int, b: int) -> tuple[TernaryLengthRow, ...]:
    """Exploratory: lambda(I^l / J I^(l-1)) by staircase counts for
    l <= 3a, until the first zero (J is a reduction when 3b >= a, so the
    tail then vanishes).  No closed form is asserted here."""
    _check_ab(a, b)
    rows = []
    for ell, colon in zip(range(1, 3 * a + 1), AciSpec((a,) * 3, (b,) * 3).colons()):
        lam = 0 if colon.is_unit_ideal() else colon.colength()
        if lam == 0:
            break
        rows.append(TernaryLengthRow(ell, lam))
    return tuple(rows)
