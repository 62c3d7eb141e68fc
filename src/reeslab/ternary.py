"""Generators and colon certificates for I = (x^a, y^a, z^a, (xyz)^b), a > 2b.

The six syzygy binomials L, three Sylvester forms H1, H2, H3 on the pivots
(x^b, y^b), (x^b, z^b), (y^b, z^b), and a final cube relation E (3b >= a)
or E' (a > 3b) generate the Rees ideal.  The colon claims behind the
mapping-cone argument are checked three ways: exact Cramer-style
identities, each expanded on both sides and compared term by term, oracle
memberships for the claimed colon generators, and a bounded-degree scan
showing nothing smaller multiplies in.  The memberships of both checks are
decided by fiber components.

`ternary_gens` is the one source of the generators.  It builds the ten
binomials into one `MoveSet`, so their kernel membership is checked when
the set is built, and every reader (the report, the generation sweep, the
memberships and the certificate identities) names a generator by its
label: `gens["H1"]`, or `gens.before("H1")` for the generators listed
before it.  `toric.ternary_spec` alone refuses a <= 2b.
`_certificate_table` is the one source of the colon claims: each claimed
colon generator is written once there, with its identity, and
`colon_claims` reads the claims off it.

Two cross-checks run apart from the colon claims.  `ternary_gens` builds
the cube relation from all three of its pivot pairs and raises unless
they agree.  `enumeration_check` exhausts the coprime kernel binomials of
w-degree <= 3 with ground exponents below a, and finds the Sylvester
forms and the cube relation among them and every other one in (L).  On
all 380 pairs with a <= 40 those bounds admit exactly g1, g2, g3, H1, H2,
H3 and the cube relation, so the (L) half only re-finds g1, g2 and g3,
which are moves of (L) themselves: the check shows that the four
generators after (L) are found, and nothing more.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    Binomial,
    Monomial,
    check_exponent_cap,
    divisibility_mask,
)
from .binary import sylvester_det
from .toric import (
    GenerationReport,
    MoveSet,
    binomial_in_binomial_ideal,
    binomials_in_binomial_ideal,
    compositions,
    generates_up_to,
    ternary_spec,
)


def _m(gx=0, gy=0, gz=0, t=0, u=0, v=0, w=0) -> Monomial:
    return Monomial((gx, gy, gz), (t, u, v, w))


def regime_of(a: int, b: int) -> str:
    """The label of the cube relation: "E" when 3b >= a, "E'" when a > 3b."""
    return "E" if 3 * b >= a else "E'"


def _labels(a: int, b: int) -> tuple[str, ...]:
    """The labels of the ten generators, in `ternary_gens` order."""
    return ("f1", "f2", "f3", "g1", "g2", "g3", "H1", "H2", "H3", regime_of(a, b))


@dataclass(frozen=True)
class TernaryGenSet:
    """The ten generators as one `MoveSet`, checked when built, in `_labels`
    order; `gens["H1"]` reads one by label.  The cube relation is E or E'
    by `regime_of`; the label of the other regime raises KeyError."""

    a: int
    b: int
    moves: MoveSet

    @property
    def regime(self) -> str:
        return regime_of(self.a, self.b)

    def index(self, label: str) -> int:
        labels = _labels(self.a, self.b)
        if label not in labels:
            raise KeyError(label)
        return labels.index(label)

    def __getitem__(self, label: str) -> Binomial:
        return self.moves.moves[self.index(label)]

    def labelled(self) -> tuple[tuple[str, Binomial], ...]:
        return tuple(zip(_labels(self.a, self.b), self.moves))

    def before(self, label: str) -> MoveSet:
        """The generators listed before `label`: the prefix ideal of its
        colon claim, or (L), the six syzygies, before "H1"."""
        return self.moves.prefix(self.index(label))


def _cube_exponents(a: int, b: int) -> tuple[int, int, int]:
    """(q, s, r) with q = max(3b - a, 0), s = 2b - q and r = b - q: the
    exponents of the cube relation's pivots and claimed colon generators,
    (s, r) = (a - b, a - 2b) in regime E and (2b, b) in E'."""
    q = max(3 * b - a, 0)
    return q, 2 * b - q, b - q


def implicit_pivots(a: int, b: int) -> tuple[tuple[Monomial, Monomial], ...]:
    """The three regime-dependent pivots producing the cube relation from
    (g1, H3), (g2, H2), (g3, H1) respectively: (x^s, (yz)^r) and its
    permutations, with s and r from `_cube_exponents`."""
    _, s, r = _cube_exponents(a, b)
    return ((_m(gx=s), _m(gy=r, gz=r)), (_m(gy=s), _m(gx=r, gz=r)), (_m(gz=s), _m(gx=r, gy=r)))


def ternary_gens(a: int, b: int) -> TernaryGenSet:
    """Build the full generator set, checked against `ternary_spec(a, b)`
    (which refuses a <= 2b); the H's and the cube relation are produced by
    sylvester_det on the pivots from the construction.  The cube relation
    is built from each of its three pairs, (g1, H3), (g2, H2) and (g3, H1),
    on the `implicit_pivots`; the first is the generator, and RuntimeError
    is raised unless the other two equal it."""
    spec = ternary_spec(a, b)
    f1 = Binomial(_m(gx=a, u=1), _m(gy=a, t=1))
    f2 = Binomial(_m(gx=a, v=1), _m(gz=a, t=1))
    f3 = Binomial(_m(gy=a, v=1), _m(gz=a, u=1))
    g1 = Binomial(_m(gx=a - b, w=1), _m(gy=b, gz=b, t=1))
    g2 = Binomial(_m(gy=a - b, w=1), _m(gx=b, gz=b, u=1))
    g3 = Binomial(_m(gz=a - b, w=1), _m(gx=b, gy=b, v=1))
    h1 = sylvester_det(g1, g2, (_m(gx=b), _m(gy=b)))
    h2 = sylvester_det(g1, g3, (_m(gx=b), _m(gz=b)))
    h3 = sylvester_det(g2, g3, (_m(gy=b), _m(gz=b)))
    pairs = zip((g1, g2, g3), (h3, h2, h1), implicit_pivots(a, b))
    cube, *others = [sylvester_det(g, h, pivot) for g, h, pivot in pairs]
    gens = TernaryGenSet(a, b, MoveSet(spec, (f1, f2, f3, g1, g2, g3, h1, h2, h3, cube)))
    for pair, other in zip(("(g2, H2)", "(g3, H1)"), others):
        if other != cube:
            raise RuntimeError(f"the cube relation from {pair} is {other}, from (g1, H3) {cube}, at ({a}, {b})")
    return gens


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
    beta from alpha_c * a - delta * b.  Building their `MoveSet` checks
    that every one lies in the kernel."""
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
            out.append(Binomial(lead, trail))
    out.sort(key=lambda bb: (bb.lead.rees[3] + bb.trail.rees[3], bb.lead.sort_key()))
    return MoveSet(spec, tuple(out)).moves


@dataclass(frozen=True)
class EnumerationReport:
    matches: bool
    types: dict[int, int]  # enumerated binomials by `classify_type`, in increasing type


def enumeration_check(gens: TernaryGenSet) -> EnumerationReport:
    """The generators against `enumerate_kernel_binomials`: it matches when
    every enumerated binomial other than H1, H2, H3 and the cube relation
    lies in (L), the six syzygies, by `binomial_in_binomial_ideal`, and
    those four are among the enumerated.  For every a <= 40 the only
    others are g1, g2 and g3, moves of (L), so the (L) half holds by
    construction there and only the four being found is tested."""
    found = enumerate_kernel_binomials(gens.a, gens.b)
    headline = {gens[label] for label in ("H1", "H2", "H3", gens.regime)}
    l_moves = gens.before("H1")
    matches = all(binomial_in_binomial_ideal(bi, l_moves) for bi in found if bi not in headline)
    types = Counter(classify_type(bi) for bi in found)
    return EnumerationReport(matches and headline <= set(found), dict(sorted(types.items())))


# -- colon claims ------------------------------------------------------------

def _oriented(gens: TernaryGenSet) -> dict[str, tuple[Monomial, Monomial]]:
    """The generators as (pos, neg) pairs, by label, in the construction
    orientation the certificate identities need (they are sign-sensitive):
    the positive side is the one whose Rees exponents, read w, v, u, t,
    are lexicographically larger.  The two sides of a kernel binomial
    share an image, so equal Rees parts would make them equal; no tie
    arises."""
    return {
        label: tuple(sorted((bin_.lead, bin_.trail), key=lambda m: m.rees[::-1], reverse=True))
        for label, bin_ in gens.labelled()
    }


def _certificate_table(a: int, b: int) -> tuple[tuple[str, str, Monomial, list[tuple[int, str, Monomial]]], ...]:
    """Every claimed colon generator with its certificate, as (claim label,
    text, multiplier, terms): multiplier * claim = sum of sign * generator
    * monomial over the terms, all generators read in `_oriented`.  The
    only place a claimed colon monomial is written; `colon_claims` reads
    each claim's generators off its rows, in row order.

    With c = a - 2b, p = max(a - 3b, 0) and q, s, r from `_cube_exponents`,
    the last claim, E (3b >= a) or E' (a > 3b), has one set of rows for
    both regimes: its single-variable multipliers have exponent s (a - b
    or 2b) and its paired ones r (a - 2b or b)."""
    c, p, last = a - 2 * b, max(a - 3 * b, 0), regime_of(a, b)
    q, s, r = _cube_exponents(a, b)
    single, pair = ("(a-b)", "(a-2b)") if last == "E" else ("(2b)", "b")
    return (
        ("H1", "x^b", _m(gx=b), [(1, "g1", _m(gy=c, w=1)), (1, "g2", _m(gz=b, t=1))]),
        ("H1", "y^b", _m(gy=b), [(1, "g1", _m(gz=b, u=1)), (1, "g2", _m(gx=c, w=1))]),
        ("H1", "z^(a-b)", _m(gz=a - b),
         [(1, "g3", _m(gx=c, gy=c, w=1)), (1, "g1", _m(gy=a - b, v=1)), (1, "f3", _m(gz=b, t=1))]),
        ("H2", "x^b", _m(gx=b), [(1, "g1", _m(gz=c, w=1)), (1, "g3", _m(gy=b, t=1))]),
        ("H2", "y^(a-2b)", _m(gy=c), [(1, "H1", _m(gz=c)), (-1, "f3", _m(t=1))]),
        ("H2", "z^b", _m(gz=b), [(1, "g1", _m(gy=b, v=1)), (1, "g3", _m(gx=c, w=1))]),
        ("H3", "x^(a-2b)", _m(gx=c), [(1, "H2", _m(gy=c)), (-1, "f1", _m(v=1))]),
        ("H3", "y^b", _m(gy=b), [(1, "g2", _m(gz=c, w=1)), (1, "g3", _m(gx=b, u=1))]),
        ("H3", "z^b", _m(gz=b), [(1, "g2", _m(gx=b, v=1)), (1, "g3", _m(gy=c, w=1))]),
        (last, f"x^{single}", _m(gx=s), [(1, "g1", _m(gy=p, gz=p, w=2)), (1, "H3", _m(gy=q, gz=q, t=1))]),
        (last, f"y^{single}", _m(gy=s), [(1, "g2", _m(gx=p, gz=p, w=2)), (1, "H2", _m(gx=q, gz=q, u=1))]),
        (last, f"z^{single}", _m(gz=s), [(1, "g3", _m(gx=p, gy=p, w=2)), (1, "H1", _m(gx=q, gy=q, v=1))]),
        (last, f"(xy)^{pair}", _m(gx=r, gy=r), [(1, "g3", _m(gz=q, t=1, u=1)), (1, "H1", _m(gz=p, w=1))]),
        (last, f"(xz)^{pair}", _m(gx=r, gz=r), [(1, "g2", _m(gy=q, t=1, v=1)), (1, "H2", _m(gy=p, w=1))]),
        (last, f"(yz)^{pair}", _m(gy=r, gz=r), [(1, "g1", _m(gx=q, u=1, v=1)), (1, "H3", _m(gx=p, w=1))]),
    )


def _expand(terms, oriented: dict[str, tuple[Monomial, Monomial]]) -> dict[Monomial, int]:
    """sum of sign * (pos - neg) * monomial over `terms`, as a map from
    monomial to nonzero coefficient."""
    acc: dict[Monomial, int] = {}
    for sign, label, mono in terms:
        pos, neg = oriented[label]
        for coeff, term in ((sign, pos * mono), (-sign, neg * mono)):
            acc[term] = acc.get(term, 0) + coeff
    return {term: coeff for term, coeff in acc.items() if coeff}


def certificate_identities(gens: TernaryGenSet) -> tuple[tuple[str, str, dict[Monomial, int], dict[Monomial, int]], ...]:
    """Every claimed colon generator paired with its exact identity in the
    prefix ideal: (step, label, lhs, rhs) with lhs = generator * step, both
    sides expanded by `_expand`; the identity holds iff lhs == rhs."""
    oriented = _oriented(gens)
    return tuple(
        (claim, f"{text}*{claim}", _expand([(1, claim, mult)], oriented), _expand(terms, oriented))
        for claim, text, mult, terms in _certificate_table(gens.a, gens.b)
    )


def colon_claims(a: int, b: int) -> tuple[dict, ...]:
    """The four colon steps of the construction: each generator after the
    six syzygies, named by its `ternary_gens` label, with the labels before
    it as the prefix ideal it is coloned against and the multipliers of its
    `_certificate_table` rows as the claimed colon ideal."""
    labels = _labels(a, b)
    table = _certificate_table(a, b)
    return tuple(
        {"name": name, "prefix": tuple(labels[:i]), "colon": [mult for claim, _, mult, _ in table if claim == name]}
        for i, name in enumerate(labels[6:], start=6)
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


_BLOCK_ROWS = 1 << 16  # most rows per batched membership call; for a <= 12 a passing claim takes one


def _multiplier_blocks(head: np.ndarray, ground: np.ndarray, degrees: Sequence[int]) -> Iterator[np.ndarray]:
    """The rows of `head`, then for each total degree in `degrees` every
    `ground` row of at most that degree, in order, times each Rees tail
    completing the degree, in `compositions` order: arrays of at most
    _BLOCK_ROWS rows of 7 exponents."""
    tails = [np.array(list(compositions(k, 4)), dtype=np.int64) for k in range(max(degrees) + 1)]
    pending, size = [head], len(head)
    for degree in degrees:
        for g in ground[ground.sum(axis=1) <= degree]:
            tail = tails[degree - int(g.sum())]
            pending.append(np.hstack((np.broadcast_to(g, (len(tail), 3)), tail)))
            size += len(tail)
            if size >= _BLOCK_ROWS:
                rows = np.concatenate(pending)
                cut = size - size % _BLOCK_ROWS
                pending, size = [rows[cut:].copy()], size - cut  # a copy, so `rows` goes with its blocks
                yield from np.split(rows[:cut], cut // _BLOCK_ROWS)
    if size:
        yield np.concatenate(pending)


def verify_colon_claims(gens: TernaryGenSet) -> ColonClaimsReport:
    """Check every colon claim: exact certificates, oracle membership of
    each claimed generator, and the bounded-degree converse (monomials of
    total degree <= a outside the claimed colon never multiply H into the
    prefix).  The memberships go through `binomials_in_binomial_ideal`,
    which decides them by fiber components, in `_multiplier_blocks`, the
    claimed generators heading the first.

    The claimed generators are ground monomials, so the outside
    multipliers are the ground monomials g of degree <= a outside the
    claimed colon (its staircase) times every Rees monomial of degree
    <= a - |g|: `subset_checked` is the sum of C(a - |g| + 4, 4).  The
    converse is decided on the outside multipliers of total degree exactly
    a: an outside m of lower degree divides the outside multiplier
    m * t^(a - deg m), which multiplies H into the prefix whenever m does.
    Only when a degree-a multiplier is a member are all outside
    multipliers tested, by total degree and then lexicographically, so
    that `subset_violations` lists every violation in that order."""
    a, b = gens.a, gens.b
    cert_ok_by_step: dict[str, bool] = {}
    for step, _, lhs, rhs in certificate_identities(gens):
        cert_ok_by_step[step] = cert_ok_by_step.get(step, True) and lhs == rhs
    grid = np.array([(x, y, z) for x in range(a + 1) for y in range(a + 1 - x) for z in range(a + 1 - x - y)],
                    dtype=np.int64)  # the ground monomials of degree <= a, lexicographically
    reports = []
    for claim in colon_claims(a, b):
        lead, trail = gens.moves.array[gens.index(claim["name"])]
        prefix = gens.before(claim["name"])
        colon = np.array([g.ground + g.rees for g in claim["colon"]], dtype=np.int64).reshape(-1, 7)
        if colon[:, 3:].any():
            raise ValueError(f"claimed colon generator of {claim['name']} has a Rees part; "
                             "the degree-a converse needs ground monomials only")
        ground = grid[~divisibility_mask(grid, colon[:, :3]).any(axis=1)]
        member = np.concatenate([binomials_in_binomial_ideal(rows + lead, rows + trail, prefix)
                                 for rows in _multiplier_blocks(colon, ground, (a,))])
        violations = []
        if member[len(colon):].any():
            for rows in _multiplier_blocks(colon[:0], ground, range(a + 1)):
                violations += rows[binomials_in_binomial_ideal(rows + lead, rows + trail, prefix)].tolist()
        reports.append(ColonClaimReport(
            claim["name"],
            cert_ok_by_step[claim["name"]],
            bool(member[:len(colon)].all()),
            not violations,
            sum(math.comb(a - d + 4, 4) for d in ground.sum(axis=1).tolist()),
            tuple(Monomial(tuple(v[:3]), tuple(v[3:])).text() for v in violations),
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


def ternary_generation_check(gens: TernaryGenSet) -> TernaryGenerationReport:
    """Full fiber sweep (T-degree <= 4, one beyond the w-degree 3 of the
    cube relation, and ground degree <= 3a) for the ten generators plus
    per-generator removal probes.  A removable generator is reported, not
    asserted away."""
    report = generates_up_to(gens.moves, 4, 3 * gens.a)
    redundant = tuple(lbl for (lbl, _), r in zip(gens.labelled(), gens.moves.redundant()) if r)
    return TernaryGenerationReport(gens.a, gens.b, report, redundant)


# -- exploratory lengths -----------------------------------------------------

@dataclass(frozen=True)
class TernaryLengthRow:
    ell: int
    lam: int


def ternary_length_profile(a: int, b: int) -> tuple[TernaryLengthRow, ...]:
    """Exploratory: lambda(I^l / J I^(l-1)) by staircase counts for
    l <= 3a, until the first zero (J is a reduction when 3b >= a, so the
    tail then vanishes).  No closed form is asserted here.  J I^(3a-1)
    has pure powers of exponent 3a * a, so a >= 578 is refused."""
    spec = ternary_spec(a, b)
    check_exponent_cap(3 * a * a, "power exponent l * a =")
    rows = []
    for ell, colon in zip(range(1, 3 * a + 1), spec.colons()):
        lam = 0 if colon.is_unit_ideal() else colon.colength()
        if lam == 0:
            break
        rows.append(TernaryLengthRow(ell, lam))
    return tuple(rows)
