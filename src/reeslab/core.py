"""Exact arithmetic for monomials, binomials, sparse integer polynomials and
monomial ideals.

Everything lives in a bigraded polynomial ring with ``n`` ground variables
(x, y, z, ... mapped to themselves) and ``m`` Rees variables (t, u, v, w,
one per ideal generator).  All values are immutable and hashable; every
operation returns a fresh value, so concurrent readers are safe.

The canonical term order is lexicographic with w > t > u > v > x > y > z.
With three Rees variables (no w) this degenerates to t > u > v > x > y.
Binomials are always stored with ``lead`` strictly greater than ``trail``
in this order, so generators quoted elsewhere may appear sign-flipped.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

#: hard guard against runaway exponent growth; the parameter validators
#: refuse exponents above it, and the tested ranges (d <= 30, a <= 10) stay
#: far below it.
EXPONENT_CAP = 10**6

_GROUND_NAMES = ("x", "y", "z")
_REES_NAMES = ("t", "u", "v", "w")


class InputError(ValueError):
    """The caller's parameters are outside the supported range.

    Raised only by the validator that owns a parameter family; every other
    exception out of the library is an internal error.
    """


def check_exponent_cap(e: int) -> None:
    if e > EXPONENT_CAP:
        raise InputError(f"exponent {e} exceeds the supported cap {EXPONENT_CAP}")


class AmbientMismatch(ValueError):
    """Operands live in rings with different (n, m) shapes."""


class InfiniteColength(ValueError):
    """Quotient by the ideal is not finite dimensional."""


def ground_names(n: int) -> tuple[str, ...]:
    if n <= len(_GROUND_NAMES):
        return _GROUND_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def rees_names(m: int) -> tuple[str, ...]:
    if m <= len(_REES_NAMES):
        return _REES_NAMES[:m]
    return tuple(f"t{j + 1}" for j in range(m))


def _rees_priority(m: int) -> tuple[int, ...]:
    # lex priority among Rees variables: w first when present, then t, u, v
    if m == 4:
        return (3, 0, 1, 2)
    return tuple(range(m))


def _check_exps(exps: Iterable[int]) -> None:
    for e in exps:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if e > EXPONENT_CAP:
            raise ValueError(f"exponent {e} exceeds cap {EXPONENT_CAP}")


@dataclass(frozen=True)
class Monomial:
    """A monomial x^alpha * t^beta given by its two exponent vectors."""

    ground: tuple[int, ...]
    rees: tuple[int, ...] = ()

    def __post_init__(self):
        _check_exps(self.ground)
        _check_exps(self.rees)

    # -- shape -----------------------------------------------------------
    @property
    def ambient(self) -> tuple[int, int]:
        return (len(self.ground), len(self.rees))

    def _same_ambient(self, other: "Monomial") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")

    def is_ground(self) -> bool:
        return all(e == 0 for e in self.rees)

    def is_unit(self) -> bool:
        return all(e == 0 for e in self.ground) and all(e == 0 for e in self.rees)

    # -- degrees ---------------------------------------------------------
    def ground_degree(self) -> int:
        return sum(self.ground)

    def rees_degree(self) -> int:
        return sum(self.rees)

    def degree(self) -> int:
        return self.ground_degree() + self.rees_degree()

    # -- arithmetic ------------------------------------------------------
    def __mul__(self, other: "Monomial") -> "Monomial":
        self._same_ambient(other)
        return Monomial(
            tuple(a + b for a, b in zip(self.ground, other.ground)),
            tuple(a + b for a, b in zip(self.rees, other.rees)),
        )

    def divide(self, other: "Monomial") -> Optional["Monomial"]:
        """Exact quotient self/other, or None when other does not divide self."""
        self._same_ambient(other)
        g = [a - b for a, b in zip(self.ground, other.ground)]
        r = [a - b for a, b in zip(self.rees, other.rees)]
        if any(e < 0 for e in g) or any(e < 0 for e in r):
            return None
        return Monomial(tuple(g), tuple(r))

    def divides(self, other: "Monomial") -> bool:
        return other.divide(self) is not None

    def gcd(self, other: "Monomial") -> "Monomial":
        self._same_ambient(other)
        return Monomial(
            tuple(min(a, b) for a, b in zip(self.ground, other.ground)),
            tuple(min(a, b) for a, b in zip(self.rees, other.rees)),
        )

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power")
        return Monomial(tuple(e * k for e in self.ground), tuple(e * k for e in self.rees))

    # -- ordering --------------------------------------------------------
    def sort_key(self) -> tuple[int, ...]:
        prio = _rees_priority(len(self.rees))
        return tuple(self.rees[i] for i in prio) + self.ground

    def __lt__(self, other: "Monomial") -> bool:
        self._same_ambient(other)
        return self.sort_key() < other.sort_key()

    # -- text ------------------------------------------------------------
    def text(self, gnames: Sequence[str] | None = None, rnames: Sequence[str] | None = None) -> str:
        """Bit-exact text form: factors joined by '*', '^exp' omitted for 1."""
        gnames = gnames or ground_names(len(self.ground))
        rnames = rnames or rees_names(len(self.rees))
        parts = []
        for name, e in itertools.chain(zip(gnames, self.ground), zip(rnames, self.rees)):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.text()


def unit(n: int, m: int = 0) -> Monomial:
    return Monomial((0,) * n, (0,) * m)


def ground_monomial(exps: Sequence[int], m: int = 0) -> Monomial:
    return Monomial(tuple(exps), (0,) * m)


def parse_monomial(text: str, n: int, m: int = 0) -> Monomial:
    """Inverse of Monomial.text for the default variable names (tests, CLI)."""
    gnames, rnames = ground_names(n), rees_names(m)
    g, r = [0] * n, [0] * m
    text = text.strip()
    if text == "1":
        return Monomial(tuple(g), tuple(r))
    for factor in text.split("*"):
        if "^" in factor:
            name, _, exp = factor.partition("^")
            e = int(exp)
        else:
            name, e = factor, 1
        name = name.strip()
        if name in gnames:
            g[gnames.index(name)] += e
        elif name in rnames:
            r[rnames.index(name)] += e
        else:
            raise ValueError(f"unknown variable {name!r} in {text!r}")
    return Monomial(tuple(g), tuple(r))


@dataclass(frozen=True)
class Binomial:
    """Difference of two distinct monomials, canonically oriented.

    The constructor reorders so that lead > trail in the fixed lex order;
    equality therefore means equality up to overall sign.
    """

    lead: Monomial
    trail: Monomial

    def __post_init__(self):
        self.lead._same_ambient(self.trail)
        if self.lead == self.trail:
            raise ValueError(f"degenerate binomial: {self.lead} - {self.trail}")
        if self.lead.sort_key() < self.trail.sort_key():
            lead, trail = self.trail, self.lead
            object.__setattr__(self, "lead", lead)
            object.__setattr__(self, "trail", trail)

    @property
    def ambient(self) -> tuple[int, int]:
        return self.lead.ambient

    def bidegree(self) -> tuple[int, int]:
        """(ground degree, Rees degree) of the lead term."""
        return (self.lead.ground_degree(), self.lead.rees_degree())

    def is_coprime(self) -> bool:
        return self.lead.gcd(self.trail).is_unit()

    def scale(self, m: Monomial) -> "Binomial":
        return Binomial(self.lead * m, self.trail * m)

    def text(self, gnames: Sequence[str] | None = None, rnames: Sequence[str] | None = None) -> str:
        return f"{self.lead.text(gnames, rnames)} - {self.trail.text(gnames, rnames)}"

    def __str__(self) -> str:
        return self.text()


def parse_binomial(text: str, n: int, m: int = 0) -> Binomial:
    left, sep, right = text.partition(" - ")
    if not sep:
        raise ValueError(f"not a binomial: {text!r}")
    return Binomial(parse_monomial(left, n, m), parse_monomial(right, n, m))


class Polynomial:
    """Sparse polynomial with integer coefficients, normalized on build.

    Only what the certificate identities need: addition, subtraction,
    monomial/scalar multiplication and normalized equality.
    """

    __slots__ = ("_terms", "_ambient")

    def __init__(self, terms: Iterable[tuple[int, Monomial]] = (), ambient: tuple[int, int] | None = None):
        acc: dict[Monomial, int] = {}
        for coeff, mono in terms:
            if ambient is None:
                ambient = mono.ambient
            elif mono.ambient != ambient:
                raise AmbientMismatch(f"{mono.ambient} vs {ambient}")
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        self._terms = acc
        self._ambient = ambient

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: int = 1) -> "Polynomial":
        return cls([(coeff, m)])

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[int, Monomial]]:
        return [(c, m) for m, c in sorted(self._terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True)]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        merged = list(self._terms_iter()) + list(other._terms_iter())
        return Polynomial(merged, self._ambient or other._ambient)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        merged = list(self._terms_iter()) + [(-c, m) for c, m in other._terms_iter()]
        return Polynomial(merged, self._ambient or other._ambient)

    def __neg__(self) -> "Polynomial":
        return Polynomial([(-c, m) for c, m in self._terms_iter()], self._ambient)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial([(c * other, m) for c, m in self._terms_iter()], self._ambient)
        if isinstance(other, Monomial):
            return Polynomial([(c, m * other) for c, m in self._terms_iter()], self._ambient)
        if isinstance(other, Polynomial):
            prods = [
                (c1 * c2, m1 * m2)
                for c1, m1 in self._terms_iter()
                for c2, m2 in other._terms_iter()
            ]
            return Polynomial(prods, self._ambient or other._ambient)
        return NotImplemented

    __rmul__ = __mul__

    def _terms_iter(self):
        return ((c, m) for m, c in self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        out = []
        for c, m in self.terms():
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            body = m.text() if mag == 1 and not m.is_unit() else (f"{mag}" if m.is_unit() else f"{mag}*{m.text()}")
            out.append(f"{sign}{body}" if not out else f" {sign} {body}")
        return "".join(out)


def poly_identity_check(lhs: Polynomial, rhs: Polynomial) -> bool:
    """True iff lhs - rhs normalizes to the zero polynomial."""
    return (lhs - rhs).is_zero()


def _minimalize(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Antichain of minimal elements under divisibility, sorted descending."""
    uniq = sorted(set(monos), key=Monomial.sort_key)
    keep: list[Monomial] = []
    for m in uniq:
        # earlier elements are lex-smaller, not necessarily divisors; test all
        if not any(k.divides(m) for k in keep):
            keep = [k for k in keep if not m.divides(k)]
            keep.append(m)
    return tuple(sorted(keep, key=Monomial.sort_key, reverse=True))


class MonomialIdeal:
    """Monomial ideal in the ground ring, kept as a minimal generator antichain."""

    __slots__ = ("gens", "nvars")

    def __init__(self, gens: Iterable[Monomial], nvars: int | None = None):
        gens = list(gens)
        for g in gens:
            if not g.is_ground():
                raise ValueError(f"ideal generator {g} has Rees variables")
        if nvars is None:
            if not gens:
                raise ValueError("empty ideal needs explicit nvars")
            nvars = len(gens[0].ground)
        for g in gens:
            if len(g.ground) != nvars:
                raise AmbientMismatch(f"{len(g.ground)} vs {nvars} ground variables")
        self.nvars = nvars
        self.gens = _minimalize(gens)

    @classmethod
    def from_exponents(cls, rows: Iterable[Sequence[int]], nvars: int | None = None) -> "MonomialIdeal":
        rows = list(rows)
        if nvars is None and rows:
            nvars = len(rows[0])
        return cls([ground_monomial(r) for r in rows], nvars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({', '.join(str(g) for g in self.gens)})"

    def is_unit_ideal(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit()

    def contains(self, m: Monomial) -> bool:
        if not m.is_ground():
            raise ValueError("membership test expects a ground monomial")
        return any(g.divides(m) for g in self.gens)

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """Colon ideal I : m, generated by g / gcd(g, m) over the generators."""
        if not m.is_ground():
            raise ValueError("colon expects a ground monomial")
        quots = [g.divide(g.gcd(m)) for g in self.gens]
        return MonomialIdeal(quots, self.nvars)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.nvars != other.nvars:
            raise AmbientMismatch(f"{self.nvars} vs {other.nvars}")
        return MonomialIdeal(
            [a * b for a in self.gens for b in other.gens], self.nvars
        )

    __mul__ = product

    def power(self, r: int) -> "MonomialIdeal":
        if r < 0:
            raise ValueError("negative ideal power")
        out = MonomialIdeal([unit(self.nvars)], self.nvars)
        for _ in range(r):
            out = out.product(self)
        return out

    def colength(self) -> int:
        """Number of standard monomials of the quotient (its length).

        Requires a pure power of every variable among the generators;
        otherwise the quotient is infinite dimensional.
        """
        bounds = [None] * self.nvars
        for g in self.gens:
            support = [i for i, e in enumerate(g.ground) if e > 0]
            if len(support) == 1:
                i = support[0]
                e = g.ground[i]
                if bounds[i] is None or e < bounds[i]:
                    bounds[i] = e
            elif len(support) == 0:
                return 0  # unit ideal
        if any(b is None for b in bounds):
            missing = [ground_names(self.nvars)[i] for i, b in enumerate(bounds) if b is None]
            raise InfiniteColength(f"no pure power of {', '.join(missing)}")
        count = 0
        for exps in itertools.product(*(range(b) for b in bounds)):
            m = ground_monomial(exps)
            if not self.contains(m):
                count += 1
        return count


@dataclass(frozen=True)
class AciSpec:
    """The almost complete intersection I = (x_1^{a_1}, ..., x_n^{a_n}, x^b)
    with x^b = x_1^{b_1} ... x_n^{b_n}, and its pure-power subideal J."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b) or not self.a:
            raise InputError("a and b must be nonempty vectors of equal length")
        if any(not 0 <= bi < ai for ai, bi in zip(self.a, self.b)):
            raise InputError(f"need 0 <= b_i < a_i, got a={self.a}, b={self.b}")
        if sum(1 for bi in self.b if bi) < 2:
            raise InputError("need at least two nonzero mixed exponents")
        check_exponent_cap(max(self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def pure_powers(self) -> tuple[Monomial, ...]:
        return tuple(
            ground_monomial(tuple(ai if j == i else 0 for j in range(self.n))) for i, ai in enumerate(self.a)
        )

    @property
    def mixed(self) -> Monomial:
        return ground_monomial(self.b)

    @property
    def generators(self) -> tuple[Monomial, ...]:
        """x_1^{a_1}, ..., x_n^{a_n}, x^b, in the order of the Rees variables."""
        return self.pure_powers + (self.mixed,)

    @cached_property
    def ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.generators, self.n)

    @cached_property
    def j_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.pure_powers, self.n)

    def powers(self) -> Iterator[MonomialIdeal]:
        """I^0, I^1, I^2, ...; each step is one product, made on demand."""
        ideal_i = self.ideal
        power = MonomialIdeal([unit(self.n)], self.n)
        while True:
            yield power
            power = power.product(ideal_i)

    def colon(self, ell: int, power: MonomialIdeal) -> MonomialIdeal:
        """J I^(l-1) : (x^b)^l, given power = I^(l-1)."""
        return self.j_ideal.product(power).colon(self.mixed.power(ell))

    def colons(self) -> Iterator[MonomialIdeal]:
        """The colons for l = 1, 2, ..., walking the power chain once."""
        for ell, power in enumerate(self.powers(), start=1):
            yield self.colon(ell, power)

    def default_r_cap(self) -> int:
        return 4 * max(self.a)


def ideal(*texts: str, nvars: int | None = None) -> MonomialIdeal:
    """Convenience builder from monomial text, e.g. ideal('x^2', 'y^2', 'x*y')."""
    if nvars is None:
        seen = set()
        for t in texts:
            for name in _GROUND_NAMES:
                if name in t:
                    seen.add(name)
        nvars = max((_GROUND_NAMES.index(s) + 1 for s in seen), default=1)
    return MonomialIdeal([parse_monomial(t, nvars) for t in texts], nvars)
