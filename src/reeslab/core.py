"""Exact arithmetic for monomials, binomials and monomial ideals.

Everything lives in a bigraded polynomial ring with ``n`` ground variables
(x, y, z, ... mapped to themselves) and ``m`` Rees variables (t, u, v, w,
one per ideal generator).  All values are immutable and hashable; every
operation returns a fresh value, so concurrent readers are safe.

The canonical term order is lexicographic with w > t > u > v > x > y > z.
With three Rees variables (no w) this degenerates to t > u > v > x > y.
Binomials are always stored with ``lead`` strictly greater than ``trail``
in this order, so generators quoted elsewhere may appear sign-flipped.

`AciSpec` is an almost complete intersection and, at once, its Rees map:
every map the package builds is the Rees map of such an ideal, and every
image is read off its `degree_matrix`, a monomial's by `AciSpec.images`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

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


def check_exponent_cap(e: int, name: str = "exponent") -> None:
    if e > EXPONENT_CAP:
        raise InputError(f"{name} {e} exceeds the supported cap {EXPONENT_CAP}")


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
        if e > EXPONENT_CAP:  # compared here first: a call per exponent would slow every Monomial
            check_exponent_cap(e)


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
    def text(self, rnames: Sequence[str] | None = None) -> str:
        """Bit-exact text form: factors joined by '*', '^exp' omitted for 1;
        the Rees variables are `rnames` (("T",) for an image) or `rees_names`."""
        rnames = rnames or rees_names(len(self.rees))
        parts = []
        for name, e in itertools.chain(zip(ground_names(len(self.ground)), self.ground), zip(rnames, self.rees)):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.text()


def unit(n: int) -> Monomial:
    return Monomial((0,) * n)


def ground_monomial(exps: Sequence[int]) -> Monomial:
    return Monomial(tuple(exps))


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

    def text(self) -> str:
        """lead - trail, each side in its `Monomial.text` form."""
        return f"{self.lead.text()} - {self.trail.text()}"

    def __str__(self) -> str:
        return self.text()


def divisibility_mask(rows: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """mask[i, j] tells whether divisors[j] <= rows[i] in every column,
    i.e. whether the monomial of divisors[j] divides that of rows[i].

    The mask is built as one 2-D array, one comparison per column, so no
    (rows x divisors x columns) array is formed.  Both arrays need at least
    one column.
    """
    columns = np.ascontiguousarray(divisors.T)  # each comparison reads one contiguous column
    mask = rows[:, 0, None] >= columns[0]
    for i in range(1, len(columns)):
        mask &= rows[:, i, None] >= columns[i]
    return mask


#: most cells of the (block x kept) divisibility mask one block may build
_BLOCK_CELLS = 1 << 18


def _minimalize(rows) -> np.ndarray:
    """Rows minimal under divisibility (componentwise <=), lex descending.

    Sorted lex ascending, every divisor of a row comes before it, so a row
    is kept exactly when no earlier row divides it; of equal rows the first
    is kept.  Two variables take a staircase scan.  Otherwise equal rows
    are dropped right after the sort, and the rows are checked a block at a
    time against the rows already kept and against the rest of the block,
    with `divisibility_mask`: a later distinct row never divides an earlier
    one, so every off-diagonal hit within a block is an earlier divisor.
    """
    exps = np.asarray(rows, dtype=np.int64)
    if len(exps) < 2 or exps.shape[1] == 0:
        return exps[:1]
    exps = exps[np.lexsort(exps.T[::-1])]
    if exps.shape[1] == 2:
        # the staircase: x ascending, keep a row when its y is strictly
        # below the y of every earlier row
        y = exps[:, 1]
        keep = np.ones(len(y), dtype=bool)
        keep[1:] = y[1:] < np.minimum.accumulate(y)[:-1]
        return exps[keep][::-1]
    distinct = np.ones(len(exps), dtype=bool)
    distinct[1:] = (exps[1:] != exps[:-1]).any(axis=1)
    exps = exps[distinct]
    kept = exps[:0]
    start = 0
    while start < len(exps):
        size = max(1, min(512, _BLOCK_CELLS // max(len(kept), 1)))
        block = exps[start:start + size]
        start += size
        inner = divisibility_mask(block, block)
        np.fill_diagonal(inner, False)
        divided = inner.any(axis=1)
        if len(kept):
            divided |= divisibility_mask(block, kept).any(axis=1)
        kept = np.concatenate([kept, block[~divided]])
    return kept[::-1]


def _check_rows(rows: np.ndarray) -> None:
    """Refuse candidate rows as Monomial would, at the first exponent above
    the cap in row order."""
    if rows.size and rows.max() > EXPONENT_CAP:
        flat = rows.ravel()
        check_exponent_cap(int(flat[np.argmax(flat > EXPONENT_CAP)]))


class MonomialIdeal:
    """Monomial ideal in the ground ring, kept as a minimal generator antichain.

    ``exps`` is a read-only int64 array with one row of exponents per
    minimal generator, in lex descending order; ``gens`` is the same
    antichain as Monomials, built on first use.
    """

    __slots__ = ("exps", "nvars", "_gens")

    def __init__(self, gens: Iterable[Monomial], nvars: int):
        gens = list(gens)
        for g in gens:
            if not g.is_ground():
                raise ValueError(f"ideal generator {g} has Rees variables")
        for g in gens:
            if len(g.ground) != nvars:
                raise AmbientMismatch(f"{len(g.ground)} vs {nvars} ground variables")
        self._store(np.array([g.ground for g in gens], dtype=np.int64).reshape(len(gens), nvars), nvars)

    def _store(self, rows: np.ndarray, nvars: int) -> None:
        exps = _minimalize(rows)
        # a list of no rows comes back one-dimensional
        self.exps = np.reshape(exps, (len(exps), nvars))
        self.exps.flags.writeable = False
        self.nvars = nvars
        self._gens = None

    @classmethod
    def _from_rows(cls, rows: np.ndarray, nvars: int) -> "MonomialIdeal":
        out = cls.__new__(cls)
        out._store(rows, nvars)
        return out

    @classmethod
    def from_exponents(cls, rows: Sequence[Sequence[int]]) -> "MonomialIdeal":
        """The ideal of these exponent rows, in as many variables as the first."""
        return cls([ground_monomial(r) for r in rows], len(rows[0]))

    @property
    def gens(self) -> tuple[Monomial, ...]:
        if self._gens is None:
            self._gens = tuple(Monomial(tuple(row)) for row in self.exps.tolist())
        return self._gens

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and np.array_equal(self.exps, other.exps)

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({', '.join(str(g) for g in self.gens)})"

    def is_unit_ideal(self) -> bool:
        return len(self.exps) == 1 and not self.exps.any()

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """Colon ideal I : m, generated by g / gcd(g, m) over the generators."""
        if not m.is_ground():
            raise ValueError("colon expects a ground monomial")
        if m.ambient != (self.nvars, 0):
            raise AmbientMismatch(f"{m.ambient} vs {(self.nvars, 0)}")
        return MonomialIdeal._from_rows(np.maximum(self.exps - np.array(m.ground, dtype=np.int64), 0), self.nvars)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.nvars != other.nvars:
            raise AmbientMismatch(f"{self.nvars} vs {other.nvars}")
        rows = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(-1, self.nvars)
        _check_rows(rows)
        return MonomialIdeal._from_rows(rows, self.nvars)

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
        if self.is_unit_ideal():
            return 0
        exps = self.exps
        support = exps > 0
        pure = support.sum(axis=1) == 1
        bounds = [None] * self.nvars
        for i, e in zip(support[pure].argmax(axis=1).tolist(), exps[pure].max(axis=1).tolist()):
            bounds[i] = e
        if any(b is None for b in bounds):
            missing = [ground_names(self.nvars)[i] for i, b in enumerate(bounds) if b is None]
            raise InfiniteColength(f"no pure power of {', '.join(missing)}")
        if self.nvars == 1:
            return bounds[0]
        # Over the box of the first n - 1 exponents, one slab of the first
        # exponent x at a time (memory stays one slab): slab[0, p] is the
        # least last exponent of a generator with first exponent <= x and
        # middle exponents <= p, i.e. the count of standard monomials above
        # the point (x, p).
        *box, depth = bounds
        inside = exps[(exps[:, :-1] < box).all(axis=1)]
        slab = np.full([1, *box[1:]], depth, dtype=np.int64)
        count = 0
        for x in range(box[0]):
            at = inside[inside[:, 0] == x]
            np.minimum.at(slab, (np.zeros(len(at), dtype=np.intp), *at[:, 1:-1].T), at[:, -1])
            for axis in range(1, slab.ndim):
                np.minimum.accumulate(slab, axis=axis, out=slab)
            count += int(slab.sum())
        return count


@dataclass(frozen=True)
class AciSpec:
    """The almost complete intersection I = (x_1^{a_1}, ..., x_n^{a_n}, x^b)
    with x^b = x_1^{b_1} ... x_n^{b_n}, its pure-power subideal J, and its
    Rees map t_j -> generator j * T, from (n, nrees) to (n, 1) monomials."""

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

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        """x_1^{a_1}, ..., x_n^{a_n}, x^b, in the order of the Rees
        variables: the rows of `degree_matrix`."""
        return tuple(ground_monomial(row) for row in self.degree_matrix.tolist())

    @property
    def pure_powers(self) -> tuple[Monomial, ...]:
        return self.generators[:-1]

    @property
    def mixed(self) -> Monomial:
        return self.generators[-1]

    @property
    def nrees(self) -> int:
        return self.n + 1

    @cached_property
    def degree_matrix(self) -> np.ndarray:
        """Read-only (nrees, n) array: row j is generator j's exponents."""
        matrix = np.vstack((np.diag(self.a), [self.b])).astype(np.int64)
        matrix.flags.writeable = False
        return matrix

    def images(self, rows: np.ndarray) -> np.ndarray:
        """The images of many monomials at once: rows of exponent vectors
        (ground, then Rees) to rows of (image ground part, T-degree)."""
        n = self.n
        return np.column_stack((rows[:, :n] + rows[:, n:] @ self.degree_matrix, rows[:, n:].sum(axis=1)))

    def image_of(self, m: Monomial) -> Monomial:
        """The image of one monomial: its row of `images`."""
        if m.ambient != (self.n, self.nrees):
            raise ValueError(f"monomial ambient {m.ambient} does not match map {(self.n, self.nrees)}")
        *ground, tau = self.images(np.array([m.ground + m.rees], dtype=np.int64))[0].tolist()
        return Monomial(tuple(ground), (tau,))

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

