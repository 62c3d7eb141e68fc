"""Gröbner-free oracles for the Rees ideals of almost complete intersections.

Everything here reduces to one primitive: the fiber of the Rees map of an
ideal, read off its `core.AciSpec`; there are no general monomial maps.
Two source monomials are congruent modulo a set of binomial "moves" when a
chain of one-step rewrites q*lead <-> q*trail connects them; a binomial
lies in the ideal generated by the moves iff its two monomials are
congruent, and a move set generates the whole kernel iff every fiber is
connected.  Fibers here are finite because the map is bigraded and every
ideal generator has positive degree.

`_check_kernel` is the one kernel-membership check, naming the first pair
off the kernel: `MoveSet` runs it on its moves (`binomial_in_binomial_ideal`
builds a one-move `MoveSet`), `binomials_in_binomial_ideal` on its rows.
The subsets `MoveSet.without` and `MoveSet.prefix` take rows of the checked
array, so no move set is checked twice.  A `MoveSet` keeps its moves as
the array the kernel and the walk read, and carries the map: every sweep
and membership reads `moves.spec`, so no caller can pair moves with a map
they were not checked against.

The full-sweep operations only check *reduced* fibers (those whose members
share no common variable).  Multiplying a fiber by a variable is a
connectivity-preserving bijection as long as every move has coprime sides,
so reduced fibers decide the sweep; move sets are validated accordingly.

The sweeps build fibers as arrays, one level per `_runs` run of
consecutive T-degrees, joined while (compositions x images) stays within
`_JOINT_CELLS`: `_reduced_fibers_at` finds every reduced fiber of a run
with `_member_cells` (shared with `_fibers_of`; one member mask, built a
bounded block at a time, whose T-degree columns (tau, top - tau) match
each composition to images of its own T-degree only), gates them on the
member cells the mask leaves, and builds member rows only for the fibers
the gate leaves.  `_fiber_components` labels every complete fiber of a
level under kernel moves in one numpy pass, and the run is the only rule
for which fibers are labelled together.  `generates_up_to` labels each
run's gated level as soon as it is built, and `bruteforce_min_gens` each
(T-degree, image ground degree) group of it.  `binomials_in_binomial_ideal`
decides many memberships at once, one `_fiber_components` call per run
of the complete fibers that `_fibers_of` builds.  It builds fibers only
for the rows it cannot settle first: one `divisibility_mask` of the leads
and one of the trails against the move sides answer every row with an
isolated endpoint, a monomial no move applies to and so alone in its
component.  Those are 87% of the rows of the colon claims of the 30
ternary pairs with a <= 12 (64-99.8% per pair).  The tuple walk
`_neighbors` answers single membership questions; the kernel answers
batches.

Both sweeps build and label only the fibers that the divisor-complex gate
of `_reduced_fibers_at` leaves.  Moves generate the kernel iff every fiber
is connected (Diaconis and Sturmfels, Ann. Statist. 1998).  A fiber b
whose squarefree divisor complex Delta_b is connected is connected
whenever every smaller fiber b - deg(x_v), x_v a vertex of Delta_b, is
(Miller and Sturmfels, Combinatorial Commutative Algebra, GTM 227, ch. 9).
The gate keeps a fiber when Delta_b is disconnected or some smaller fiber
lies beyond the ground bound.  Every other fiber is connected once the
fibers before it in (T-degree, image) order are, so the verdict, the
first failure and `fibers_checked` are those of labelling every fiber.
Under the full Sigma set the fibers kept are exactly the generators'
degrees.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import AciSpec, Binomial, InputError, Monomial, check_exponent_cap, divisibility_mask

Vec = tuple[int, ...]


class KernelMismatch(ValueError):
    """A binomial whose two monomials have different images."""


def binary_spec(d: int, b: int) -> AciSpec:
    """I = (x^d, y^d, x^b y^(d-b)), whose Rees variables are t, u, v; the one
    place the cap on image exponents is enforced, once `AciSpec` takes the
    ideal.  Every kernel check forms the largest, d * max(b, d - b) / gcd(d, b),
    in the image of the implicit equation v^(d / gcd(d, b))."""
    spec = AciSpec((d, d), (b, d - b))
    check_exponent_cap(d * max(b, d - b) // math.gcd(d, b), "image exponent d * max(b, d - b) / gcd(d, b) =")
    return spec


def ternary_spec(a: int, b: int) -> AciSpec:
    """I = (x^a, y^a, z^a, (xyz)^b), whose Rees variables are t, u, v, w;
    the one place the ternary family's rule a > 2b >= 2 is enforced."""
    if not (a > 2 * b >= 2):
        raise InputError(f"need a > 2b >= 2, got ({a}, {b})")
    return AciSpec((a,) * 3, (b,) * 3)


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` non-negative ints summing to `total`, in
    increasing lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    c = [0] * (parts - 1) + [total]
    while True:
        yield tuple(c)
        # step to the next tuple: move one unit from the last nonzero entry
        # (after the first) to its left neighbour, the rest to the end
        k = parts - 1
        while k > 0 and c[k] == 0:
            k -= 1
        if k == 0:
            return
        rest = c[k] - 1
        c[k] = 0
        c[k - 1] += 1
        c[-1] = rest


@dataclass(frozen=True)
class MoveSet:
    """Binomials in the kernel of a fixed Rees map, validated at build;
    `array` holds them as a `_move_array`."""

    spec: AciSpec
    moves: tuple[Binomial, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ambient = (self.spec.n, self.spec.nrees)
        for mv in self.moves:
            if mv.ambient != ambient:
                raise ValueError(f"move {mv} has ambient {mv.ambient}, expected {ambient}")
        array = _move_array(self.moves, sum(ambient))
        _check_kernel(self.spec, array[:, 0], array[:, 1])
        object.__setattr__(self, "array", array)

    def __iter__(self):
        return iter(self.moves)

    def __len__(self):
        return len(self.moves)

    def _rows(self, keep: Sequence[int]) -> "MoveSet":
        """The moves at the indices `keep`, in that order, with their rows of
        the checked `array`: a subset of checked moves needs no new check."""
        sub = object.__new__(MoveSet)
        object.__setattr__(sub, "spec", self.spec)
        object.__setattr__(sub, "moves", tuple(self.moves[i] for i in keep))
        object.__setattr__(sub, "array", self.array[list(keep)])
        return sub

    def prefix(self, stop: int) -> "MoveSet":
        """The first `stop` moves."""
        return self._rows(range(stop))

    def without(self, index: int) -> "MoveSet":
        """The moves but the one at `index`; IndexError outside 0..len - 1."""
        if not 0 <= index < len(self):
            raise IndexError(f"move index {index} outside 0..{len(self) - 1}")
        return self._rows([i for i in range(len(self)) if i != index])

    def redundant(self) -> list[bool]:
        """The removal probes: for each move, whether the other moves
        generate it, decided by `binomial_in_binomial_ideal`."""
        return [binomial_in_binomial_ideal(move, self.without(i)) for i, move in enumerate(self.moves)]


# -- congruence walking -----------------------------------------------------

def _vec(m: Monomial) -> Vec:
    return m.ground + m.rees


def _mono(vec: Vec, n: int) -> Monomial:
    return Monomial(vec[:n], vec[n:])


def _move_vecs(moves: np.ndarray) -> list[tuple[Vec, Vec]]:
    """Both directions of each move of a `_move_array`, as vector pairs."""
    out = []
    for lead, trail in moves.tolist():
        out += [(tuple(lead), tuple(trail)), (tuple(trail), tuple(lead))]
    return out


def _neighbors(state: Vec, movevecs: Sequence[tuple[Vec, Vec]]):
    for src, dst in movevecs:
        shifted = []
        ok = True
        for s, a, b in zip(state, src, dst):
            q = s - a
            if q < 0:
                ok = False
                break
            shifted.append(q + b)
        if ok:
            yield tuple(shifted)


def _congruence_class(start: Vec, movevecs: Sequence[tuple[Vec, Vec]]) -> Iterator[Vec]:
    """Breadth-first walk of the congruence class of `start`: yields start,
    then each newly reached state once, as soon as it is reached."""
    seen = {start}
    frontier = [start]
    yield start
    while frontier:
        nxt = []
        for state in frontier:
            for nb in _neighbors(state, movevecs):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
                    yield nb
        frontier = nxt


def _check_kernel(spec: AciSpec, leads: np.ndarray, trails: np.ndarray) -> np.ndarray:
    """The images of `leads` (rows of exponents, ground then Rees); the
    first lead whose trail has another image raises KernelMismatch."""
    images = spec.images(leads)
    off = (images != spec.images(trails)).any(axis=1)
    if off.any():
        i = int(np.argmax(off))
        b = Binomial(_mono(tuple(leads[i].tolist()), spec.n), _mono(tuple(trails[i].tolist()), spec.n))
        raise KernelMismatch(f"{b} is not in the kernel of the map: its two sides have different images")
    return images


def binomial_in_binomial_ideal(b: Binomial, gens: MoveSet) -> bool:
    """Membership of a pure difference in the binomial ideal of `gens`,
    checked first as a move of their map: walk the congruence from b.lead
    and look for b.trail."""
    MoveSet(gens.spec, (b,))
    return _vec(b.trail) in _congruence_class(_vec(b.lead), _move_vecs(gens.array))


@dataclass(frozen=True)
class MixedMembership:
    """Outcome of a mixed-ideal membership walk; truthy iff member."""

    member: bool
    explored: int

    def __bool__(self):
        return self.member


def monomial_in_mixed_ideal(
    m: Monomial,
    diff_gens: Sequence[Binomial],
    mono_gens: Sequence[Monomial],
) -> MixedMembership:
    """Membership of `m` in (diff_gens) + (mono_gens) for homogeneous pure
    differences: true iff the congruence class of m under the difference
    moves contains a multiple of some monomial generator.

    The class lies among the C(D + n - 1, n - 1) monomials of m's degree D
    in its n variables; above 10^6 of them, InputError at once.
    """
    start = _vec(m)
    size = math.comb(sum(start) + len(start) - 1, len(start) - 1)
    if size > 10**6:
        raise InputError(f"the congruence class of {m} may hold {size} monomials, above the cap 10^6")
    monos = [_vec(g) for g in mono_gens]
    for explored, state in enumerate(_congruence_class(start, _move_vecs(_move_array(diff_gens, len(start)))), 1):
        if any(all(s >= g for s, g in zip(state, mg)) for mg in monos):
            return MixedMembership(True, explored)
    return MixedMembership(False, explored)


# -- fiber connectivity, runs of T-degree levels -----------------------------

def _move_array(moves: Sequence[Binomial], width: int) -> np.ndarray:
    """The moves as one (moves, 2, width) array of (lead, trail) vectors."""
    pairs = [(_vec(mv.lead), _vec(mv.trail)) for mv in moves]
    return np.array(pairs, dtype=np.int64).reshape(len(moves), 2, width)


def _keyable(nrees: int, radix: int, fibers: int) -> bool:
    """Whether `_Level.key` fits the members of `fibers` fibers whose Rees
    exponents (nrees of them) are below radix."""
    return radix**nrees * fibers < 2**62


@dataclass(frozen=True)
class _Level:
    """Fibers of one `_runs` run of consecutive T-degrees, or some of
    them, as arrays.  Members are sorted by fiber id, then by Rees
    exponents in `compositions` order; fiber ids index `images`, whose rows
    are in increasing (T-degree, image) order.  The T-degree of a fiber is
    the Rees degree of any of its members."""

    images: np.ndarray  # (fibers, n) ground part of each fiber's image
    fiber: np.ndarray   # (members,) fiber id of each member
    ground: np.ndarray  # (members, n)
    rees: np.ndarray    # (members, nrees)

    def __len__(self):
        return len(self.fiber)

    def key(self, fiber, rees: np.ndarray) -> np.ndarray:
        """Member keys: fiber id, then the mixed-radix code of the Rees
        exponents; they increase along the level's members."""
        nrees = self.rees.shape[1]
        radix = int(self.rees.max(initial=0)) + 1
        if not _keyable(nrees, radix, len(self.images)):
            raise ValueError(f"level of {len(self.images)} fibers with Rees exponents < {radix} is too large to key")
        return fiber * radix**nrees + rees @ radix ** np.arange(nrees - 1, -1, -1, dtype=np.int64)

    def split_fibers(self, labels: np.ndarray) -> list[int]:
        """Ids, in increasing order, of the fibers that `labels` (from
        `_fiber_components`) splits into two or more components."""
        first = np.searchsorted(self.fiber, self.fiber)  # first member of each member's fiber
        return sorted(set(self.fiber[labels != first].tolist()))

    def select(self, keep: np.ndarray) -> "_Level":
        """The level of the fibers where `keep` (one bool per fiber) holds,
        renumbered in order."""
        rows = keep[self.fiber]
        return _Level(self.images[keep], (np.cumsum(keep) - 1)[self.fiber[rows]], self.ground[rows], self.rees[rows])

    def components(self, f: int, labels: np.ndarray) -> list[list[Vec]]:
        """The member vectors of fiber f grouped by label, each group in
        member order, the groups ordered by their first members."""
        rows = slice(*np.searchsorted(self.fiber, [f, f + 1]))
        groups: dict[int, list[Vec]] = {}
        for v, label in zip(np.hstack((self.ground[rows], self.rees[rows])).tolist(), labels[rows].tolist()):
            groups.setdefault(label, []).append(tuple(v))
        return sorted(groups.values(), key=lambda g: g[0])


def _fiber_components(level: _Level, moves: np.ndarray) -> np.ndarray:
    """Component label of every member of `level` under `moves` (a
    `_move_array`): the index of the first member of its component.

    Precondition: kernel moves (as in `MoveSet`) on complete fibers.  A
    move then keeps a member's image, so its target is found by key alone.

    Members are found by their `_Level.key`, so a move is one feasibility
    mask plus one key shift, matched with `searchsorted`.  The trail ->
    lead direction of a move only retraces the edges of its lead -> trail
    direction, so one direction lists every edge the move gives.  Labels
    are then hooked along the edges and shortcut by pointer jumping until
    every edge joins equal labels.  A level with no members returns at
    once.
    """
    labels = np.arange(len(level))
    if not len(labels):
        return labels
    nrees = level.rees.shape[1]
    keys = level.key(level.fiber, level.rees)
    shifts = level.key(0, moves[:, 1, -nrees:] - moves[:, 0, -nrees:])
    columns = [*level.ground.T, *level.rees.T]
    edges = []
    for (lead, _), shift in zip(moves, shifts):
        feasible = np.ones(len(keys), dtype=bool)
        for c in np.flatnonzero(lead):
            feasible &= columns[c] >= lead[c]
        src = np.flatnonzero(feasible)
        target = keys[src] + shift
        dst = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
        hit = keys[dst] == target
        if hit.any():
            edges.append((src[hit].astype(np.int32), dst[hit].astype(np.int32)))
    while True:
        settled = True
        for src, dst in edges:
            a, b = labels[src], labels[dst]
            if not np.array_equal(a, b):
                settled = False
                np.minimum.at(labels, a, b)
                np.minimum.at(labels, b, a)
        if settled:
            return labels
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-negative integer array in increasing
    order, and the index among them of each row, through one mixed-radix
    code per row."""
    width = rows.shape[1]
    radix = int(rows.max(initial=0)) + 1
    if radix**width >= 2**63:
        raise ValueError(f"rows with entries < {radix} are too large to code")
    code = rows @ radix ** np.arange(width - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return rows[first], inverse


_MASK_CELLS = 1 << 20  # (images x compositions) cells per block of a level's member mask
_JOINT_CELLS = 1 << 16  # (compositions x images) cells up to which T-degrees are built as one level


def _member_cells(G: np.ndarray, images: np.ndarray, keep: Optional[Callable] = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The member cells of the rows of `images` (distinct, in increasing
    order) for the rows G of `_compositions_at`: the ground parts of the
    rows kept, and for each member of a kept row its index among them and
    its composition's index in G, members in (row, composition) order.
    Rows of G and `images` are (tau, top - tau, image ground vector), so a
    composition gives a member of an image when its row lies below the
    image's, at equal T-degrees only; of one T-degree, those columns hold
    for every pair and stay out of the mask.  That mask is
    `core.divisibility_mask` of the images by G, built `_MASK_CELLS` cells
    at a time, and `keep(block, member)`, when given, indexes the block's
    rows to keep, in increasing order."""
    k = len(G)
    step = max(1, _MASK_CELLS // k)
    skip = 2 * int(G[0, 0] == G[-1, 0])  # the T-degree columns, when they hold everywhere
    kept, flat, count = [images[:0]], [np.empty(0, dtype=np.int64)], 0
    for start in range(0, len(images), step):
        block = images[start:start + step]
        member = divisibility_mask(block[:, skip:], G[:, skip:])
        rows = slice(None) if keep is None else keep(block, member)
        kept.append(block[rows])
        flat.append(np.flatnonzero(member[rows]) + count * k)
        count += len(kept[-1])
    fiber, col = np.divmod(np.concatenate(flat), k)
    return np.concatenate(kept)[:, 2:], fiber, col


def _multisets(bounds: Sequence[int], size: int) -> np.ndarray:
    """The `size`-element multisets of indices within each block
    bounds[i] .. bounds[i + 1] - 1, as rows of non-decreasing indices, block
    by block in `itertools.combinations_with_replacement` order.  Each
    further column repeats every row once per index from its last one to
    the end of its block."""
    last = np.arange(bounds[0], bounds[-1])
    end = np.repeat(bounds[1:], np.diff(bounds))  # the end of each row's block
    idx = last[:, None]
    for _ in range(1, size):
        count = end - last
        rows = np.repeat(np.arange(len(last)), count)
        last = np.arange(len(rows)) - (np.cumsum(count) - count - last)[rows]
        idx, end = np.column_stack((idx[rows], last)), end[rows]
    return idx


def _compositions_at(spec: AciSpec, taus: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The compositions of each of the increasing T-degrees `taus` as rows,
    T-degree first, and G: for each, (tau, top - tau) with top the last of
    `taus`, then its Rees monomial's image ground vector."""
    comps = np.array([c for tau in taus for c in compositions(tau, spec.nrees)], dtype=np.int64).reshape(-1, spec.nrees)
    tau = comps.sum(axis=1)
    return comps, np.column_stack((tau, taus[-1] - tau, comps @ spec.degree_matrix))


def _runs(spec: AciSpec, taus: Sequence[int], sizes: Sequence[int]) -> Iterator[slice]:
    """Runs of consecutive entries of the increasing T-degrees `taus`, with
    sizes[i] images at taus[i], each to be built as one level: a run grows
    while its (compositions x images) cells stay within `_JOINT_CELLS` and
    its members stay `_keyable`.  A T-degree beyond that is a run alone."""
    start = k = size = 0
    for i, (tau, count) in enumerate(zip(taus, sizes)):
        comps = math.comb(tau + spec.nrees - 1, spec.nrees - 1)
        if i > start and ((k + comps) * (size + count) > _JOINT_CELLS
                          or not _keyable(spec.nrees, tau + 1, size + count)):
            yield slice(start, i)
            start, k, size = i, 0, 0
        k, size = k + comps, size + count
    if start < len(taus):
        yield slice(start, len(taus))


def _fibers_of(spec: AciSpec, images: np.ndarray) -> _Level:
    """The level of the complete fibers whose images are the rows of
    `images`, (T-degree, image ground part), distinct and in increasing
    order: the layout and member order of `_reduced_fibers_at`, without
    its filters."""
    comps, G = _compositions_at(spec, sorted(set(images[:, 0].tolist())))
    images, fiber, col = _member_cells(G, np.column_stack((images[:, 0], G[-1, 0] - images[:, 0], images[:, 1:])))
    return _Level(images, fiber, images[fiber] - G[col, 2:], comps[col])


def binomials_in_binomial_ideal(leads: np.ndarray, trails: np.ndarray, moves: MoveSet) -> np.ndarray:
    """Batched `binomial_in_binomial_ideal`: entry i tells whether
    leads[i] - trails[i] lies in the binomial ideal of `moves`, the rows
    being exponent vectors (ground, then Rees).

    It does exactly when both monomials lie in one component of their
    fiber under the moves.  Once every row is checked to lie in the
    kernel, one `divisibility_mask` of the leads and one of the trails
    against the sides of the moves settle most rows: a monomial that no
    side divides admits no move, so it is alone in its component, and a
    row with such a side is a member exactly when lead == trail.  A row
    with lead == trail is a member too.  Only the other rows have fibers
    built: their distinct (T-degree, image) rows are split into `_runs` of
    consecutive T-degrees, each run built as one level by `_fibers_of` and
    labelled by one `_fiber_components` call, and each lead and trail is
    found in its level by its `_Level.key`.
    """
    spec, n = moves.spec, moves.spec.n
    leads, trails = np.asarray(leads, dtype=np.int64), np.asarray(trails, dtype=np.int64)
    images = _check_kernel(spec, leads, trails)
    out = (leads == trails).all(axis=1)
    sides = moves.array.reshape(-1, leads.shape[1])
    moved = divisibility_mask(leads, sides).any(axis=1) & divisibility_mask(trails, sides).any(axis=1)
    todo = np.flatnonzero(moved & ~out)
    leads, trails = leads[todo], trails[todo]
    # the distinct (T-degree, image ground part) rows, and each row's fiber id among them
    images, fiber = _distinct_rows(images[todo][:, [n, *range(n)]])
    taus, sizes = (column.tolist() for column in np.unique(images[:, 0], return_counts=True))
    bounds = [0, *itertools.accumulate(sizes)]
    for r in _runs(spec, taus, sizes):
        start, end = bounds[r.start], bounds[r.stop]
        level = _fibers_of(spec, images[start:end])
        rows = np.flatnonzero((fiber >= start) & (fiber < end))
        labels = _fiber_components(level, moves.array)
        keys = level.key(level.fiber, level.rees)
        lead_at = np.searchsorted(keys, level.key(fiber[rows] - start, leads[rows, n:]))
        trail_at = np.searchsorted(keys, level.key(fiber[rows] - start, trails[rows, n:]))
        out[todo[rows]] = labels[lead_at] == labels[trail_at]
    return out


# -- full fiber sweeps -------------------------------------------------------

def _require_coprime(moves: Sequence[Binomial]) -> None:
    for mv in moves:
        if not mv.is_coprime():
            raise ValueError(f"sweep requires coprime moves, got {mv}")


def _reduced_fibers_at(spec: AciSpec, taus: Sequence[int], ground_bound: int
                       ) -> tuple[int, np.ndarray, _Level]:
    """The reduced fibers of the consecutive T-degrees `taus` with at least
    two members whose smallest member has ground degree within bound, in
    (T-degree, image) order, gated by their divisor complexes: their
    number, the indices among them of the fibers the gate leaves undecided,
    and the level of those fibers alone.

    A reduced fiber's image is the coordinatewise max of at most n
    member image vectors, so candidates are exactly the maxes of n-element
    multisets of composition images of one T-degree (`_multisets`):
    C(k + n - 1, n) rows for k compositions.  A candidate X whose members
    have ground degree at least |X| - tau * max_j |g_j| > bound (g_j the
    generators) is dropped at once.  For each ground variable some member
    of a candidate fiber lacks it, so members never share a ground
    variable; the fiber is non-reduced exactly when all its members carry
    some t_j, and then it is t_j times a fiber of T-degree tau - 1.  Those
    fibers are left out.  All the candidates go through one
    `_member_cells` member mask.

    The gate reads the member cells (fiber, composition) the mask leaves,
    before any member row is built.  The complex Delta_b of fiber b has the
    variables dividing some member as vertices, and {v, w} as an edge when
    some member is divisible by x_v x_w.  When it is connected and every
    smaller fiber b - deg(x_v) of a vertex v is connected, so is b: two
    members divisible by one x_v are x_v times two members of
    b - deg(x_v), and the edges chain any two members.  The members of
    b - deg(x_v) are those of b divisible by x_v, divided by it, so it is
    inside the ground bound when one of those has ground degree
    <= ground_bound, or <= ground_bound + 1 when x_v is a ground variable;
    it then lies, up to a common factor, among the sweep's reduced fibers
    before b in (T-degree, image) order.  A fiber is thus left undecided
    when its complex is disconnected or some vertex's smaller fiber lies
    beyond the bound.  A member's support is an int32 bitmask, ground
    variables first (so at most 31 variables): its composition's Rees
    bits, and bit v where X_v exceeds the composition's image.  Member
    rows are built for the undecided fibers only.
    """
    n = spec.n
    comps, G = _compositions_at(spec, taus)
    idx = _multisets(np.searchsorted(G[:, 0], [*taus, taus[-1] + 1]), n)
    cand = G[idx[:, 0]]
    for col in range(1, n):
        cand = np.maximum(cand, G[idx[:, col]])
    least = np.array([-spec.degree_matrix.sum(axis=1).max(), 0, *[1] * n])  # |X| - tau * max_j |g_j|
    cand = cand[cand @ least <= ground_bound]
    faces = [np.flatnonzero(beta == 0) for beta in comps.T]  # the compositions without t_j
    gsum = G[:, 2:].sum(axis=1)

    def keep(block: np.ndarray, member: np.ndarray) -> np.ndarray:
        # each t_j is missing from some member, and two or more members
        reduced = np.all([member[:, face].any(axis=1) for face in faces], axis=0)
        rows = np.flatnonzero(reduced & (np.count_nonzero(member, axis=1) >= 2))
        # then some member, so the smallest, has ground degree within bound
        within = member[rows] & (gsum >= block[rows, 2:].sum(axis=1, keepdims=True) - ground_bound)
        return rows[within.any(axis=1)]

    images, fiber, col = _member_cells(G, _distinct_rows(cand)[0], keep)
    rees_bits = ((comps > 0) << np.arange(n, n + spec.nrees)).sum(axis=1).astype(np.int32)
    masks = rees_bits.take(col)
    for v in range(n):
        masks |= (images[:, v].take(fiber) > G[:, 2 + v].take(col)) << np.int32(v)
    starts = np.searchsorted(fiber, np.arange(len(images)))
    vertices = np.bitwise_or.reduceat(masks, starts)
    # the vertices whose smaller fiber some member puts inside the bound
    degree = images.sum(axis=1).take(fiber) - gsum.take(col)
    inside = np.where(degree <= ground_bound, -1, np.where(degree == ground_bound + 1, (1 << n) - 1, 0))
    beyond = (vertices & ~np.bitwise_or.reduceat(masks & inside, starts)) != 0
    # grow the first member's vertices along the members that meet them
    reach = masks[starts]
    while True:
        grown = np.bitwise_or.reduceat(np.where(masks & reach[fiber], masks, 0), starts)
        if np.array_equal(grown, reach):
            break
        reach = grown
    undecided = beyond | (reach != vertices)
    rows = undecided[fiber]
    fiber, col = fiber[rows], col[rows]
    level = _Level(images[undecided], (np.cumsum(undecided) - 1)[fiber], images[fiber] - G[col, 2:], comps[col])
    return len(images), np.flatnonzero(undecided), level


def _sweep_levels(spec: AciSpec, t_bound: int, ground_bound: int) -> Iterator[tuple[int, np.ndarray, _Level]]:
    """`_reduced_fibers_at` of T-degrees <= t_bound, one `_runs` run of
    T-degrees each, sized by their C(k + n - 1, n) candidates."""
    taus = range(t_bound + 1)
    sizes = [math.comb(math.comb(tau + spec.nrees - 1, tau) + spec.n - 1, spec.n) for tau in taus]
    return (_reduced_fibers_at(spec, taus[run], ground_bound) for run in _runs(spec, taus, sizes))


@dataclass(frozen=True)
class FiberFailure:
    image: Monomial
    components: tuple[tuple[Monomial, ...], ...]


@dataclass(frozen=True)
class GenerationReport:
    t_bound: int
    ground_bound: int
    fibers_checked: int
    first_failure: Optional[FiberFailure] = None
    fibers_labelled: int = field(default=0, compare=False)  # of fibers_checked, those left to the kernel

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def generates_up_to(moves: MoveSet, t_bound: int, ground_bound: int) -> GenerationReport:
    """Pass iff every fiber of the map `moves.spec` with T-degree <= t_bound
    and source ground degree <= ground_bound is connected under `moves`.
    The reduced fibers decide it, and the failure reported is the first
    disconnected one in increasing (T-degree, image) order, so it is
    deterministic.  `fibers_checked` counts the reduced fibers up to and
    including that one.  Only the fibers the gate of `_reduced_fibers_at`
    leaves are built and labelled, one `_runs` run of T-degrees at a time,
    as soon as the run is built, so a failure stops the sweep at its run:
    each other fiber is connected when every fiber before it is, so the
    first disconnected fiber is among those labelled.  `fibers_labelled`
    counts them, up to and including the failure.
    """
    _require_coprime(list(moves))
    spec = moves.spec
    n = spec.n
    checked = labelled = 0
    for count, undecided, level in _sweep_levels(spec, t_bound, ground_bound):
        labels = _fiber_components(level, moves.array)
        split = level.split_fibers(labels)
        if split:
            f = split[0]
            parts = level.components(f, labels)
            image = Monomial(tuple(level.images[f].tolist()), (sum(parts[0][0][n:]),))
            failure = FiberFailure(image, tuple(tuple(_mono(v, n) for v in g) for g in parts))
            return GenerationReport(t_bound, ground_bound, checked + int(undecided[f]) + 1, failure, labelled + f + 1)
        checked += count
        labelled += len(level.images)
    return GenerationReport(t_bound, ground_bound, checked, None, labelled)


def bruteforce_min_gens(
    spec: AciSpec,
    t_bound: int,
    ground_bound: int,
    tie_break_seed: int | None = None,
) -> MoveSet:
    """Independent oracle for a minimal generating set within bounds.

    Reduced fibers are processed in an order refining divisibility of
    images: by T-degree, then by ground degree of the image.  Whenever a
    fiber is disconnected under the moves found so far, spanning-tree
    binomials are added.  Only the fibers the gate of `_reduced_fibers_at`
    leaves can be: each other fiber's smaller fibers come in earlier
    groups, already connected.  Only those fibers are built, one `_runs`
    run at a time, and each (T-degree, image ground degree) group of a run
    is labelled once, under every move found before the group: a move
    found in a group cannot join two fibers of it, so the moves found are
    canonical as a set.  They are listed by (image ground degree, T-degree),
    then image; `tie_break_seed` shuffles the fibers inside each group,
    which reorders the moves inside a bidegree only.

    Two components whose first members share a variable x_v both meet the
    smaller fiber b - deg(x_v); inside the ground bound an earlier group
    would have connected it, so a non-coprime spanning binomial means it
    lies beyond the bound, and RuntimeError says so.
    """
    rng = None if tie_break_seed is None else random.Random(tie_break_seed)
    n = spec.n
    width = n + spec.nrees
    found: list[tuple[tuple[int, int], Binomial]] = []
    # a spanning binomial joins two members of one fiber: a kernel move
    movearr = _move_array((), width)
    for _, _, level in _sweep_levels(spec, t_bound, ground_bound):
        firsts = level.rees[np.searchsorted(level.fiber, np.arange(len(level.images)))]
        groups = np.stack((firsts.sum(axis=1), level.images.sum(axis=1)), axis=1)
        for tau, degree in sorted(set(map(tuple, groups.tolist()))):
            group = level.select((groups == (tau, degree)).all(axis=1))
            labels = _fiber_components(group, movearr)
            split = group.split_fibers(labels)
            if rng is not None:
                rng.shuffle(split)
            added = []
            for f in split:
                reps = sorted(min(g) for g in group.components(f, labels))
                base = _mono(reps[0], n)
                for rep in reps[1:]:
                    bin_ = Binomial(base, _mono(rep, n))
                    if not bin_.is_coprime():
                        raise RuntimeError(f"non-coprime spanning binomial {bin_}: the fiber it spans, divided by "
                                           f"a shared variable, lies beyond the ground bound {ground_bound}")
                    added.append(bin_)
            if added:
                found += [((degree, tau), b) for b in added]
                movearr = np.concatenate((movearr, _move_array(added, width)))
    found.sort(key=lambda entry: entry[0])
    return MoveSet(spec, tuple(b for _, b in found))
