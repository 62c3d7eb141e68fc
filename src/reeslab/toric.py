"""Gröbner-free oracles for Rees-type toric ideals.

Everything here reduces to one primitive: the fiber of a monomial map.
Two source monomials are congruent modulo a set of binomial "moves" when a
chain of one-step rewrites q*lead <-> q*trail connects them; a binomial
lies in the ideal generated by the moves iff its two monomials are
congruent, and a move set generates the whole kernel iff every fiber is
connected.  Fibers here are finite because the map is bigraded and every
ideal generator has positive degree.

The full-sweep operations only visit *reduced* fibers (those whose members
share no common variable).  Multiplying a fiber by a variable is a
connectivity-preserving bijection as long as every move has coprime sides,
so reduced fibers decide the sweep; move sets are validated accordingly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import AciSpec, Binomial, Monomial

Vec = tuple[int, ...]


class KernelMismatch(ValueError):
    """A binomial whose two monomials have different images."""


class ClassCapExceeded(RuntimeError):
    """Congruence class grew past the search cap; raise the bound to decide."""

    def __init__(self, cap: int, explored: int):
        super().__init__(f"congruence class exceeded cap {cap} (explored {explored} states)")
        self.cap = cap
        self.explored = explored


@dataclass(frozen=True)
class ReesMapSpec:
    """The monomial map t_j -> a_j * T whose kernel is the Rees ideal.

    ``gens`` are the ground monomials a_1..a_m; source monomials live in
    (nground, m), images in (nground, 1) with the single Rees slot holding
    the T-degree.
    """

    nground: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.gens:
            if not g.is_ground() or len(g.ground) != self.nground:
                raise ValueError(f"generator {g} is not a ground monomial in {self.nground} variables")
            if g.ground_degree() == 0:
                raise ValueError("unit generator not allowed")

    @property
    def nrees(self) -> int:
        return len(self.gens)

    def image_of(self, m: Monomial) -> Monomial:
        if m.ambient != (self.nground, self.nrees):
            raise ValueError(f"monomial ambient {m.ambient} does not match map {(self.nground, self.nrees)}")
        ground = list(m.ground)
        for j, beta in enumerate(m.rees):
            if beta:
                for i, e in enumerate(self.gens[j].ground):
                    ground[i] += beta * e
        return Monomial(tuple(ground), (sum(m.rees),))

    def in_kernel(self, b: Binomial) -> bool:
        return self.image_of(b.lead) == self.image_of(b.trail)

    def degree_matrix(self) -> np.ndarray:
        return np.array([g.ground for g in self.gens], dtype=np.int64).reshape(self.nrees, self.nground)


def binary_spec(d: int, b: int) -> ReesMapSpec:
    """Map for I = (x^d, y^d, x^b y^(d-b)) with Rees variables t, u, v."""
    return ReesMapSpec(2, AciSpec((d, d), (b, d - b)).generators)


def ternary_spec(a: int, b: int) -> ReesMapSpec:
    """Map for I = (x^a, y^a, z^a, (xyz)^b) with Rees variables t, u, v, w."""
    return ReesMapSpec(3, AciSpec((a,) * 3, (b,) * 3).generators)


@dataclass(frozen=True)
class Fiber:
    """All source monomials sharing one image; bigraded, hence finite."""

    image: Monomial
    members: tuple[Monomial, ...]

    def __len__(self):
        return len(self.members)


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` non-negative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def fiber_enumerate(spec: ReesMapSpec, image: Monomial) -> Fiber:
    """Complete fiber of `image`, by solving the ground remainder for each
    composition of the T-degree over the Rees variables."""
    if image.ambient != (spec.nground, 1):
        raise ValueError(f"image ambient {image.ambient}, expected {(spec.nground, 1)}")
    tau = image.rees[0]
    members = []
    for beta in compositions(tau, spec.nrees):
        ground = list(image.ground)
        ok = True
        for j, bj in enumerate(beta):
            if bj:
                for i, e in enumerate(spec.gens[j].ground):
                    ground[i] -= bj * e
        if any(g < 0 for g in ground):
            ok = False
        if ok:
            members.append(Monomial(tuple(ground), beta))
    members.sort(key=Monomial.sort_key)
    return Fiber(image, tuple(members))


@dataclass(frozen=True)
class MoveSet:
    """Binomials in the kernel of a fixed Rees map, validated at build."""

    spec: ReesMapSpec
    moves: tuple[Binomial, ...]

    def __post_init__(self):
        for mv in self.moves:
            if not self.spec.in_kernel(mv):
                raise KernelMismatch(f"{mv} is not in the kernel of the map")

    def __iter__(self):
        return iter(self.moves)

    def __len__(self):
        return len(self.moves)

    def without(self, index: int) -> "MoveSet":
        return MoveSet(self.spec, self.moves[:index] + self.moves[index + 1:])


# -- congruence walking -----------------------------------------------------

def _vec(m: Monomial) -> Vec:
    return m.ground + m.rees


def _mono(vec: Vec, n: int) -> Monomial:
    return Monomial(vec[:n], vec[n:])


def _move_vecs(moves: Iterable[Binomial]) -> list[tuple[Vec, Vec]]:
    out = []
    for mv in moves:
        l, t = _vec(mv.lead), _vec(mv.trail)
        out.append((l, t))
        out.append((t, l))
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


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _fiber_components(member_vecs: Sequence[Vec], movevecs: Sequence[tuple[Vec, Vec]]) -> list[list[int]]:
    index = {v: i for i, v in enumerate(member_vecs)}
    uf = _UnionFind(len(member_vecs))
    for i, v in enumerate(member_vecs):
        for nb in _neighbors(v, movevecs):
            j = index.get(nb)
            if j is not None:
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(len(member_vecs)):
        groups.setdefault(uf.find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: member_vecs[g[0]])


def connected_under_moves(fiber: Fiber, moves: MoveSet | Sequence[Binomial]) -> tuple[tuple[Monomial, ...], ...]:
    """Partition of the fiber into congruence components, deterministically
    ordered by each component's smallest member."""
    movelist = list(moves.moves if isinstance(moves, MoveSet) else moves)
    vecs = [_vec(m) for m in fiber.members]
    comps = _fiber_components(vecs, _move_vecs(movelist))
    n = len(fiber.image.ground)
    return tuple(tuple(_mono(vecs[i], n) for i in comp) for comp in comps)


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


def binomial_in_binomial_ideal(b: Binomial, gens: MoveSet) -> bool:
    """Membership of a pure difference in the binomial ideal of `gens`:
    walk the congruence from b.lead and look for b.trail."""
    spec = gens.spec
    if spec.image_of(b.lead) != spec.image_of(b.trail):
        raise KernelMismatch(f"{b} is not a kernel element; images differ")
    return _vec(b.trail) in _congruence_class(_vec(b.lead), _move_vecs(gens.moves))


@dataclass(frozen=True)
class MixedMembership:
    """Outcome of a mixed-ideal membership walk; truthy iff member."""

    member: bool
    explored: int
    witness: Optional[Monomial] = None

    def __bool__(self):
        return self.member


def monomial_in_mixed_ideal(
    m: Monomial,
    diff_gens: Sequence[Binomial],
    mono_gens: Sequence[Monomial],
    cap: int = 10**6,
) -> MixedMembership:
    """Membership of `m` in (diff_gens) + (mono_gens) for homogeneous pure
    differences: true iff the congruence class of m under the difference
    moves contains a multiple of some monomial generator.

    Raises ClassCapExceeded instead of answering when the class outgrows
    `cap` (at least 1); the caller must raise the bound.
    """
    monos = [_vec(g) for g in mono_gens]
    n = len(m.ground)
    for explored, state in enumerate(_congruence_class(_vec(m), _move_vecs(diff_gens)), start=1):
        if any(all(s >= g for s, g in zip(state, mg)) for mg in monos):
            return MixedMembership(True, explored, _mono(state, n))
        if explored > cap:
            raise ClassCapExceeded(cap, explored)
    return MixedMembership(False, explored)


# -- full fiber sweeps -------------------------------------------------------

def _require_coprime(moves: Sequence[Binomial]) -> None:
    for mv in moves:
        if not mv.is_coprime():
            raise ValueError(f"sweep requires coprime moves, got {mv}")


def _reduced_fibers_at(spec: ReesMapSpec, tau: int, ground_bound: int):
    """Yield (image_vec, member_vecs, min_ground_degree) for every reduced
    fiber of T-degree tau whose smallest member has ground degree within
    bound.  A reduced fiber's image is the coordinatewise max of at most
    nground member image vectors, so candidates are exactly the maxes of
    small subsets of composition images.
    """
    comps = list(compositions(tau, spec.nrees))
    A = np.array(comps, dtype=np.int64).reshape(len(comps), spec.nrees)
    G = A @ spec.degree_matrix()  # image ground vector of each pure Rees monomial
    k = len(comps)
    n = spec.nground
    subset_size = min(n, k)
    idx = np.array(
        list(itertools.combinations_with_replacement(range(k), subset_size)), dtype=np.int64
    )
    cand = G[idx[:, 0]]
    for col in range(1, subset_size):
        cand = np.maximum(cand, G[idx[:, col]])
    cand = np.unique(cand, axis=0)
    member = (cand[:, None, :] >= G[None, :, :]).all(axis=2)  # (ncand, k)
    sizes = member.sum(axis=1)
    gsum = G.sum(axis=1)
    for c in np.nonzero(sizes >= 2)[0]:
        rows = np.nonzero(member[c])[0]
        total = int(cand[c].sum())
        min_ground = total - int(gsum[rows].max())
        if min_ground > ground_bound:
            continue
        image_vec = tuple(int(x) for x in cand[c])
        members = []
        for r in rows:
            gpart = tuple(int(x) for x in (cand[c] - G[r]))
            members.append(gpart + comps[r])
        yield image_vec, members, min_ground


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

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def generates_up_to(spec: ReesMapSpec, moves: MoveSet, t_bound: int, ground_bound: int) -> GenerationReport:
    """Pass iff every fiber with T-degree <= t_bound and source ground
    degree <= ground_bound is connected under `moves`.  Fibers are checked
    in increasing (T-degree, image) order and the sweep stops at the first
    disconnected one, so the failure is deterministic.
    """
    _require_coprime(list(moves))
    movevecs = _move_vecs(moves.moves)
    n = spec.nground
    checked = 0
    for tau in range(t_bound + 1):
        for image_vec, member_vecs, _ in sorted(_reduced_fibers_at(spec, tau, ground_bound), key=lambda f: f[0]):
            checked += 1
            comps = _fiber_components(member_vecs, movevecs)
            if len(comps) > 1:
                parts = tuple(tuple(_mono(member_vecs[i], n) for i in comp) for comp in comps)
                failure = FiberFailure(Monomial(image_vec, (tau,)), parts)
                return GenerationReport(t_bound, ground_bound, checked, failure)
    return GenerationReport(t_bound, ground_bound, checked)


def bruteforce_min_gens(
    spec: ReesMapSpec,
    t_bound: int,
    ground_bound: int,
    tie_break_seed: int | None = None,
) -> MoveSet:
    """Independent oracle for a minimal generating set within bounds.

    Fibers are processed in an order refining divisibility of images
    (total image degree is strictly monotone); whenever a fiber is
    disconnected under the moves found so far, spanning-tree binomials
    are added.  The number added per bidegree is canonical even though
    the chosen binomials are not.  `tie_break_seed` shuffles the order
    of incomparable fibers, which must not change the counts.
    """
    n = spec.nground
    all_fibers = []
    for tau in range(t_bound + 1):
        for image_vec, member_vecs, _ in _reduced_fibers_at(spec, tau, ground_bound):
            key = (sum(image_vec), tau, image_vec)
            all_fibers.append((key, tau, member_vecs))
    if tie_break_seed is None:
        all_fibers.sort(key=lambda f: f[0])
    else:
        import random

        rng = random.Random(tie_break_seed)
        jitter = {id(f): rng.random() for f in all_fibers}
        # incomparable fibers (same total degree and T-degree) may be
        # visited in any order; the counts must not depend on it
        all_fibers.sort(key=lambda f: (f[0][0], f[0][1], jitter[id(f)]))

    found: list[Binomial] = []
    movevecs: list[tuple[Vec, Vec]] = []
    for _, tau, member_vecs in all_fibers:
        comps = _fiber_components(member_vecs, movevecs)
        if len(comps) == 1:
            continue
        reps = [min(member_vecs[i] for i in comp) for comp in comps]
        reps.sort()
        base = _mono(reps[0], n)
        for rep in reps[1:]:
            bin_ = Binomial(base, _mono(rep, n))
            if not bin_.is_coprime():
                raise RuntimeError(f"non-coprime spanning binomial {bin_}; fiber order violated")
            found.append(bin_)
            l, t = _vec(bin_.lead), _vec(bin_.trail)
            movevecs.append((l, t))
            movevecs.append((t, l))
    return MoveSet(spec, tuple(found))
