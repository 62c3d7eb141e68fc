"""Reference routes for the tests of the fiber kernels.

`reference_image` is the image of a monomial under the Rees map of an
`AciSpec` as the literal product x^g * prod_j generator_j^(beta_j) in
`Monomial` arithmetic, the reference for `AciSpec.images`.

`reference_fiber` lists the members of one fiber, composition by
composition, in `Monomial.sort_key` order; the tests of the array builder
`toric._fibers_of` and of the sweep's fiber enumeration compare against it.

`image_level` and `connected_under_moves` are not references but the
kernel's one-image route, kept here for the tests: the level `_fibers_of`
builds for one image, and its components under `_fiber_components`.

`reference_reduced_fibers` is the level of every reduced fiber of one
T-degree within the ground bound, as `toric._reduced_fibers_at` built it
before it built its member mask a bounded block at a time and before it
gated the fibers: one dense (candidates x compositions) matrix per level.

`reference_complex` and `reference_undecided` are the divisor-complex gate
of `toric._reduced_fibers_at` read off one fiber's members as sets of
variables.  `reference_gate` is the same gate on a whole dense level's
member rows, the full-level gate the sweeps ran before the gate moved onto
the member cells, and `reference_gated` is what `_reduced_fibers_at`
returns for one T-degree, from the dense level gated by it.

`reference_min_gens` is `toric.bruteforce_min_gens` without the
divisor-complex gate: it labels every (T-degree, image ground degree)
group of reduced fibers with its own `_fiber_components` call, under every
move found before the group, where the brute force builds and labels only
the fibers of the group that the gate leaves.

`reference_generates_up_to` and `reference_binomials_in_binomial_ideal` are
the loops `toric.generates_up_to` and `toric.binomials_in_binomial_ideal`
had before they labelled `_runs` runs of consecutive T-degrees as one
level: one `_fiber_components` call per T-degree level, and
`reference_generates_up_to` labels every reduced fiber of the level, not
only those the gate leaves.

`join_levels` joins levels of increasing T-degree into one, the level a
run of those T-degrees gives.
"""
import itertools
import random

import numpy as np

from reeslab.core import Binomial, Monomial
from reeslab.toric import (
    FiberFailure,
    GenerationReport,
    MoveSet,
    _check_kernel,
    _distinct_rows,
    _fiber_components,
    _fibers_of,
    _Level,
    _mono,
    _move_array,
    _require_coprime,
    compositions,
)


def reference_image(spec, m):
    """The image of m = x^g * t^beta: the product x^g * prod_j
    generator_j^(beta_j), and T^|beta|."""
    ground = Monomial(m.ground)
    for gen, beta in zip(spec.generators, m.rees, strict=True):
        ground = ground * gen.power(beta)
    return Monomial(ground.ground, (m.rees_degree(),))


def reference_fiber(spec, image):
    """Members of the fiber of `image`, sorted by `Monomial.sort_key`: for
    each composition of the T-degree over the Rees variables, the ground
    remainder, when it is non-negative."""
    if image.ambient != (spec.n, 1):
        raise ValueError(f"image ambient {image.ambient}, expected {(spec.n, 1)}")
    members = []
    gens = spec.generators
    for beta in compositions(image.rees[0], spec.nrees):
        ground = list(image.ground)
        for j, bj in enumerate(beta):
            if bj:
                for i, e in enumerate(gens[j].ground):
                    ground[i] -= bj * e
        if all(g >= 0 for g in ground):
            members.append(Monomial(tuple(ground), beta))
    members.sort(key=Monomial.sort_key)
    return tuple(members)


def image_level(spec, image):
    """The one-image level of `_fibers_of`: the complete fiber of `image`."""
    if image.ambient != (spec.n, 1):
        raise ValueError(f"image ambient {image.ambient}, expected {(spec.n, 1)}")
    return _fibers_of(spec, np.array([image.rees + image.ground], dtype=np.int64))


def connected_under_moves(image, moves):
    """The complete fiber of `image` partitioned into congruence
    components, in `_Level.components` order: each component's members by
    Rees exponents in `compositions` order, the components by their first
    members' exponent vectors (ground, then Rees).  An empty fiber gives ()."""
    level = image_level(moves.spec, image)
    parts = level.components(0, _fiber_components(level, moves.array))
    return tuple(tuple(_mono(v, moves.spec.n) for v in g) for g in parts)


def reference_reduced_fibers(spec, tau, ground_bound):
    """Every reduced fiber of T-degree tau whose smallest member is within
    the ground bound, with the whole member matrix of the level built at once."""
    comps = np.array(list(compositions(tau, spec.nrees)), dtype=np.int64).reshape(-1, spec.nrees)
    G = comps @ spec.degree_matrix  # image ground vector of each pure Rees monomial
    k = len(comps)
    size = min(spec.n, k)
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(k), size)), dtype=np.int64
    ).reshape(-1, size)
    cand = G[idx[:, 0]]
    for col in range(1, size):
        cand = np.maximum(cand, G[idx[:, col]])
    # distinct candidates in increasing order, through one mixed-radix code
    radix = int(G.max(initial=0)) + 1
    code = cand @ radix ** np.arange(spec.n - 1, -1, -1, dtype=np.int64)
    code.sort()
    code = code[np.diff(code, prepend=-1) != 0]
    cand = np.empty((len(code), spec.n), dtype=np.int64)
    for i in range(spec.n - 1, -1, -1):
        code, cand[:, i] = np.divmod(code, radix)
    member = np.ones((len(cand), k), dtype=bool)
    for i in range(spec.n):
        member &= cand[:, i, None] >= G[None, :, i]
    reduced = (member @ (comps == 0)).all(axis=1)  # each t_j is missing from some member
    keep = reduced & (member.sum(axis=1) >= 2)
    cand, member = cand[keep], member[keep]
    gsum = G.sum(axis=1)
    by_gsum = np.argsort(-gsum)
    min_ground = cand.sum(axis=1) - gsum[by_gsum][member[:, by_gsum].argmax(axis=1)]
    keep = min_ground <= ground_bound
    cand, member = cand[keep], member[keep]
    fiber, col = np.divmod(np.flatnonzero(member), k)
    return _Level(cand, fiber, cand[fiber] - G[col], comps[col])


def reference_complex(members):
    """The components of the squarefree divisor complex of the fiber of
    `members`, found by merging the supports of the members, and for each
    vertex x_v the smallest ground degree in its smaller fiber: the members
    divisible by x_v, divided by it."""
    n = len(members[0].ground)
    supports = [{v for v, e in enumerate(m.ground + m.rees) if e} for m in members]
    parts = []
    for support in supports:
        meet = [p for p in parts if p & support]
        parts = [p for p in parts if not p & support] + [set(support).union(*meet)]
    smallest = {}
    for m, support in zip(members, supports):
        degree = m.ground_degree()
        for v in support:
            smallest[v] = min(smallest.get(v, degree), degree - (v < n))
    return parts, smallest


def reference_undecided(members, ground_bound):
    """Whether the complex leaves the fiber undecided: it is disconnected,
    or some vertex's smaller fiber lies beyond the ground bound."""
    parts, smallest = reference_complex(members)
    return len(parts) > 1 or max(smallest.values()) > ground_bound


def level_members(level):
    """The members of each fiber of `level` as `Monomial`s, in member order."""
    members = [[] for _ in range(len(level.images))]
    for f, ground, rees in zip(level.fiber.tolist(), level.ground.tolist(), level.rees.tolist()):
        members[f].append(Monomial(tuple(ground), tuple(rees)))
    return members


def reference_gate(level, ground_bound):
    """Which fibers of a dense level of reduced fibers (one bool per fiber)
    the divisor complex leaves undecided, computed on the level's member
    rows, as `toric._undecided` did before the gate moved onto the member
    cells of `_reduced_fibers_at`.  Each set of variables is an int32
    bitmask, ground variables first."""
    n = level.ground.shape[1]
    masks = sum((column > 0).astype(np.int32) << v for v, column in enumerate([*level.ground.T, *level.rees.T]))
    starts = np.searchsorted(level.fiber, np.arange(len(level.images)))
    vertices = np.bitwise_or.reduceat(masks, starts)
    degree = sum(level.ground.T)
    inside = np.where(degree <= ground_bound, -1, np.where(degree == ground_bound + 1, (1 << n) - 1, 0))
    beyond = (vertices & ~np.bitwise_or.reduceat(masks & inside, starts)) != 0
    reach = masks[starts]
    while True:
        grown = np.bitwise_or.reduceat(np.where(masks & reach[level.fiber], masks, 0), starts)
        if np.array_equal(grown, reach):
            return beyond | (reach != vertices)
        reach = grown


def reference_gated(spec, tau, ground_bound):
    """`_reduced_fibers_at(spec, [tau], ground_bound)` from the dense level
    of `reference_reduced_fibers`, gated by `reference_gate`: the number of
    reduced fibers, the indices of the undecided ones, and their level."""
    level = reference_reduced_fibers(spec, tau, ground_bound)
    undecided = reference_gate(level, ground_bound)
    return len(level.images), np.flatnonzero(undecided), _select(level, undecided)


def _select(level, keep):
    """The level made of the fibers where `keep` is true."""
    rows = keep[level.fiber]
    renumber = np.cumsum(keep) - 1
    return _Level(level.images[keep], renumber[level.fiber[rows]], level.ground[rows], level.rees[rows])


def join_levels(levels):
    """Levels of increasing T-degree as one level: fiber ids continue
    across them, so the members stay sorted by fiber id."""
    offsets = np.cumsum([0] + [len(level.images) for level in levels[:-1]])
    return _Level(
        np.concatenate([level.images for level in levels]),
        np.concatenate([level.fiber + offset for level, offset in zip(levels, offsets)]),
        np.concatenate([level.ground for level in levels]),
        np.concatenate([level.rees for level in levels]),
    )


def reference_min_gens(spec, t_bound, ground_bound, tie_break_seed=None):
    """`bruteforce_min_gens` with one labelling per (T-degree, image ground
    degree) group, under every move found before the group."""
    rng = None if tie_break_seed is None else random.Random(tie_break_seed)
    n = spec.n
    width = n + spec.nrees
    found = []
    movearr = _move_array((), width)
    for tau in range(t_bound + 1):
        level = reference_reduced_fibers(spec, tau, ground_bound)
        degrees = level.images.sum(axis=1)
        for degree in sorted(set(degrees.tolist())):
            group = _select(level, degrees == degree)
            labels = _fiber_components(group, movearr)
            split = group.split_fibers(labels)
            if rng is not None:
                rng.shuffle(split)
            added = []
            for f in split:
                reps = sorted(min(g) for g in group.components(f, labels))
                base = _mono(reps[0], n)
                added += [Binomial(base, _mono(rep, n)) for rep in reps[1:]]
            if added:
                found += [((degree, tau), b) for b in added]
                movearr = np.concatenate((movearr, _move_array(added, width)))
    found.sort(key=lambda entry: entry[0])
    return MoveSet(spec, tuple(b for _, b in found))


def reference_generates_up_to(moves, t_bound, ground_bound):
    """`generates_up_to` with one labelling per T-degree level."""
    spec = moves.spec
    _require_coprime(list(moves))
    checked = 0
    for tau in range(t_bound + 1):
        level = reference_reduced_fibers(spec, tau, ground_bound)
        labels = _fiber_components(level, moves.array)
        split = level.split_fibers(labels)
        if split:
            f = split[0]
            parts = level.components(f, labels)
            image = Monomial(tuple(level.images[f].tolist()), (tau,))
            failure = FiberFailure(image, tuple(tuple(_mono(v, spec.n) for v in g) for g in parts))
            return GenerationReport(t_bound, ground_bound, checked + f + 1, failure)
        checked += len(level.images)
    return GenerationReport(t_bound, ground_bound, checked)


def reference_binomials_in_binomial_ideal(leads, trails, moves):
    """`binomials_in_binomial_ideal` with one labelling per T-degree level."""
    spec = moves.spec
    n = spec.n
    leads, trails = np.asarray(leads, dtype=np.int64), np.asarray(trails, dtype=np.int64)
    images = _check_kernel(spec, leads, trails)
    out = np.zeros(len(leads), dtype=bool)
    for tau in sorted(set(images[:, n].tolist())):
        rows = np.flatnonzero(images[:, n] == tau)
        ground, fiber = _distinct_rows(images[rows, :n])
        level = _fibers_of(spec, np.insert(ground, 0, tau, axis=1))
        labels = _fiber_components(level, moves.array)
        keys = level.key(level.fiber, level.rees)
        lead_at = np.searchsorted(keys, level.key(fiber, leads[rows, n:]))
        trail_at = np.searchsorted(keys, level.key(fiber, trails[rows, n:]))
        out[rows] = labels[lead_at] == labels[trail_at]
    return out
