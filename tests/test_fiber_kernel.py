"""Property tests of the batched fiber-connectivity kernel.

The references here are a plain breadth-first search over the members of
one fiber, the pure-Python fiber enumeration of `fiber_reference`, and the
congruence walk `binomial_in_binomial_ideal`.  The kernel under test
labels whole T-degree levels at once (the levels `_reduced_fibers_at` or
`_fibers_of` build, plus `_fiber_components`), and serves `generates_up_to`,
`bruteforce_min_gens` and `binomials_in_binomial_ideal`; its one-image
route, `fiber_reference.connected_under_moves` on the level
`fiber_reference.image_level`, is tested here too.
`bruteforce_min_gens` labels each (T-degree, image ground degree) group
of the fibers the gate leaves; the same rule over every fiber is its
reference (`fiber_reference.reference_min_gens`).
`_reduced_fibers_at` builds its member mask a bounded block at a time,
gates the fibers on the mask's member cells and builds member rows only
for the fibers the gate leaves; its references are the dense matrix it
replaced (`fiber_reference.reference_reduced_fibers`), gated fiber by
fiber by `fiber_reference.reference_undecided` or, on the larger grids,
level by level by `fiber_reference.reference_gate`, the full-level gate
the sweeps ran before (itself compared with `reference_undecided`).
`binomials_in_binomial_ideal` labels the level of each run of
consecutive T-degrees with one `_fiber_components` call, and
`generates_up_to` each run's level as soon as it is built; their per-level
loops are the references (`fiber_reference.reference_generates_up_to` and
`reference_binomials_in_binomial_ideal`), compared under several
joint-level budgets.  Both sweeps build and label only the fibers
that the divisor-complex gate leaves, and the full labelling of every
fiber stays the reference of the sweeps, also under ground bounds tight
enough that the gate's bound condition binds.
`binomials_in_binomial_ideal` answers a row with an isolated endpoint, or
with equal sides, without building its fiber; a spy on `_fibers_of`
checks which fibers are built.
The sweeps and the memberships build runs of consecutive T-degrees as one
level while the run's (compositions x images) cells stay within
`_JOINT_CELLS` and its members stay keyable (`_runs`, tested directly);
under several such budgets, and several member-mask block sizes, each
run's gated result equals that of its one-T-degree runs joined by
`fiber_reference.join_levels` and of their gated dense references, and
the memberships and colon-claim reports are those of one level per
T-degree.
"""
import itertools
import re
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fiber_reference import (
    connected_under_moves,
    image_level,
    join_levels,
    level_members,
    reference_binomials_in_binomial_ideal,
    reference_complex,
    reference_fiber,
    reference_gate,
    reference_gated,
    reference_generates_up_to,
    reference_image,
    reference_min_gens,
    reference_reduced_fibers,
    reference_undecided,
)
from monomial_text import divides
from reeslab import toric

from reeslab.binary import sigma_set
from reeslab.core import AciSpec, Binomial, Monomial
from reeslab.ternary import colon_claims, ternary_gens, verify_colon_claims
from reeslab.toric import (
    GenerationReport,
    MoveSet,
    KernelMismatch,
    _fiber_components,
    _fibers_of,
    _Level,
    _reduced_fibers_at,
    _runs,
    binary_spec,
    binomial_in_binomial_ideal,
    binomials_in_binomial_ideal,
    bruteforce_min_gens,
    compositions,
    generates_up_to,
    ternary_spec,
)

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def bfs_partition(members, moves):
    """Components of `members` under `moves` as a set of frozensets of
    exponent vectors, by breadth-first search inside the member set."""
    vecs = {m.ground + m.rees for m in members}
    steps = [(mv.lead.ground + mv.lead.rees, mv.trail.ground + mv.trail.rees) for mv in moves]
    steps += [(b, a) for a, b in steps]
    parts, seen = set(), set()
    for start in sorted(vecs):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            v = queue.pop()
            for a, b in steps:
                if all(x >= y for x, y in zip(v, a)):
                    w = tuple(x - y + z for x, y, z in zip(v, a, b))
                    if w in vecs and w not in comp:
                        comp.add(w)
                        queue.append(w)
        seen |= comp
        parts.add(frozenset(comp))
    return parts


def is_reduced(members):
    common = members[0]
    for m in members[1:]:
        common = common.gcd(m)
    return common.is_unit()


def reference_sweep(moves, t_bound, g):
    """(fibers checked, first failure image, its partition) over the reduced
    fibers of `moves.spec` in increasing (T-degree, image) order, or
    (count, None, None)."""
    spec = moves.spec
    checked = 0
    for tau in range(t_bound + 1):
        images = {
            spec.image_of(Monomial(ground, beta))
            for beta in compositions(tau, spec.nrees)
            for total in range(g + 1)
            for ground in compositions(total, spec.n)
        }
        for image in sorted(images, key=lambda im: im.ground):
            members = reference_fiber(spec, image)
            if len(members) < 2 or min(m.ground_degree() for m in members) > g or not is_reduced(members):
                continue
            checked += 1
            parts = bfs_partition(members, moves)
            if len(parts) > 1:
                return checked, image, parts
    return checked, None, None


def coprime_kernel_move(spec, beta1, beta2):
    """The coprime kernel binomial joining two pure Rees monomials of one
    T-degree after padding both with ground to a common image."""
    img1 = spec.image_of(Monomial((0,) * spec.n, beta1)).ground
    img2 = spec.image_of(Monomial((0,) * spec.n, beta2)).ground
    top = tuple(max(p, q) for p, q in zip(img1, img2))
    lead = Monomial(tuple(t - p for t, p in zip(top, img1)), beta1)
    trail = Monomial(tuple(t - q for t, q in zip(top, img2)), beta2)
    common = lead.gcd(trail)
    return Binomial(lead.divide(common), trail.divide(common))


def _drop_some(draw, moves):
    """The move set with up to three of its moves dropped."""
    drop = draw(st.sets(st.integers(0, max(len(moves) - 1, 0)), max_size=min(3, len(moves))))
    return MoveSet(moves.spec, tuple(mv for i, mv in enumerate(moves) if i not in drop))


@st.composite
def random_cases(draw):
    # a random ACI map in 2 or 3 variables, its exponents drawn one by one
    # (in 3 variables one mixed exponent may be zero, and then its pure
    # power may be linear), and the coprime kernel moves between the pure
    # Rees monomials of T-degree <= 1 or <= 2
    n = draw(st.sampled_from([2, 3]))
    zero = draw(st.sampled_from([None, *range(n)])) if n == 3 else None
    a = tuple(draw(st.integers(1 if i == zero else 2, 3)) for i in range(n))
    spec = AciSpec(a, tuple(0 if i == zero else draw(st.integers(1, ai - 1)) for i, ai in enumerate(a)))
    moves = []
    for tau in range(1, draw(st.integers(1, 2)) + 1):
        comps = list(compositions(tau, spec.nrees))
        for i, beta1 in enumerate(comps):
            for beta2 in comps[i + 1:]:
                mv = coprime_kernel_move(spec, beta1, beta2)
                if mv not in moves:
                    moves.append(mv)
    return _drop_some(draw, MoveSet(spec, tuple(moves))), 3, 4


@st.composite
def sigma_cases(draw):
    d = draw(st.integers(2, 6))
    b = draw(st.sampled_from([b for b in range(1, d) if gcd(d, b) == 1]))
    return _drop_some(draw, sigma_set(d, b).moves), 3, 2 * d


@st.composite
def ternary_cases(draw):
    a = draw(st.integers(3, 5))
    b = draw(st.integers(1, (a - 1) // 2))
    return _drop_some(draw, ternary_gens(a, b).moves), 2, a


cases = st.one_of(random_cases(), sigma_cases(), ternary_cases())


@SETTINGS
@given(cases)
def test_level_labels_match_bfs_per_fiber(case):
    moves, t_bound, g = case
    spec = moves.spec
    for tau in range(t_bound + 1):
        level = reference_reduced_fibers(spec, tau, g)
        labels = _fiber_components(level, moves.array)
        vecs = [tuple(g) + tuple(r) for g, r in zip(level.ground.tolist(), level.rees.tolist())]
        for f, image in enumerate(level.images.tolist()):
            rows = [i for i in range(len(level)) if level.fiber[i] == f]
            got = {}
            for i in rows:
                got.setdefault(labels[i], set()).add(vecs[i])
            assert all(labels[i] <= i for i in rows)
            members = reference_fiber(spec, Monomial(tuple(image), (tau,)))
            assert {frozenset(p) for p in got.values()} == bfs_partition(members, moves)


@SETTINGS
@given(cases)
def test_connected_under_moves_matches_bfs(case):
    # whole fibers, reduced or not, and empty ones: the BFS partition of
    # the complete fiber, each part by Rees exponents, the parts by their
    # first members' exponent vectors
    moves, t_bound, g = case
    spec = moves.spec
    for tau in range(1, t_bound + 1):
        for beta in compositions(tau, spec.nrees):
            image = spec.image_of(Monomial((1,) * spec.n, beta))
            members = reference_fiber(spec, image)
            parts = connected_under_moves(image, moves)
            firsts = [p[0].ground + p[0].rees for p in parts]
            assert firsts == sorted(firsts)
            assert all([m.rees for m in p] == sorted(m.rees for m in p) for p in parts)
            assert {frozenset(m.ground + m.rees for m in p) for p in parts} == bfs_partition(members, moves)
            assert sorted(m for p in parts for m in p) == sorted(members)
        assert connected_under_moves(Monomial((0,) * spec.n, (tau,)), moves) == ()


@SETTINGS
@given(cases)
def test_generates_up_to_matches_reference_sweep(case):
    moves, t_bound, g = case
    report = generates_up_to(moves, t_bound, g)
    checked, image, parts = reference_sweep(moves, t_bound, g)
    assert report.fibers_checked == checked
    assert report.passed == (image is None)
    if image is not None:
        failure = report.first_failure
        assert failure.image == image
        assert {frozenset(m.ground + m.rees for m in p) for p in failure.components} == parts


@st.composite
def tight_random_cases(draw):
    """The moves of `random_cases` under tight bounds: T-degree <= 1..3 and
    ground degree <= 0..3, where many smaller fibers lie beyond the bound."""
    moves, _, _ = draw(random_cases())
    return moves, draw(st.integers(1, 3)), draw(st.integers(0, 3))


@SETTINGS
@given(st.one_of(cases, tight_random_cases()))
def test_undecided_fibers_match_the_reference_gate(case):
    # the gate on every reduced fiber of the dense level, each complete
    # fiber enumerated on its own; then the level of the undecided ones
    moves, t_bound, g = case
    spec = moves.spec
    for tau in range(t_bound + 1):
        count, undecided, level = _reduced_fibers_at(spec, [tau], g)
        full = reference_reduced_fibers(spec, tau, g)
        expected = np.array([reference_undecided(reference_fiber(spec, Monomial(tuple(image), (tau,))), g)
                             for image in full.images.tolist()], dtype=bool)
        assert count == len(full.images)
        assert undecided.dtype == np.int64 and undecided.tolist() == np.flatnonzero(expected).tolist()
        _assert_same_level(level, full.select(expected))


def assert_min_gens_match_the_reference(spec, t_bound, g, seed):
    """The brute force gives the reference's moves, or refuses exactly
    when the reference adds a binomial with a shared variable."""
    expected = reference_min_gens(spec, t_bound, g, tie_break_seed=seed).moves
    if all(mv.is_coprime() for mv in expected):
        assert bruteforce_min_gens(spec, t_bound, g, tie_break_seed=seed).moves == expected
    else:
        with pytest.raises(RuntimeError, match="non-coprime spanning binomial"):
            bruteforce_min_gens(spec, t_bound, g, tie_break_seed=seed)


@SETTINGS
@given(tight_random_cases(), st.sampled_from([None, 0, 1]))
def test_gated_sweeps_match_the_full_labelling_under_tight_bounds(case, seed):
    # under a tight bound a spanning binomial may share a variable, whose
    # smaller fiber lies beyond the bound
    moves, t_bound, g = case
    assert generates_up_to(moves, t_bound, g) == reference_generates_up_to(moves, t_bound, g)
    assert_min_gens_match_the_reference(moves.spec, t_bound, g, seed)


@pytest.mark.parametrize("d", range(2, 13))
def test_the_fibers_labelled_are_the_generators_images(d):
    # under the full Sigma set only the generators' fibers are left to the
    # kernel: each has a disconnected complex, every other fiber is decided
    for b in range(1, d):
        if gcd(d, b) != 1:
            continue
        moves = sigma_set(d, b).moves
        spec = moves.spec
        report = generates_up_to(moves, d + 1, 3 * d)
        assert report.passed and report.fibers_labelled == len(moves)
        labelled = []
        for tau in range(d + 2):
            _, _, level = _reduced_fibers_at(spec, [tau], 3 * d)
            labelled += [Monomial(tuple(image), (tau,)) for image in level.images.tolist()]
        assert sorted(labelled) == sorted(spec.image_of(mv.lead) for mv in moves), b


def test_fibers_labelled_stay_out_of_the_report_equality():
    report = generates_up_to(sigma_set(7, 3).moves, 8, 21)
    assert report.fibers_labelled == 6
    assert report == GenerationReport(8, 21, report.fibers_checked)


def test_a_connected_complex_is_labelled_when_a_smaller_fiber_lies_beyond_the_bound():
    # ternary (5, 2), ground bound 15: the fiber of x^7 y^10 z^10 T^2 has a
    # connected complex and its smallest member, x^3 y^6 z^6 w^2, is within
    # the bound; but its members divisible by v have ground degree 16 or
    # more, so the fiber b - deg(v) is not checked and b is labelled
    spec = ternary_spec(5, 2)
    members = reference_fiber(spec, Monomial((7, 10, 10), (2,)))
    parts, smallest = reference_complex(members)
    assert len(parts) == 1
    assert min(m.ground_degree() for m in members) == 15
    assert smallest[5] == 16  # v, the third Rees variable
    # ground bound 16 lets every smaller fiber in, and then it is decided
    for bound, labelled in ((15, True), (16, False)):
        _, undecided, level = _reduced_fibers_at(spec, [2], bound)
        at = reference_reduced_fibers(spec, 2, bound).images.tolist().index([7, 10, 10])
        assert (at in undecided.tolist()) == labelled
        assert ([7, 10, 10] in level.images.tolist()) == labelled


@SETTINGS
@given(cases, st.sampled_from([None, 0, 1]))
def test_bruteforce_min_gens_matches_the_reference_on_every_case(case, seed):
    # random maps, Sigma sets and ternary sets alike, under their bounds
    moves, t_bound, g = case
    assert_min_gens_match_the_reference(moves.spec, t_bound, g, seed)


def test_a_non_coprime_spanning_binomial_names_the_ground_bound():
    # (x^3, y^3, z^3, x*y*z^2) under ground bound 2: the fiber of
    # z^4*t*u and y^3*z*t*v, divided by their common z*t, has members of
    # ground degree 3 only, so it was never checked; bound 3 lets it in
    spec = AciSpec((3, 3, 3), (1, 1, 2))
    with pytest.raises(RuntimeError, match=re.escape(
            "non-coprime spanning binomial z^4*t*u - y^3*z*t*v: the fiber it spans, divided by a shared variable, "
            "lies beyond the ground bound 2")):
        bruteforce_min_gens(spec, 2, 2)
    assert len(bruteforce_min_gens(spec, 2, 3)) == 8


def test_bruteforce_labels_each_group_of_undecided_fibers_once(monkeypatch):
    # binary (11, 5): the eight generators' fibers, two members each, one
    # (T-degree, image ground degree) group each
    calls = []
    label = toric._fiber_components

    def spy(level, moves):
        calls.append(len(level))
        return label(level, moves)

    monkeypatch.setattr(toric, "_fiber_components", spy)
    assert len(bruteforce_min_gens(binary_spec(11, 5), 12, 33)) == 8
    assert calls == [2] * 8


def test_a_level_without_members_is_labelled_at_once(monkeypatch):
    # the gate often leaves no fiber of a run; such a level is not keyed
    level = reference_reduced_fibers(binary_spec(11, 5), 3, 33)
    empty = level.select(np.zeros(len(level.images), dtype=bool))

    def unreachable(*args):
        raise AssertionError("an empty level was keyed")

    monkeypatch.setattr(_Level, "key", unreachable)
    assert _fiber_components(empty, sigma_set(11, 5).moves.array).tolist() == []


@pytest.mark.parametrize("d", range(2, 13))
def test_bruteforce_min_gens_matches_the_per_group_reference(d):
    # every coprime b, and the tie-break shuffles: same binomials, same order
    for b in range(1, d):
        if gcd(d, b) == 1:
            spec = binary_spec(d, b)
            for seed in (None, 0, 1, 2):
                got = bruteforce_min_gens(spec, d + 1, 3 * d, tie_break_seed=seed)
                assert got.moves == reference_min_gens(spec, d + 1, 3 * d, tie_break_seed=seed).moves, (d, b, seed)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3, 7) for b in range(1, (a - 1) // 2 + 1)])
def test_bruteforce_min_gens_matches_the_per_group_reference_ternary(a, b):
    # several fibers split in one group here, so the shuffles reorder moves
    spec = ternary_spec(a, b)
    for seed in (None, 0, 1, 2):
        got = bruteforce_min_gens(spec, 4, 3 * a, tie_break_seed=seed)
        assert got.moves == reference_min_gens(spec, 4, 3 * a, tie_break_seed=seed).moves, seed


def _assert_same_level(got, expected):
    for name in ("images", "fiber", "ground", "rees"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def _assert_same_gated(got, expected):
    """Two (reduced fibers, undecided indices, level) results are equal."""
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    _assert_same_level(got[2], expected[2])


def assert_gated_as_the_dense_reference(spec, tau, g):
    """`_reduced_fibers_at` of one T-degree is the dense level gated fiber
    by fiber by `reference_undecided`, and `reference_gate` agrees."""
    full = reference_reduced_fibers(spec, tau, g)
    expected = np.array([reference_undecided(members, g) for members in level_members(full)], dtype=bool)
    assert reference_gate(full, g).tolist() == expected.tolist()
    _assert_same_gated(_reduced_fibers_at(spec, [tau], g), (len(full.images), np.flatnonzero(expected),
                                                           full.select(expected)))


@pytest.mark.parametrize("d", range(2, 13))
def test_reduced_fibers_match_the_dense_reference(d):
    # every coprime b, every T-degree the sweeps of criteria 2 and 3 visit
    for b in range(1, d):
        if gcd(d, b) == 1:
            for tau in range(d + 2):
                assert_gated_as_the_dense_reference(binary_spec(d, b), tau, 3 * d)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3, 7) for b in range(1, (a - 1) // 2 + 1)])
def test_reduced_fibers_match_the_dense_reference_ternary(a, b):
    for tau in range(5):
        assert_gated_as_the_dense_reference(ternary_spec(a, b), tau, 3 * a)


def test_move_sets_refuse_the_first_move_off_the_kernel():
    spec = AciSpec((2, 2), (1, 1))
    kernel = Binomial(Monomial((0, 0), (1, 1, 0)), Monomial((0, 0), (0, 0, 2)))  # t*u - v^2
    first = Binomial(Monomial((0, 0), (1, 1, 0)), Monomial((1, 0), (0, 0, 2)))  # t*u - x*v^2
    second = Binomial(Monomial((1, 0), (0, 0, 0)), Monomial((0, 1), (0, 0, 0)))  # x - y
    for moves, named in (((kernel, first, second), first), ((second, kernel, first), second)):
        with pytest.raises(KernelMismatch, match=re.escape(f"{named} is not in the kernel of the map: ")):
            MoveSet(spec, moves)
    with pytest.raises(ValueError, match="ambient"):
        MoveSet(spec, (Binomial(Monomial((0, 0, 0), (1, 0)), Monomial((0, 0, 0), (0, 1))),))
    rows = [list(m.ground + m.rees) for m in (kernel.lead, kernel.trail)]
    assert MoveSet(spec, (kernel,)).array.tolist() == [rows]


def test_connected_under_moves_reads_the_complete_fiber_of_its_image():
    moves = sigma_set(2, 1).moves  # x^2, y^2, x*y -> t, u, v
    image = Monomial((2, 2), (1,))
    members = reference_fiber(moves.spec, image)  # y^2*t, x^2*u and x*y*v
    assert len(members) == 3
    [part] = connected_under_moves(image, moves)
    assert sorted(part) == sorted(members)
    with pytest.raises(ValueError, match="ambient"):
        connected_under_moves(Monomial((2, 2), (1, 0)), moves)
    assert connected_under_moves(Monomial((1, 1), (2,)), moves) == ()


@st.composite
def specs(draw):
    """A binary map (d <= 12) or a ternary one (a <= 12)."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 12))
        return binary_spec(d, draw(st.sampled_from([b for b in range(1, d) if gcd(d, b) == 1])))
    a = draw(st.integers(3, 12))
    return ternary_spec(a, draw(st.integers(1, (a - 1) // 2)))


@SETTINGS
@given(specs(), st.data())
def test_images_are_image_of_row_by_row(spec, data):
    # both against the literal product of the generators
    width = spec.n + spec.nrees
    rows = data.draw(st.lists(st.lists(st.integers(0, 50), min_size=width, max_size=width), max_size=20))
    got = spec.images(np.array(rows, dtype=np.int64).reshape(-1, width))
    assert got.dtype == np.int64 and got.shape == (len(rows), spec.n + 1)
    monos = [Monomial(tuple(r[:spec.n]), tuple(r[spec.n:])) for r in rows]
    expected = [reference_image(spec, m) for m in monos]
    assert got.tolist() == [list(im.ground + im.rees) for im in expected]
    assert [spec.image_of(m) for m in monos] == expected


def test_every_kernel_check_names_the_pair_in_one_message():
    # MoveSet, the walk and the batched membership refuse t*u - x*v^2 alike
    spec = AciSpec((2, 2), (1, 1))
    off = Binomial(Monomial((0, 0), (1, 1, 0)), Monomial((1, 0), (0, 0, 2)))
    moves = MoveSet(spec, (Binomial(Monomial((0, 0), (1, 1, 0)), Monomial((0, 0), (0, 0, 2))),))
    messages = []
    for check in (
        lambda: MoveSet(spec, (off,)),
        lambda: binomial_in_binomial_ideal(off, moves),
        lambda: binomials_in_binomial_ideal(_vecs([off.lead]), _vecs([off.trail]), moves),
        lambda: binomials_in_binomial_ideal(_vecs([off.trail]), _vecs([off.lead]), moves),
    ):
        with pytest.raises(KernelMismatch) as exc:
            check()
        messages.append(str(exc.value))
    assert messages == [f"{off} is not in the kernel of the map: its two sides have different images"] * 4


@st.composite
def images(draw):
    """A map from `cases`, and an image of T-degree <= 3 whose ground part
    is drawn freely, so its fiber may be empty."""
    moves, _, g = draw(cases)
    spec = moves.spec
    tau = draw(st.integers(0, 3))
    ground = draw(st.tuples(*[st.integers(0, 2 * g)] * spec.n))
    return spec, Monomial(ground, (tau,))


@SETTINGS
@given(images())
def test_fiber_enumerate_matches_reference(case):
    # the one-image level holds the fiber's members, empty fibers included
    spec, image = case
    level = image_level(spec, image)
    assert level.images.tolist() == [list(image.ground)]
    members = [Monomial(tuple(g), tuple(r)) for g, r in zip(level.ground.tolist(), level.rees.tolist())]
    assert sorted(members, key=Monomial.sort_key) == list(reference_fiber(spec, image))


@SETTINGS
@given(cases, st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True), st.integers(1, 200))
def test_fibers_of_is_the_level_of_its_images(case, taus, cells):
    # many images of one or more T-degrees in one call, the member mask
    # built `cells` cells at a time
    moves, _, g = case
    spec = moves.spec
    images = sorted({
        (tau, *spec.image_of(Monomial(ground, beta)).ground)
        for tau in taus
        for beta in compositions(tau, spec.nrees)
        for ground in compositions(g, spec.n)
    })
    saved, toric._MASK_CELLS = toric._MASK_CELLS, cells
    try:
        level = _fibers_of(spec, np.array(images, dtype=np.int64))
    finally:
        toric._MASK_CELLS = saved
    assert level.images.tolist() == [list(x[1:]) for x in images]
    assert list(level.fiber) == sorted(level.fiber)
    for f, (tau, *ground) in enumerate(images):
        rows = np.flatnonzero(level.fiber == f)
        got = [Monomial(tuple(x), tuple(r)) for x, r in zip(level.ground[rows].tolist(), level.rees[rows].tolist())]
        assert [m.rees for m in got] == sorted(m.rees for m in got)  # `compositions` order
        assert sorted(got) == sorted(reference_fiber(spec, Monomial(tuple(ground), (tau,))))


def _sigma_2_1_non_reduced_pair():
    # image x^3*y at T-degree 1 for (x^2, y^2, xy): the fiber {x*y*t, x^2*v}
    # shares x, so it is x times the fiber of x^2*y
    moves = sigma_set(2, 1).moves
    members = reference_fiber(moves.spec, Monomial((3, 1), (1,)))
    assert len(members) == 2 and not members[0].gcd(members[1]).is_unit()
    return moves, [members]


@st.composite
def membership_cases(draw):
    """A Sigma move set (d <= 6) or a ternary one (a <= 5), up to three of
    its moves dropped, and pairs of monomials drawn from common fibers."""
    moves, _, g = draw(st.one_of(sigma_cases(), ternary_cases()))
    spec = moves.spec
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        beta = draw(st.sampled_from(list(compositions(draw(st.integers(1, 3)), spec.nrees))))
        ground = draw(st.tuples(*[st.integers(0, g)] * spec.n))
        members = reference_fiber(spec, spec.image_of(Monomial(ground, beta)))
        pairs.append((draw(st.sampled_from(members)), draw(st.sampled_from(members))))
    return moves, pairs


def _vecs(monos):
    return np.array([m.ground + m.rees for m in monos], dtype=np.int64)


@SETTINGS
@given(membership_cases())
@example(_sigma_2_1_non_reduced_pair())
def test_batched_membership_matches_the_walk(case):
    moves, pairs = case
    got = binomials_in_binomial_ideal(_vecs(p[0] for p in pairs), _vecs(p[1] for p in pairs), moves)
    expected = [lead == trail or binomial_in_binomial_ideal(Binomial(lead, trail), moves) for lead, trail in pairs]
    assert got.dtype == bool and got.tolist() == expected


def test_batched_membership_in_a_non_reduced_fiber():
    moves, [(lead, trail)] = _sigma_2_1_non_reduced_pair()
    answers = set()
    for drop in range(len(moves)):
        sub = moves.without(drop)
        got = binomials_in_binomial_ideal(_vecs([lead]), _vecs([trail]), sub)
        assert got.tolist() == [binomial_in_binomial_ideal(Binomial(lead, trail), sub)]
        answers.add(bool(got[0]))
    assert answers == {True, False}


#: joint-level budgets: every T-degree a level alone (1), the default, and
#: every run of T-degrees one level (2^30)
JOINT_BUDGETS = (1, toric._JOINT_CELLS, 1 << 30)

#: member-mask blocks: the default, one row per block (1), and blocks that
#: end inside the rows of a level (7, 97)
MASK_CELLS = (toric._MASK_CELLS, 1, 7, 97)


def test_batched_membership_refuses_pairs_off_the_kernel(monkeypatch):
    # no rows, and a pair off the kernel, are answered before any level is
    # built
    def unreachable(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(toric, "_fibers_of", unreachable)
    monkeypatch.setattr(toric, "_fiber_components", unreachable)
    moves = sigma_set(3, 1).moves
    width = moves.spec.n + moves.spec.nrees
    lead = Monomial((0, 0), (1, 0, 0))
    assert binomials_in_binomial_ideal(np.zeros((0, width)), np.zeros((0, width)), moves).tolist() == []
    with pytest.raises(KernelMismatch):
        binomials_in_binomial_ideal(_vecs([lead, lead]), _vecs([lead, Monomial((3, 0), (0, 0, 0))]), moves)


def test_fibers_are_built_only_for_rows_whose_distinct_sides_both_admit_a_move(monkeypatch):
    # a monomial that no side of a move divides is alone in its component,
    # so its row is settled without a fiber, and so is a row with
    # lead == trail; the fibers built are exactly those of the other rows
    built = []

    def spy(spec, images):
        built.extend(map(tuple, images.tolist()))
        return _fibers_of(spec, images)

    monkeypatch.setattr(toric, "_fibers_of", spy)

    def meets(m, moves):
        return any(divides(side, m) for move in moves for side in (move.lead, move.trail))

    gens = ternary_gens(5, 2)
    multipliers = [Monomial(c[:3], c[3:]) for k in range(4) for c in compositions(k, 7)]
    for claim in colon_claims(5, 2):
        prefix, h = gens.before(claim["name"]), gens[claim["name"]]
        touched = prefix.moves[0].lead  # a side of a move: a lead == trail row that a move meets
        pairs = [(m * h.lead, m * h.trail) for m in multipliers] + [(touched, touched)]
        is_open = [lead != trail and meets(lead, prefix) and meets(trail, prefix) for lead, trail in pairs]
        assert any(is_open) and not all(is_open)
        built.clear()
        got = binomials_in_binomial_ideal(_vecs(p[0] for p in pairs), _vecs(p[1] for p in pairs), prefix)
        images = [prefix.spec.image_of(lead) for (lead, _), o in zip(pairs, is_open) if o]
        assert len(built) == len(set(built)) and set(built) == {(*i.rees, *i.ground) for i in images}, claim["name"]
        for (lead, trail), o, member in zip(pairs, is_open, got.tolist()):
            if not o:
                assert member == (lead == trail)

    built.clear()
    alone = Monomial((7, 7), (0, 0, 0))  # x^7 y^7: no side of a Sigma move divides it
    moves = sigma_set(3, 1).moves
    assert not meets(alone, moves)
    assert binomials_in_binomial_ideal(_vecs([alone]), _vecs([alone]), moves).tolist() == [True]
    # without moves every row is settled, and only equal rows are members
    members = reference_fiber(moves.spec, moves.spec.image_of(moves.moves[0].lead))
    assert len(members) > 1
    pairs = [(x, y) for x in members for y in members]
    got = binomials_in_binomial_ideal(_vecs(p[0] for p in pairs), _vecs(p[1] for p in pairs),
                                      MoveSet(binary_spec(3, 1), ()))
    assert got.tolist() == [x == y for x, y in pairs]
    assert built == []


@pytest.mark.parametrize("d", range(2, 13))
def test_run_sweep_matches_the_per_level_reference(d, monkeypatch):
    # every coprime b, on the full Sigma set and with each generator dropped;
    # the sweep labels each run as it is built, so the joint budgets, which
    # set the runs, set what is labelled together; with a generator dropped
    # the first failure often lies in a later run
    for b in range(1, d):
        if gcd(d, b) != 1:
            continue
        moves = sigma_set(d, b).moves
        for drop in [None, *range(len(moves))]:
            sub = moves if drop is None else moves.without(drop)
            expected = reference_generates_up_to(sub, d + 1, 3 * d)
            for budget in JOINT_BUDGETS:
                monkeypatch.setattr(toric, "_JOINT_CELLS", budget)
                assert generates_up_to(sub, d + 1, 3 * d) == expected, (b, drop, budget)


@pytest.mark.parametrize("drop, tau", [(0, 1), (5, 8)])
def test_a_failure_stops_the_sweep_at_its_run(drop, tau, monkeypatch):
    # without generator `drop` Sigma(20, 7) fails at T-degree `tau`: each
    # run is labelled as soon as it is built, so the runs after the
    # failure's are never built
    runs = []
    build = toric._reduced_fibers_at

    def spy(spec, taus, ground_bound):
        runs.append(list(taus))
        return build(spec, taus, ground_bound)

    monkeypatch.setattr(toric, "_reduced_fibers_at", spy)
    moves = sigma_set(20, 7).moves.without(drop)
    report = generates_up_to(moves, 21, 60)
    assert report == reference_generates_up_to(moves, 21, 60)
    assert report.first_failure.image.rees == (tau,)
    assert tau in runs[-1] and sum(runs, []) == list(range(runs[-1][-1] + 1))


@st.composite
def multiplier_cases(draw):
    """The prefix moves and H of a colon claim of ternary_spec(a, b), a <= 6,
    and random multiplier rows (possibly none)."""
    a = draw(st.integers(3, 6))
    b = draw(st.integers(1, (a - 1) // 2))
    gens = ternary_gens(a, b)
    claim = draw(st.sampled_from(colon_claims(a, b)))
    prefix = gens.before(claim["name"])
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=7, max_size=7), max_size=40))
    return prefix, gens[claim["name"]], np.array(rows, dtype=np.int64).reshape(-1, 7)


def _joined(results):
    """The gated results of consecutive runs as the result of one run."""
    offsets = np.cumsum([0] + [count for count, _, _ in results[:-1]])
    return (sum(count for count, _, _ in results),
            np.concatenate([undecided + offset for (_, undecided, _), offset in zip(results, offsets)]),
            join_levels([level for _, _, level in results]))


def assert_grouped_levels_are_exact(spec, t_bound, g, cells=MASK_CELLS[:1]):
    """Under every joint budget and each member-mask block size in `cells`,
    each run's gated result is that of its one-T-degree runs joined, and
    each of those is `reference_gated`; the runs cover T-degrees
    0..t_bound in order."""
    singles = [reference_gated(spec, tau, g) for tau in range(t_bound + 1)]
    build, saved = toric._reduced_fibers_at, (toric._JOINT_CELLS, toric._MASK_CELLS)
    for block, budget in itertools.product(cells, JOINT_BUDGETS):
        runs = []

        def spy(spec, taus, ground_bound):
            runs.append(list(taus))
            return build(spec, taus, ground_bound)

        toric._reduced_fibers_at, toric._JOINT_CELLS, toric._MASK_CELLS = spy, budget, block
        try:
            results = list(toric._sweep_levels(spec, t_bound, g))
        finally:
            toric._reduced_fibers_at, (toric._JOINT_CELLS, toric._MASK_CELLS) = build, saved
        assert sum(runs, []) == list(range(t_bound + 1)), budget
        assert budget > 1 or all(len(run) == 1 for run in runs)
        for run, result in zip(runs, results, strict=True):
            _assert_same_gated(result, _joined([singles[tau] for tau in run]))
    return runs


@pytest.mark.parametrize("d", range(2, 17))
def test_grouped_levels_are_exact_at_every_budget(d):
    for b in range(1, d):
        if gcd(d, b) == 1:
            for g in (3 * d, d):
                assert len(assert_grouped_levels_are_exact(binary_spec(d, b), d + 1, g)) == 1  # all in one level


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3, 10) for b in range(1, (a - 1) // 2 + 1)])
def test_grouped_levels_are_exact_at_every_budget_ternary(a, b):
    assert_grouped_levels_are_exact(ternary_spec(a, b), 4, 3 * a)


@SETTINGS
@given(st.one_of(random_cases(), tight_random_cases()))
def test_grouped_levels_are_exact_at_every_budget_random(case):
    moves, t_bound, g = case
    assert_grouped_levels_are_exact(moves.spec, t_bound, g, MASK_CELLS)


@pytest.mark.parametrize("d", range(2, 7))
def test_grouped_levels_are_exact_in_small_mask_blocks(d):
    # one row per block and blocks ending inside a level, across the
    # T-degrees of a joint run too; the one-row blocks keep d small
    for b in range(1, d):
        if gcd(d, b) == 1:
            for g in (3 * d, d):
                assert_grouped_levels_are_exact(binary_spec(d, b), d + 1, g, MASK_CELLS)


@pytest.mark.parametrize("a, b", [(3, 1), (4, 1), (5, 1), (5, 2)])
def test_grouped_levels_are_exact_in_small_mask_blocks_ternary(a, b):
    assert_grouped_levels_are_exact(ternary_spec(a, b), 4, 3 * a, MASK_CELLS)


@pytest.mark.parametrize("budget", JOINT_BUDGETS)
@SETTINGS
@given(multiplier_cases())
def test_grouped_membership_matches_the_per_level_reference(budget, case):
    prefix, h, rows = case
    leads, trails = rows + _vecs([h.lead]), rows + _vecs([h.trail])
    saved, toric._JOINT_CELLS = toric._JOINT_CELLS, budget
    try:
        got = binomials_in_binomial_ideal(leads, trails, prefix)
    finally:
        toric._JOINT_CELLS = saved
    assert got.dtype == bool
    assert got.tolist() == reference_binomials_in_binomial_ideal(leads, trails, prefix).tolist()


def test_colon_claims_are_the_same_at_every_joint_budget(monkeypatch):
    # the 30 ternary pairs with a <= 12; budget 1 builds one level per T-degree
    pairs = [(a, b) for a in range(3, 13) for b in range(1, (a - 1) // 2 + 1)]
    assert len(pairs) == 30
    gens = [ternary_gens(a, b) for a, b in pairs]
    monkeypatch.setattr(toric, "_JOINT_CELLS", 1)
    expected = [verify_colon_claims(g) for g in gens]
    for budget in JOINT_BUDGETS[1:]:
        monkeypatch.setattr(toric, "_JOINT_CELLS", budget)
        assert [verify_colon_claims(g) for g in gens] == expected, budget


def test_runs_split_the_t_degrees_in_order_within_the_cells():
    # ternary, four Rees variables: C(tau + 3, 3) compositions at tau
    spec = ternary_spec(8, 3)
    taus, sizes = list(range(10)), [1, 4, 30, 100, 2, 3, 1000, 5, 5, 5]
    runs = list(_runs(spec, taus, sizes))
    assert [i for r in runs for i in range(len(taus))[r]] == list(range(len(taus)))

    def cells(r):
        return sum(comb(tau + 3, 3) for tau in taus[r]) * sum(sizes[r])

    for r, after in zip(runs, runs[1:]):
        assert cells(slice(r.start, after.start + 1)) > toric._JOINT_CELLS  # a run grows while it can
    assert all(cells(r) <= toric._JOINT_CELLS for r in runs if r.stop - r.start > 1)
    # T-degree 6 alone holds 84 x 1000 cells, beyond the budget
    assert cells(slice(6, 7)) > toric._JOINT_CELLS
    assert runs == [slice(0, 6), slice(6, 7), slice(7, 10)]


def test_runs_are_cut_before_the_key_overflows(monkeypatch):
    # nrees 16: Rees exponents < 10 take 10^16 keys per fiber, and the key
    # range ends at 2^62, so 597 fibers do not fit though their cells do
    spec = AciSpec((2,) * 15, (1,) * 15)
    monkeypatch.setattr(toric, "_JOINT_CELLS", 2**30)
    assert spec.nrees == 16
    assert (comb(23, 15) + comb(24, 15)) * 597 < 2**30 and 10**16 * 597 >= 2**62
    assert list(_runs(spec, [8, 9], [1, 596])) == [slice(0, 1), slice(1, 2)]


def test_memberships_label_each_run_with_one_kernel_call(monkeypatch):
    # the colon claims of (8, 3): each `_fiber_components` call gets the
    # level the `_fibers_of` call just before it returned, once per run
    events, runs = [], []
    build, label, split = toric._fibers_of, toric._fiber_components, toric._runs

    def built(spec, images):
        events.append(("built", build(spec, images)))
        return events[-1][1]

    def labelled(level, moves):
        events.append(("labelled", level))
        return label(level, moves)

    def counted(spec, taus, sizes):
        for r in split(spec, taus, sizes):
            runs.append(r)
            yield r

    monkeypatch.setattr(toric, "_fibers_of", built)
    monkeypatch.setattr(toric, "_fiber_components", labelled)
    monkeypatch.setattr(toric, "_runs", counted)
    verify_colon_claims(ternary_gens(8, 3))
    calls = [i for i, (kind, _) in enumerate(events) if kind == "labelled"]
    assert len(calls) == len(runs) > 1
    assert all(i > 0 and events[i - 1][0] == "built" and events[i - 1][1] is events[i][1] for i in calls)
