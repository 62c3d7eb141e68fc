"""Fiber enumeration, congruence connectivity, membership and sweep oracles."""

import itertools
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest

from fiber_reference import connected_under_moves, reference_fiber, reference_undecided
from monomial_text import parse_binomial, parse_monomial, scale
from reeslab import toric
from reeslab.core import AciSpec, Binomial, InputError, Monomial, ground_monomial
from reeslab.binary import sigma_set
from reeslab.toric import (
    KernelMismatch,
    MoveSet,
    binary_spec,
    binomial_in_binomial_ideal,
    _multisets,
    _reduced_fibers_at,
    bruteforce_min_gens,
    compositions,
    generates_up_to,
    monomial_in_mixed_ideal,
    ternary_spec,
)


def simple_spec():
    # I = (x^2, y^2, xy)
    return AciSpec((2, 2), (1, 1))


def test_image_of():
    spec = simple_spec()
    tu = Monomial((0, 0), (1, 1, 0))
    assert spec.image_of(tu) == Monomial((2, 2), (2,))
    vv = Monomial((0, 0), (0, 0, 2))
    assert spec.image_of(vv) == Monomial((2, 2), (2,))
    x3 = Monomial((3, 0), (0, 0, 0))
    assert spec.image_of(x3) == Monomial((3, 0), (0,))


def test_fiber_enumerate():
    spec = simple_spec()
    members = reference_fiber(spec, Monomial((2, 2), (2,)))
    assert set(members) == {Monomial((0, 0), (1, 1, 0)), Monomial((0, 0), (0, 0, 2))}
    # singleton fiber
    assert reference_fiber(spec, Monomial((1, 0), (0,))) == (Monomial((1, 0), (0, 0, 0)),)


def test_fiber_of_implicit_equation_14_3():
    spec = binary_spec(14, 3)
    image = spec.image_of(parse_monomial("v^14", 2, 3))
    assert image == Monomial((42, 154), (14,))
    members = set(reference_fiber(spec, image))
    assert parse_monomial("t^3*u^11", 2, 3) in members
    assert parse_monomial("v^14", 2, 3) in members


def test_connected_under_moves():
    spec = binary_spec(2, 1)
    sigma = sigma_set(2, 1).moves
    image = Monomial((2, 2), (2,))
    assert len(reference_fiber(spec, image)) == 2
    comps = connected_under_moves(image, sigma)
    assert len(comps) == 1
    # ground-free moves cannot rewrite the ground-free fiber members
    only_linear = MoveSet(spec, (parse_binomial("x*v - y*t", 2, 3), parse_binomial("y*v - x*u", 2, 3)))
    comps = connected_under_moves(image, only_linear)
    assert len(comps) == 2
    # empty fiber
    assert connected_under_moves(Monomial((1, 1), (2,)), sigma) == ()


def test_binomial_membership_minimal_generator_excluded():
    # E = v^2 - tu is a minimal generator, so not in (F, G), d=2, b=1
    sigma = sigma_set(2, 1)
    moves = sigma.moves
    f_and_g = MoveSet(moves.spec, moves.moves[:2])
    e = sigma.entries[-1].binomial  # the implicit equation v^2 - tu
    assert not binomial_in_binomial_ideal(e, f_and_g)
    # any generator is a one-step member of the full set
    for mv in moves:
        assert binomial_in_binomial_ideal(mv, moves)


def test_binomial_membership_f2_regression():
    # F_2 = x v^2 - y t u for (7, 3) is itself a minimal generator: the
    # pivot multiples x^b F_2, y^b F_2 land in (F, G) but F_2 does not.
    # Frozen from the congruence oracle.
    sigma = sigma_set(7, 3)
    moves = sigma.moves
    f_and_g = MoveSet(moves.spec, (sigma.entries[0].binomial, sigma.entries[1].binomial))
    f2 = parse_binomial("x*v^2 - y*t*u", 2, 3)
    assert f2 == sigma.entries[2].binomial
    assert not binomial_in_binomial_ideal(f2, f_and_g)
    pivot_x = scale(f2, parse_monomial("x^3", 2, 3))
    pivot_y = scale(f2, parse_monomial("y^3", 2, 3))
    assert binomial_in_binomial_ideal(pivot_x, f_and_g)
    assert binomial_in_binomial_ideal(pivot_y, f_and_g)


def test_removal_probes_flag_a_redundant_move_and_nothing_else():
    moves = sigma_set(7, 3).moves
    assert moves.redundant() == [False] * len(moves)
    extra = scale(moves.moves[0], parse_monomial("x", 2, 3))
    assert MoveSet(moves.spec, moves.moves + (extra,)).redundant() == [False] * len(moves) + [True]


def test_subsets_of_a_move_set_are_its_checked_rows(monkeypatch):
    # without(i) and prefix(k) read rows of the checked array and check
    # nothing again; they equal the move sets built and checked anew
    moves = sigma_set(5, 2).moves
    assert len(moves) == 5

    def unreachable(*args):
        raise AssertionError("a subset was checked again")

    monkeypatch.setattr(toric, "_check_kernel", unreachable)
    subsets = [(moves.without(i), [j for j in range(5) if j != i]) for i in range(5)]
    subsets += [(moves.prefix(k), list(range(k))) for k in range(6)]
    monkeypatch.undo()
    for sub, rows in subsets:
        assert sub == MoveSet(moves.spec, tuple(moves.moves[j] for j in rows))
        assert sub.array.tolist() == moves.array[rows].tolist()
        assert sub.array.shape[1:] == moves.array.shape[1:]


@pytest.mark.parametrize("index", [-1, -5, 5, 99])
def test_without_refuses_an_index_outside_the_moves(index):
    # a negative index once counted from the end and kept duplicates, and
    # one past the end returned every move
    with pytest.raises(IndexError, match=f"move index {index} outside 0..4"):
        sigma_set(5, 2).moves.without(index)


def test_binomial_membership_rejects_non_kernel():
    moves = sigma_set(2, 1).moves
    junk = parse_binomial("x*v - y*u", 2, 3)
    with pytest.raises(KernelMismatch):
        binomial_in_binomial_ideal(junk, moves)


def test_mixed_ideal_membership():
    # n=3, a=5, b=1: x3^10 not in Q*I, but minimal generators of I^3 are in Q*I^2
    from reeslab.reduction import _q_times

    spec = AciSpec((5, 5, 5), (1, 1, 1))
    ideal_i = spec.ideal
    diffs, monos = _q_times(spec, ideal_i.power(1))
    target = ground_monomial((0, 0, 10))
    assert not monomial_in_mixed_ideal(target, diffs, monos)
    diffs2, monos2 = _q_times(spec, ideal_i.power(2))
    for g in ideal_i.power(3).gens:
        assert monomial_in_mixed_ideal(g, diffs2, monos2)
    # divisible by a monomial generator, no diffs at all
    res = monomial_in_mixed_ideal(ground_monomial((2, 1, 1)), [], [ground_monomial((1, 1, 1))])
    assert res and res.explored == 1


def test_mixed_ideal_cap():
    # the class of a degree-D monomial in 3 variables lies among C(D + 2, 2)
    # monomials: at D = 1412 (998,991 of them) the walk runs, at D = 1413
    # (1,000,405) it is refused before any state is explored
    from reeslab.reduction import _q_times

    spec = AciSpec((5, 5, 5), (1, 1, 1))
    diffs, monos = _q_times(spec, spec.ideal.power(2))
    res = monomial_in_mixed_ideal(ground_monomial((0, 0, 1412)), diffs, [ground_monomial((0, 0, 1))])
    assert res and res.explored == 1
    with pytest.raises(InputError, match="1000405 monomials"):
        monomial_in_mixed_ideal(ground_monomial((0, 0, 1413)), diffs, monos)


def test_generates_up_to_sigma_14_3():
    sigma = sigma_set(14, 3)
    moves = sigma.moves
    report = generates_up_to(moves, 15, 42)
    assert report.passed


def test_a_sweep_reads_the_map_of_its_move_set():
    # the moves of Sigma(7, 3) generate within these bounds under their own
    # map; under the map of (11, 5) they are not kernel moves, and the only
    # way to pair them with it, a MoveSet, refuses them
    moves = sigma_set(7, 3).moves
    report = generates_up_to(moves, 8, 21)
    assert report.passed and report.fibers_checked == 729
    with pytest.raises(KernelMismatch):
        MoveSet(binary_spec(11, 5), moves.moves)


def test_generates_failure_lands_at_removed_bidegree():
    sigma = sigma_set(14, 3)
    moves = sigma.moves
    dropped = moves.without(len(moves) - 1)  # drop t^3 u^11 - v^14
    report = generates_up_to(dropped, 15, 42)
    assert not report.passed
    implicit = sigma.entries[-1].binomial
    assert report.first_failure.image == moves.spec.image_of(implicit.lead)


def test_kernel_invariant_of_movesets():
    for d, b in [(2, 1), (7, 3), (12, 5)]:
        moves = sigma_set(d, b).moves
        for mv in moves:
            assert moves.spec.image_of(mv.lead) == moves.spec.image_of(mv.trail)


def test_fibers_are_bigraded():
    spec = binary_spec(7, 3)
    degs = {m.rees_degree() for m in reference_fiber(spec, Monomial((14, 14), (2,)))}
    assert len(degs) == 1


def test_oracle_consistency_on_random_kernel_binomials():
    # generates_up_to passing forces membership of any in-bounds kernel binomial
    rng = random.Random(5)
    sigma = sigma_set(7, 3)
    moves = sigma.moves
    spec = moves.spec
    assert generates_up_to(moves, 8, 21).passed
    for _ in range(25):
        tau = rng.randint(2, 6)
        beta1 = rng.choice(list(compositions(tau, 3)))
        beta2 = rng.choice(list(compositions(tau, 3)))
        if beta1 == beta2:
            continue
        img1 = spec.image_of(Monomial((0, 0), beta1))
        img2 = spec.image_of(Monomial((0, 0), beta2))
        # pad with ground so both sides share an image
        gx = max(img1.ground[0], img2.ground[0])
        gy = max(img1.ground[1], img2.ground[1])
        lead = Monomial((gx - img1.ground[0], gy - img1.ground[1]), beta1)
        trail = Monomial((gx - img2.ground[0], gy - img2.ground[1]), beta2)
        if max(lead.ground_degree(), trail.ground_degree()) > 21:
            continue  # outside the sweep bounds the implication is not claimed
        assert binomial_in_binomial_ideal(Binomial(lead, trail), moves)


def test_bruteforce_simple():
    moves = bruteforce_min_gens(simple_spec(), 3, 6)
    assert len(moves) == 3
    assert sorted(b.bidegree() for b in moves) == [(0, 2), (1, 1), (1, 1)]


def test_bruteforce_matches_sigma_counts():
    for d, b in [(2, 1), (3, 1), (7, 2), (7, 3)]:
        sigma = sigma_set(d, b)
        moves = bruteforce_min_gens(binary_spec(d, b), d + 1, 3 * d)
        assert len(moves) == sigma.count_formula(), (d, b)


def test_bruteforce_count_agreement_d13_to_20():
    # new coverage beyond criterion 3's d <= 12 grid: every coprime
    # b <= d/2 (the other half mirrors it under x <-> y)
    for d in range(13, 21):
        for b in range(1, d // 2 + 1):
            if gcd(d, b) == 1:
                moves = bruteforce_min_gens(binary_spec(d, b), d + 1, 3 * d)
                assert len(moves) == sigma_set(d, b).count_formula(), (d, b)


def test_compositions_are_lexicographic_and_iterative():
    assert list(compositions(2, 3)) == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert list(compositions(0, 2)) == [(0, 0)]
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(0, 0)) == [()] and list(compositions(1, 0)) == []
    # far deeper than the recursion limit
    assert sum(1 for _ in compositions(1, 5000)) == 5000


def test_bruteforce_counts_invariant_under_tie_shuffle():
    # each (T-degree, degree) group is labelled once under the moves found
    # before it, so a seed reorders the moves inside a bidegree only: the
    # counts and the set stay, and at ternary (7, 2) the order moves
    def census(moves):
        by_bidegree = {}
        for mv in moves:
            by_bidegree[mv.bidegree()] = by_bidegree.get(mv.bidegree(), 0) + 1
        return by_bidegree

    for spec, t_bound, ground_bound in ((binary_spec(7, 3), 8, 21), (ternary_spec(7, 2), 4, 21)):
        runs = [bruteforce_min_gens(spec, t_bound, ground_bound, tie_break_seed=seed).moves for seed in (None, 1, 2, 3)]
        for moves in runs[1:]:
            assert census(moves) == census(runs[0])
            assert set(moves) == set(runs[0])
    assert len(set(runs)) > 1


def test_sweep_requires_coprime_moves():
    spec = binary_spec(2, 1)
    scaled = scale(sigma_set(2, 1).binomials()[0], Monomial((1, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        generates_up_to(MoveSet(spec, (scaled,)), 3, 6)


def _reduced_fiber_cases():
    # d < 8 keeps the one-cell blocks of the parametrized test below affordable
    for d in range(2, 8):
        for b in range(1, d):
            yield binary_spec(d, b), 3, 2 * d
    for a, b in [(3, 1), (5, 2)]:
        yield ternary_spec(a, b), 2, a


def _is_reduced(members):
    common = members[0]
    for m in members[1:]:
        common = common.gcd(m)
    return common.is_unit()


@pytest.mark.parametrize("cells", [toric._MASK_CELLS, 1, 7, 97], ids=["default", "1", "7", "97"])
def test_reduced_fibers_match_fiber_enumerate(monkeypatch, cells):
    # Reference for the sweep's fiber enumeration and its gate: the reduced
    # fibers within the ground bound (two or more members, no common
    # variable) are enumerated image by image and counted, and the level
    # holds exactly the complete fibers of those the divisor complex leaves
    # undecided, each once, in image order, whatever the size of the blocks
    # the member mask is built in.
    monkeypatch.setattr(toric, "_MASK_CELLS", cells)
    for spec, t_max, g in _reduced_fiber_cases():
        n = spec.n
        for tau in range(t_max + 1):
            count, undecided, level = _reduced_fibers_at(spec, [tau], g)
            assert len(level) == len(level.fiber) == len(level.ground) == len(level.rees)
            assert list(level.fiber) == sorted(level.fiber)
            images = {
                spec.image_of(Monomial(ground, beta))
                for beta in compositions(tau, spec.nrees)
                for total in range(g + 1)
                for ground in compositions(total, n)
            }
            reduced = []
            for image in sorted(images, key=lambda im: im.ground):
                members = reference_fiber(spec, image)
                if len(members) >= 2 and min(m.ground_degree() for m in members) <= g and _is_reduced(members):
                    reduced.append((image, members))
            assert count == len(reduced), (spec, tau)
            gated = [i for i, (_, members) in enumerate(reduced) if reference_undecided(members, g)]
            assert undecided.tolist() == gated, (spec, tau)
            assert level.images.tolist() == [list(reduced[i][0].ground) for i in gated]
            for f, i in enumerate(gated):
                rows = [r for r in range(len(level)) if level.fiber[r] == f]
                got = [Monomial(tuple(level.ground[r].tolist()), tuple(level.rees[r].tolist())) for r in rows]
                assert [m.rees for m in got] == sorted(m.rees for m in got)
                assert set(got) == set(reduced[i][1]) and len(got) == len(reduced[i][1]), (spec, reduced[i][0])


def test_multisets_come_in_combinations_with_replacement_order():
    rng = random.Random(5)
    for _ in range(40):
        bounds = list(itertools.accumulate([0] + [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]))
        for size in (1, 2, 3):
            expected = [c for lo, hi in itertools.pairwise(bounds)
                        for c in itertools.combinations_with_replacement(range(lo, hi), size)]
            got = _multisets(np.array(bounds), size)
            assert got.dtype == np.int64 and got.shape == (len(expected), size)
            assert got.tolist() == [list(c) for c in expected], (bounds, size)


def test_reduced_fibers_build_the_member_mask_in_bounded_blocks():
    # building this level's whole (candidates x compositions) member matrix
    # at once peaks near 145 MiB (`fiber_reference.reference_reduced_fibers`)
    tracemalloc.start()
    try:
        _reduced_fibers_at(binary_spec(30, 7), [31], 90)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak
