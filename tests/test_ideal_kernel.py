"""Property tests of the monomial-ideal kernel.

The reference here is plain Python over exponent tuples: the pairwise
divisibility antichain that `MonomialIdeal` used before its generators
became one numpy array, with products, colons and colengths built from it
point by point.  The kernel under test sorts the candidate rows once and
keeps a staircase (two variables), or drops equal rows and checks blocks of
rows against the rows already kept and within the block with one 2-D
divisibility mask each (any other number of variables).  Its tests run at
several block sizes (`_BLOCK_CELLS`), so that blocks of one row, blocks
smaller than the input and duplicates on a block boundary are all covered.
"""
import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monomial_text import contains
from reeslab import core
from reeslab.core import InfiniteColength, MonomialIdeal, _minimalize, ground_monomial

# the block-size fixture patches a module constant once per test, for all
# of its examples
SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


# -- the reference -------------------------------------------------------------

def divides(g, m):
    return all(a <= b for a, b in zip(g, m))


def ref_minimalize(rows):
    """Antichain of minimal rows under divisibility, lex descending."""
    keep = []
    for m in sorted(set(rows)):
        # earlier rows are lex-smaller, not necessarily divisors; test all
        if not any(divides(k, m) for k in keep):
            keep = [k for k in keep if not divides(m, k)]
            keep.append(m)
    return tuple(sorted(keep, reverse=True))


def ref_product(gens, other):
    return ref_minimalize([tuple(a + b for a, b in zip(g, h)) for g in gens for h in other])


def ref_colon(gens, m):
    return ref_minimalize([tuple(max(a - e, 0) for a, e in zip(g, m)) for g in gens])


def ref_power(gens, r, n):
    out = ((0,) * n,)
    for _ in range(r):
        out = ref_product(out, gens)
    return out


def ref_colength(gens, n):
    """Standard monomials counted one by one inside the pure-power box."""
    bounds = [None] * n
    for g in gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if not support:
            return 0
        if len(support) == 1:
            i = support[0]
            bounds[i] = g[i] if bounds[i] is None else min(bounds[i], g[i])
    if any(b is None for b in bounds):
        raise InfiniteColength
    return sum(1 for p in itertools.product(*(range(b) for b in bounds))
               if not any(divides(g, p) for g in gens))


# -- strategies ----------------------------------------------------------------

@st.composite
def ideal_rows(draw, max_rows=7, top=5):
    """(n, rows): up to max_rows exponent rows in n variables, duplicates
    allowed, sometimes with a pure power of every variable added."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5)))
    row = st.tuples(*[st.integers(0, top)] * n)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    if draw(st.booleans()):
        rows += [tuple(top + 1 if j == i else 0 for j in range(n)) for i in range(n)]
    return n, rows


def build(n, rows):
    return MonomialIdeal([ground_monomial(r) for r in rows], n)


def gens_of(ideal):
    return tuple(g.ground for g in ideal.gens)


@pytest.fixture(params=[1, 7, 97])
def small_blocks(request, monkeypatch):
    """`_BLOCK_CELLS` for one test, below the default: blocks of one row,
    and two sizes that split small inputs over several blocks."""
    monkeypatch.setattr(core, "_BLOCK_CELLS", request.param)


# -- the properties ------------------------------------------------------------

@SETTINGS
@given(ideal_rows())
@example((2, [(0, 0)]))                       # the unit ideal
@example((3, [(2, 1, 0)]))                    # a single generator
@example((2, [(1, 2), (1, 2), (2, 1), (1, 2)]))  # duplicates
@example((1, [(3,), (5,), (3,)]))
def test_generators_match_the_reference(case):
    check_generators(*case)


@SETTINGS
@given(ideal_rows())
@example((2, [(1, 2), (1, 2), (2, 1), (1, 2)]))
@example((3, [(1, 1, 1), (0, 2, 1), (1, 1, 1), (2, 0, 0), (1, 1, 1)]))
def test_generators_match_the_reference_in_small_blocks(small_blocks, case):
    check_generators(*case)


def check_generators(n, rows):
    ideal = build(n, rows)
    assert gens_of(ideal) == ref_minimalize(rows)
    assert ideal.exps.tolist() == [list(g) for g in ref_minimalize(rows)]
    assert ideal.exps.dtype == np.int64 and ideal.exps.shape == (len(ideal.gens), n)
    assert ideal.is_unit_ideal() == (ref_minimalize(rows) == ((0,) * n,))
    assert ideal == build(n, list(reversed(rows)))
    assert hash(ideal) == hash(build(n, list(reversed(rows))))


@SETTINGS
@given(ideal_rows(), st.data())
@example((2, [(0, 0)]), None)
@example((3, [(1, 1, 1)]), None)
def test_product_power_colon_contains_match_the_reference(case, data):
    n, rows = case
    row = st.tuples(*[st.integers(0, 6)] * n)
    if data is None:
        other, m = [(1,) * n], (1,) * n
    else:
        other = data.draw(st.lists(row, min_size=1, max_size=5))
        m = data.draw(row)
    ideal, gens = build(n, rows), ref_minimalize(rows)
    assert gens_of(ideal.product(build(n, other))) == ref_product(gens, ref_minimalize(other))
    assert gens_of(ideal.power(2)) == ref_power(gens, 2, n)
    assert gens_of(ideal.power(0)) == ((0,) * n,)
    assert gens_of(ideal.colon(ground_monomial(m))) == ref_colon(gens, m)
    assert contains(ideal, ground_monomial(m)) == any(divides(g, m) for g in gens)


@SETTINGS
@given(ideal_rows(max_rows=5, top=4))
@example((2, [(0, 0)]))
@example((1, [(4,), (2,)]))
@example((3, [(1, 2, 0)]))
def test_colength_matches_the_reference(case):
    n, rows = case
    ideal, gens = build(n, rows), ref_minimalize(rows)
    try:
        expected = ref_colength(gens, n)
    except InfiniteColength:
        with pytest.raises(InfiniteColength):
            ideal.colength()
    else:
        assert ideal.colength() == expected


MANY_ROWS = [(2, 2000), (3, 900), (4, 600), (5, 500)]


@pytest.mark.parametrize("n, rows", MANY_ROWS)
def test_many_rows_match_the_reference(n, rows):
    # enough rows that the n != 2 branch runs several blocks, with many
    # duplicates among them
    check_many_rows(n, rows)


@pytest.mark.parametrize("n, rows", MANY_ROWS)
def test_many_rows_match_the_reference_in_small_blocks(small_blocks, n, rows):
    check_many_rows(n, rows)


def check_many_rows(n, rows):
    rng = random.Random(n)
    cand = [tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(rows)]
    assert tuple(map(tuple, _minimalize(np.array(cand)).tolist())) == ref_minimalize(cand)


@pytest.mark.parametrize(
    "cells, before",
    [(core._BLOCK_CELLS, 511), (core._BLOCK_CELLS, 510), (7, 6), (7, 5), (7, 3)],
    ids=["default-511", "default-510", "7-6", "7-5", "7-3"],
)
def test_duplicates_on_a_block_boundary(monkeypatch, cells, before):
    # An antichain of degree 40 in three variables, with the row that
    # sorts after `before` others given three times.  The first block holds
    # 512 rows at the default size and 7 rows at cells = 7, so the three
    # copies straddle its end (or, at 7-3, all lie inside it); a copy
    # dropped by its twin or kept twice shows here.  The antichain itself
    # is the reference.
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    antichain = sorted((i, j, 40 - i - j) for i in range(41) for j in range(41 - i))
    cand = antichain + [antichain[before]] * 2
    random.Random(before).shuffle(cand)
    assert _minimalize(np.array(cand)).tolist() == [list(row) for row in reversed(antichain)]


def test_minimalize_takes_a_list_of_rows():
    # the benchmark's tracer hands `_minimalize` its argument as a list
    rows = np.array([(2, 0, 1), (1, 1, 1), (2, 1, 1), (0, 3, 0)])
    assert np.array_equal(_minimalize(list(rows)), _minimalize(rows))
    assert len(_minimalize([])) == 0
    assert MonomialIdeal([], 2).product(build(2, [(1, 0)])).exps.shape == (0, 2)


def test_exponent_array_is_read_only():
    ideal = build(2, [(2, 0), (0, 2)])
    with pytest.raises(ValueError):
        ideal.exps[0, 0] = 1
