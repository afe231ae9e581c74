"""The exact SNF and rank routines against the naive oracles.

The active path is `exact_linalg.smith_normal_form` and `rank`; the
reference is the pure-Python textbook code in oracles.py.  Entries run
up to 2^70, far past int64, and the shapes include matrices whose first
unit entry is not in the first row, where the pivot search ends early,
rows that die during elimination, and rows like [2, 3] where the pivot
moves inside the pivot row.
"""

import numpy as np
from hypothesis import given, strategies as st

from oracles import oracle_rank_fraction, oracle_rank_modp, oracle_snf
from srcox.exact_linalg import rank, smith_normal_form

BIG = 1 << 70


def _matrices(entries):
    return st.integers(1, 5).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


small = st.integers(min_value=-20, max_value=20)
huge = st.one_of(small, st.integers(min_value=-BIG, max_value=BIG))
arrays = st.one_of(_matrices(small), _matrices(huge))


@st.composite
def unit_below_first_row(draw):
    """A first row free of units above rows that hold some."""
    rows = draw(_matrices(st.sampled_from([-6, -4, -3, -2, 0, 2, 3, 4, 6])))
    rest = draw(st.lists(
        st.lists(st.sampled_from([-1, 0, 1, 2, -3]),
                 min_size=len(rows[0]), max_size=len(rows[0])),
        min_size=1, max_size=4))
    return rows[:1] + rest + rows[1:]


@st.composite
def rows_that_die(draw):
    """Zero rows and copies or multiples of other rows, shuffled in:
    elimination turns them to zero and the loop drops them."""
    rows = draw(arrays)
    copies = st.sampled_from(rows).flatmap(
        lambda r: st.sampled_from([-2, -1, 1, 3]).map(
            lambda k: [k * x for x in r]))
    extra = draw(st.lists(st.one_of(st.just([0] * len(rows[0])), copies),
                          min_size=1, max_size=4))
    return draw(st.permutations(rows + extra))


@st.composite
def remainder_in_pivot_row(draw):
    """No unit and a least pivot 2 in a row like [2, 3], above rows that
    are even in its column: the column clears exactly, the pivot row
    keeps the remainder 1, and the pivot moves inside that row."""
    rows = draw(_matrices(st.sampled_from([-9, -3, 0, 3, 4, 5])))
    evens = draw(st.lists(st.sampled_from([-4, 0, 4]),
                          min_size=len(rows) - 1, max_size=len(rows) - 1))
    return [[2, 3] + rows[0][1:]] + [[e] + r
                                     for e, r in zip(evens, rows[1:])]


matrices = st.one_of(arrays, unit_below_first_row(), rows_that_die(),
                     remainder_in_pivot_row())


@given(matrices)
def test_snf_diag_active_vs_python(rows):
    assert list(smith_normal_form(rows).invariant_factors) == \
        list(oracle_snf(rows))


@given(matrices)
def test_snf_diag_elementary_divisors(rows):
    # the product of the invariant factors is the gcd-free part the
    # oracle finds; numpy input takes the same path as lists
    if max(abs(x) for r in rows for x in r) < 1 << 62:
        res = smith_normal_form(np.array(rows, dtype=np.int64))
    else:
        res = smith_normal_form(rows)
    oracle = oracle_snf(rows)
    prod = oprod = 1
    for d in res.invariant_factors:
        prod *= d
    for d in oracle:
        oprod *= d
    assert res.rank == len(oracle)
    assert prod == oprod


@given(matrices, st.sampled_from([2, 3, 5]))
def test_rank_modp_active_vs_python(rows, p):
    assert rank(rows, p) == oracle_rank_modp(rows, p)


@given(matrices)
def test_bareiss_active_vs_python(rows):
    assert rank(rows, "q") == oracle_rank_fraction(rows)


@given(matrices)
def test_kernels_leave_input_rows_alone(rows):
    before = [list(r) for r in rows]
    held = list(rows)
    smith_normal_form(rows)
    rank(rows, "q")
    rank(rows, 2)
    assert rows == before
    assert all(a is b for a, b in zip(rows, held))


def test_snf_entries_past_int64():
    # an elimination whose entries leave int64 must still be exact
    big = 1 << 30
    rows = [[big, big - 1], [big - 1, big - 3]]
    fac = smith_normal_form(rows).invariant_factors
    assert list(fac) == list(oracle_snf(rows))
    assert fac[0] * fac[1] == abs(big * (big - 3) - (big - 1) ** 2)
    rows = [[BIG + 1, BIG], [BIG, BIG - 1], [3, 1 << 69]]
    assert list(smith_normal_form(rows).invariant_factors) == \
        list(oracle_snf(rows))


def test_bareiss_entries_past_int64():
    big = 1 << 30
    rows = [[big, big - 1, 1], [big - 1, big - 3, 2], [1, 2, big]]
    assert rank(rows, "q") == oracle_rank_fraction(rows) == 3
    rows = [[BIG, BIG + 1, 1], [2 * BIG, 2 * BIG + 2, 2], [1, 1, 0]]
    assert rank(rows, "q") == oracle_rank_fraction(rows)
