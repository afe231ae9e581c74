"""Exact integer linear algebra against the naive reference implementations."""

import pytest
from hypothesis import given, strategies as st

from oracles import oracle_rank_fraction, oracle_rank_modp, oracle_snf
from srcox.errors import DomainError, PropertyViolation
from srcox.exact_linalg import (
    IntMatrix,
    SnfResult,
    is_prime,
    rank,
    smith_normal_form,
)

entries = st.integers(min_value=-30, max_value=30)
small_matrix = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=m, max_size=m)))


def test_snf_textbook_example():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    res = smith_normal_form(IntMatrix(rows))
    assert list(res.invariant_factors) == list(oracle_snf(rows))


def test_snf_zero_and_identity():
    assert smith_normal_form(IntMatrix(((0,) * 4,) * 3)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.identity(4)).invariant_factors == \
        (1, 1, 1, 1)


@given(small_matrix)
def test_snf_matches_oracle(rows):
    res = smith_normal_form(IntMatrix(rows))
    assert list(res.invariant_factors) == list(oracle_snf(rows))


@given(small_matrix)
def test_snf_divisibility_chain(rows):
    fac = smith_normal_form(IntMatrix(rows)).invariant_factors
    assert all(d > 0 for d in fac)
    assert all(b % a == 0 for a, b in zip(fac, fac[1:]))


@given(small_matrix)
def test_snf_invariant_under_transpose(rows):
    M = IntMatrix(rows)
    a = smith_normal_form(M).invariant_factors
    b = smith_normal_form(IntMatrix(zip(*rows))).invariant_factors
    assert a == b


@given(small_matrix, st.randoms(use_true_random=False))
def test_snf_invariant_under_row_permutation(rows, rnd):
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    a = smith_normal_form(IntMatrix(rows)).invariant_factors
    b = smith_normal_form(
        IntMatrix([rows[i] for i in perm])).invariant_factors
    assert a == b


@given(small_matrix)
def test_rank_rational_matches_oracle(rows):
    assert rank(IntMatrix(rows), "q") == oracle_rank_fraction(rows)


@given(small_matrix, st.sampled_from([2, 3, 5, 7]))
def test_rank_modp_matches_oracle(rows, p):
    assert rank(IntMatrix(rows), p) == oracle_rank_modp(rows, p)


def test_rank_rejects_composite_modulus():
    with pytest.raises(DomainError):
        rank(IntMatrix.identity(2), 4)


def test_big_entries_use_exact_fallback():
    # entries beyond the int64-safe window must still come out exact
    rows = [[1 << 41, 3, 1], [5, (1 << 40) + 7, 2], [0, 1, 1 << 42]]
    res = smith_normal_form(IntMatrix(rows))
    assert list(res.invariant_factors) == list(oracle_snf(rows))
    assert rank(IntMatrix(rows), "q") == oracle_rank_fraction(rows)
    assert rank(IntMatrix(rows), 5) == oracle_rank_modp(rows, 5)


def test_snf_result_reports():
    # RP^2 boundary-like example: one invariant factor 2
    rows = [[2]]
    res = smith_normal_form(IntMatrix(rows))
    assert res.rank == 1
    assert res.torsion() == (2,)
    assert res.rank_mod(2) == 0
    assert res.rank_mod(3) == 1


def test_snf_result_rejects_broken_chain():
    # a raised error, not an assert, so python -O keeps the check
    with pytest.raises(PropertyViolation):
        SnfResult((2, 3))


def test_intmatrix_ops():
    A = IntMatrix([[1, 2], [3, 4]])
    B = IntMatrix([[0, 1], [1, 0]])
    assert (A @ B).data == ((2, 1), (4, 3))
    assert A.mod(3).data == ((1, 2), (0, 1))
    assert IntMatrix.identity(2).is_identity()
    assert not A.is_identity()
    assert A.max_abs() == 4


def test_is_prime_small_and_carmichael():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)      # Carmichael
    assert not is_prime(1)
    assert is_prime(2 ** 61 - 1)  # Mersenne prime
