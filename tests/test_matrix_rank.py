"""The exact rank helper ``arith.matrix_rank`` against sympy's rank, and its
edge cases: empty matrices, zero rows, transposition and untouched input."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import matrix_rank

try:
    import sympy
except ImportError:  # the sympy oracle is optional
    sympy = None

ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw):
    """Rows of equal length: some drawn freely, the rest combinations of
    those, shuffled, so that rank-deficient matrices are common."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=4))
    rows = list(base)
    if base:
        for _ in range(draw(st.integers(0, 3))):
            coeffs = draw(st.lists(ENTRIES, min_size=len(base), max_size=len(base)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, base)), Fraction(0))
                         for j in range(ncols)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


def transpose(ncols, rows):
    return [[r[j] for r in rows] for j in range(ncols)]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_rank_matches_sympy(case):
    ncols, rows = case
    oracle = sympy.Matrix(len(rows), ncols,
                          [sympy.Rational(v.numerator, v.denominator)
                           for r in rows for v in r])
    assert matrix_rank(rows) == oracle.rank()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_rank_is_invariant_under_transposition_and_leaves_rows_alone(case):
    ncols, rows = case
    before = copy.deepcopy(rows)
    rank = matrix_rank(rows)
    assert rows == before
    assert rank == matrix_rank(transpose(ncols, rows))
    assert rank <= min(len(rows), ncols)


def test_empty_and_zero_matrices():
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    assert matrix_rank([[Fraction(0)] * 3] * 2) == 0
    assert matrix_rank([[0, 0], [1, 2], [0, 0], [2, 4]]) == 1


def test_identity_and_integer_entries():
    identity = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert matrix_rank(identity) == 4
    assert matrix_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert matrix_rank([[0, 1], [1, 0]]) == 2
