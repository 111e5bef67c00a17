"""The exact rank helpers against sympy: ``arith.matrix_rank`` over Q on
sparse rows, with its edge cases (empty matrices, zero rows, absent and
zero entries, transposition and untouched input), and
``fpmod.generic_rank`` over the fraction field of Q[x, y]."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import Poly, PolyRing, grevlex, lex, matrix_rank
from truncmod.fpmod import generic_rank

try:
    import sympy
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
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


def sparse(rows):
    """Dense rows as the sparse rows ``matrix_rank`` takes, keyed by column."""
    return [dict(enumerate(row)) for row in rows]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_rank_matches_sympy(case):
    ncols, rows = case
    oracle = sympy.Matrix(len(rows), ncols,
                          [sympy.Rational(v.numerator, v.denominator)
                           for r in rows for v in r])
    assert matrix_rank(sparse(rows)) == oracle.rank()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_rank_is_invariant_under_transposition_and_leaves_rows_alone(case):
    ncols, rows = case
    rows = sparse(rows)
    before = copy.deepcopy(rows)
    rank = matrix_rank(rows)
    assert rows == before
    dense = [[r[j] for j in range(ncols)] for r in rows]
    assert rank == matrix_rank(sparse(transpose(ncols, dense)))
    assert rank <= min(len(rows), ncols)


def test_empty_and_zero_matrices():
    assert matrix_rank([]) == 0
    assert matrix_rank(sparse([[], []])) == 0
    assert matrix_rank(sparse([[Fraction(0)] * 3] * 2)) == 0
    assert matrix_rank(sparse([[0, 0], [1, 2], [0, 0], [2, 4]])) == 1


def test_identity_and_integer_entries():
    identity = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert matrix_rank(sparse(identity)) == 4
    assert matrix_rank(sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert matrix_rank(sparse([[0, 1], [1, 0]])) == 2


def test_sparse_rows_with_any_keys_absent_and_zero_entries():
    e, a = (0, (1, 0)), "a"
    rows = [
        {e: Fraction(1), a: 2},
        {},                                   # an empty row
        {a: 0, "b": Fraction(0)},             # only explicit zeros
        # reduces to 3*b: e and a cancel and their keys are deleted, so the
        # pivot sits at a key the first row never had
        {"b": 3, e: -1, a: -2},
        {e: 2, a: 4, "b": Fraction(1, 2)},    # twice the first row plus b/2
        {(1, (0, 0)): Fraction(-1, 3)},      # a key no other row has
    ]
    before = copy.deepcopy(rows)
    assert matrix_rank(rows) == 3
    assert rows == before
    assert matrix_rank(rows[:3]) == 1
    assert matrix_rank(iter(rows[3:5])) == 2
    # the same matrix with every absent entry written out as a zero
    keys = [e, a, "b", (1, (0, 0))]
    dense = [{k: row.get(k, 0) for k in keys} for row in rows]
    assert matrix_rank(dense) == 3


# -- generic rank over Frac(Q[x, y]) ---------------------------------------

BASES = {"grevlex": PolyRing(("x", "y"), grevlex()), "lex": PolyRing(("x", "y"), lex())}
EXPONENTS = [(a, b) for a in range(3) for b in range(3 - a)]
COEFFS = st.integers(-2, 2).filter(bool)


@st.composite
def poly_matrices(draw):
    """Matrices of base polynomials, 1-4 rows by 1-4 columns, entries of
    degree at most 2.  Some rows are polynomial combinations of the rows
    drawn freely, so that the rank over the fraction field drops: with
    constant coefficients the free entries have degree at most 2, with
    linear ones at most 1."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff_degree = draw(st.integers(0, 1))

    def poly(degree):
        terms = draw(st.dictionaries(
            st.sampled_from([e for e in EXPONENTS if sum(e) <= degree]),
            COEFFS.map(Fraction), max_size=3))
        return Poly(base, terms)

    nfree = draw(st.integers(1, nrows))
    rows = [[poly(2 - coeff_degree) for _ in range(ncols)] for _ in range(nfree)]
    for _ in range(nrows - nfree):
        coeffs = [poly(coeff_degree) for _ in range(nfree)]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows[:nfree])), base.zero())
                     for j in range(ncols)])
    order = draw(st.permutations(range(nrows)))
    return [rows[i] for i in order]


def fraction_field_rank(matrix) -> int:
    x, y = sympy.symbols("x y")

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** a * y ** b
                    for (a, b), c in p.terms.items()), sympy.Integer(0))

    dm = DomainMatrix.from_list_sympy(len(matrix), len(matrix[0]),
                                      [[expr(p) for p in row] for row in matrix])
    return dm.convert_to(QQ.frac_field(x, y)).rank()


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(poly_matrices())
def test_generic_rank_matches_sympy_over_the_fraction_field(matrix):
    assert generic_rank(matrix) == fraction_field_rank(matrix)


def test_generic_rank_edge_cases():
    base = BASES["grevlex"]
    x, y, zero = base.gen("x"), base.gen("y"), base.zero()
    assert generic_rank([]) == 0
    assert generic_rank([[], []]) == 0
    assert generic_rank([[zero, zero], [zero, zero]]) == 0
    # two leads at one position: rank 1, not 2
    assert generic_rank([[x, y]]) == 1
    assert generic_rank([[x, x * y], [y, y * y]]) == 1
    assert generic_rank([[x, y], [y, x]]) == 2
