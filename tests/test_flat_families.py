"""The paper's main theorem as an oracle: P_red is constant in flat families.

The abstract: "If E is a flat family of sheaves on Y parameterized by a smooth
curve C, then P_red(E_c) does not depend on c."  The families here are
Groebner degenerations.  Each draw is a cyclic graded module M = S/I over
R[n] = Q[x, y][t]/(t^n), with S = Q[x, y, t], n = 2 or 3, and I = N + (t^n)
for 1-3 homogeneous relations N of degree 1-2.  For a weight vector that
picks out the initial ideal in(I), the family s -> S/I_s with I_1 = I and
I_0 = in(I) is flat over Q[s] (Eisenbud, Commutative Algebra, Thm 15.17).
So M and its special fibre M_0 = S/in(I) must have one reduced Hilbert
polynomial.  The initial ideal is read from sympy's ``groebner``, which
shares no code with truncmod.

The order is lex with t first, which puts as much t as it can into the
leads.  Under it the first-filtration layers of M and M_0 often differ, so
equal sums check the layer machinery, not only a total that any route
would get right: in 18 of the 60 draws they do.  Under grevlex with t last
they did not move in any of 300 such draws, so that order would test only
the total.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import Poly
from truncmod.fpmod import Grading, PresMod, first_canonical_filtration, layer_quotients
from truncmod.hilbert import (
    layer_base_series,
    polynomial_from_series,
    reduced_hilbert_polynomial,
)
from truncmod.multiring import TruncRing

sympy = pytest.importorskip("sympy")

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
COEFFS = st.integers(-3, 3).filter(bool)


def monomials(degree, n):
    """Exponents (x, y, t) of total degree ``degree`` with t-degree below n."""
    return [(a, degree - a - k, k) for k in range(min(degree, n - 1) + 1)
            for a in range(degree - k + 1)]


def relations(n):
    """One homogeneous relation of degree 1 or 2, as {exponents: coefficient}."""
    return st.sampled_from((1, 2)).flatmap(lambda d: st.dictionaries(
        st.sampled_from(monomials(d, n)), COEFFS, min_size=1, max_size=3))


CYCLIC = st.sampled_from((2, 3)).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(relations(n), min_size=1, max_size=3)))


def cyclic(tr, rels):
    """R[n]/(rels) with its generator in degree 0."""
    cols = [(Poly(tr.S, {e: Fraction(c) for e, c in r.items()}),) for r in rels]
    return PresMod(tr, 1, cols, Grading((0,), 1))


def initial_module(tr, rels):
    """S/in(N + t^n) under lex with t > x > y, from sympy's basis."""
    t, x, y = sympy.symbols("t x y")
    ideal = [sum(c * x ** a * y ** b * t ** k for (a, b, k), c in r.items()) for r in rels]
    basis = sympy.groebner(ideal + [t ** tr.n], t, x, y, order="lex")
    leads = [sympy.Poly(g, t, x, y).monoms(order="lex")[0] for g in basis.exprs]
    return cyclic(tr, [{(a, b, k): 1} for k, a, b in leads])


def layer_polynomials(M):
    return [polynomial_from_series(layer_base_series(layer))
            for layer in layer_quotients(M, first_canonical_filtration(M))]


def test_reduced_hilbert_polynomial_is_constant_in_groebner_degenerations():
    moved = []

    @SETTINGS
    @given(CYCLIC)
    def check(draw):
        n, rels = draw
        tr = TruncRing(("x", "y"), n)
        M, M0 = cyclic(tr, rels), initial_module(tr, rels)
        assert reduced_hilbert_polynomial(M) == reduced_hilbert_polynomial(M0)
        moved.append(layer_polynomials(M) != layer_polynomials(M0))

    check()
    # the layers jump in some draws, so the check is not about the total alone
    assert any(moved)
