"""Reduced Groebner bases and ideal membership against sympy's ``groebner``,
an independent implementation of Buchberger's algorithm.

Each ideal lives in ``Q[x, y, t]`` and contains ``t^n``, as every span over
``Q[x, y][t]/(t^n)`` does.  The reduced basis of an ideal under a fixed
order is unique, so ``SpanGB.gb`` must equal sympy's basis element for
element, and normal forms modulo it must agree too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import PolyRing, grevlex, lex
from truncmod.groebner import SpanGB, vec_from_polys

sympy = pytest.importorskip("sympy")

VARIABLES = ("x", "y", "t")
ORDERS = {"lex": lex, "grevlex": grevlex}
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
POLYS = st.dictionaries(EXPONENTS, COEFFS, min_size=1, max_size=3)


def to_sympy(terms, symbols):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** e for s, e in zip(symbols, exps)])
        for exps, c in terms.items()
    ])


def from_sympy(expr, symbols):
    """The polynomial as ``{exponents: Fraction}``."""
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *symbols).as_dict().items() if c}


def canonical(polys):
    """A list of term dicts as a sorted list of sorted term lists."""
    return sorted(sorted(p.items()) for p in polys)


def setup(order, gens, n):
    """The span in truncmod and the same ideal's basis in sympy."""
    ring = PolyRing(VARIABLES, order=ORDERS[order]())
    t_n = {(0, 0, n): Fraction(1)}
    terms = list(gens) + [t_n]
    span = SpanGB(ring, 1, [vec_from_polys((ring.from_terms(g),)) for g in terms])
    symbols = sympy.symbols(VARIABLES)
    basis = sympy.groebner([to_sympy(g, symbols) for g in terms], *symbols,
                           order=order, domain="QQ")
    return ring, span, symbols, basis


@SETTINGS
@given(st.sampled_from(sorted(ORDERS)), st.lists(POLYS, min_size=1, max_size=3),
       st.integers(1, 3))
def test_reduced_basis_matches_sympy(order, gens, n):
    _ring, span, symbols, basis = setup(order, gens, n)
    ours = [{e: c for (_pos, e), c in v.items()} for v in span.gb]
    theirs = [from_sympy(g, symbols) for g in basis.exprs]
    assert canonical(ours) == canonical(theirs)


@SETTINGS
@given(st.sampled_from(sorted(ORDERS)), st.lists(POLYS, min_size=1, max_size=3),
       st.integers(1, 3), POLYS, st.lists(POLYS, min_size=1, max_size=3))
def test_membership_and_normal_form_match_sympy(order, gens, n, other, multipliers):
    ring, span, symbols, basis = setup(order, gens, n)
    polys = [ring.from_terms(g) for g in gens]
    member = sum((ring.from_terms(m) * p for m, p in zip(multipliers, polys)), ring.zero())
    for elem in (member, ring.from_terms(other), member + ring.from_terms(other)):
        v = vec_from_polys((elem,))
        _quotients, remainder = basis.reduce(to_sympy(elem.terms, symbols))
        nf = {e: c for (_pos, e), c in span.normal_form(v).items()}
        assert nf == from_sympy(remainder, symbols)
        assert span.contains(v) == (remainder == 0)
    assert span.contains(vec_from_polys((member,)))
