"""Products and powers of random polynomials against sympy's ``expand``,
an independent implementation of the same arithmetic."""

import random
from fractions import Fraction

import pytest

from truncmod.arith import PolyRing

sympy = pytest.importorskip("sympy")

VARIABLES = ("x", "y", "z", "t")


def random_poly(ring, rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[exps] = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 9))
    return ring.from_terms(terms)


def to_sympy(p, symbols):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** e for s, e in zip(symbols, exps)])
        for exps, c in p.terms.items()
    ])


def from_sympy(expr, symbols):
    """The expanded expression as ``{exponents: Fraction}``."""
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *symbols).as_dict().items() if c}


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_products_and_powers_match_sympy(nvars):
    ring = PolyRing(VARIABLES[:nvars])
    symbols = sympy.symbols(ring.variables)
    rng = random.Random(1337 + nvars)
    for _ in range(12):
        p, q = random_poly(ring, rng), random_poly(ring, rng)
        k = rng.randint(0, 7)
        sp, sq = to_sympy(p, symbols), to_sympy(q, symbols)
        assert (p * q).terms == from_sympy(sympy.expand(sp * sq), symbols)
        assert (p ** k).terms == from_sympy(sympy.expand(sp ** k), symbols)
