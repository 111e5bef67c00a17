"""Property tests for the polynomial product kernel: ring laws, powers,
normalised coefficients and the text round trip, on random polynomials in
two to four variables with non-integer rational coefficients."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import Poly, PolyRing, grevlex, lex

VARIABLES = ("x", "y", "z", "w")
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@st.composite
def rings(draw):
    nvars = draw(st.integers(2, 4))
    return PolyRing(VARIABLES[:nvars], draw(st.sampled_from([lex(), grevlex()])))


def polys(ring, max_terms=5, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(ring.from_terms)


@st.composite
def triples(draw):
    ring = draw(rings())
    return tuple(draw(polys(ring)) for _ in range(3))


@st.composite
def powers(draw):
    ring = draw(rings())
    return draw(polys(ring, max_terms=4, max_exp=2)), draw(st.integers(0, 9))


def assert_normalised(p):
    for c in p.terms.values():
        assert type(c) is Fraction
        assert c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(triples())
def test_product_ring_laws(case):
    p, q, r = case
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    for product in (p * q, (p * q) * r, p * (q + r)):
        assert_normalised(product)


@SETTINGS
@given(powers())
def test_power_is_repeated_product(case):
    p, k = case
    expected = p.ring.one()
    for _ in range(k):
        expected = expected * p
    power = p ** k
    assert power == expected
    assert_normalised(power)


@SETTINGS
@given(triples())
def test_parse_inverts_format(case):
    for p in case:
        assert p.ring.parse(p.ring.format(p)) == p


def test_power_makes_no_unread_products(monkeypatch):
    R = PolyRing(("x", "y"))
    p = R.parse("1 + x - 2/3*y")
    calls = []
    product = Poly.times

    def counted(self, other, below=None):
        calls.append(None)
        return product(self, other, below)

    # every product, ``*`` and the power loop alike, goes through times
    monkeypatch.setattr(Poly, "times", counted)
    for k in range(1, 17):
        calls.clear()
        p ** k
        # bit_length(k) - 1 squarings, one product per set bit of k
        assert len(calls) <= k.bit_length() - 1 + bin(k).count("1"), k
