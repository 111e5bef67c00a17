"""Exact multivariate polynomial arithmetic over the rationals."""

import random
import re
import time
from fractions import Fraction

import pytest

import arith_oracle
from groebner_oracle import mono_div, mono_divides, mono_lcm
from truncmod import arith
from truncmod.arith import ArithError, PolyRing, grevlex, lex, mono_mul


def ring2():
    return PolyRing(("x", "y"))


def random_poly(ring, rng, max_terms=4, max_deg=3):
    p = ring.zero()
    nv = len(ring.variables)
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nv))
        coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        p = p + ring.from_terms({exps: coeff})
    return p


def test_sum_of_conjugate_linears():
    R = ring2()
    x, one = R.gen("x"), R.one()
    assert (x + one) + (x - one) == R.const(2) * x


def test_difference_of_squares():
    R = ring2()
    x, y = R.gen("x"), R.gen("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_multiplication_by_zero_annihilates():
    R = ring2()
    x, y = R.gen("x"), R.gen("y")
    for p in (x * x + R.const(3) * y, R.one(), R.parse("x^3 - 1/2*y")):
        assert (p * R.zero()).is_zero()


def test_constant_term_examples():
    R = ring2()
    assert R.parse("x^2 + 3").constant_term() == 3
    assert R.zero().constant_term() == 0


def test_ring_laws_on_random_inputs():
    R = ring2()
    rng = random.Random(20814)
    for _ in range(40):
        p, q, r = (random_poly(R, rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + R.zero() == p
        assert p * R.one() == p


def test_parse_format_round_trip():
    R = ring2()
    for text in ("0", "1", "-x", "x^2 - 1", "1/2*x*y + 7", "-x + y^3", "x^2*y^2 - 2/3"):
        p = R.parse(text)
        assert R.parse(R.format(p)) == p


def test_parse_power_and_grouping():
    R = ring2()
    assert R.parse("(x+y)^2 - 2*x*y") == R.parse("x^2 + y^2")
    assert R.parse("x^3") == R.gen("x") ** 3


@pytest.mark.parametrize("text, message", [
    pytest.param("x + @", "bad character at position 3", id="bad-character"),
    pytest.param("x^-1", "negative exponents are not supported", id="negative-exponent"),
    pytest.param("z", "unknown symbol 'z'", id="unknown-symbol"),
    pytest.param("x y", "trailing input", id="trailing-input"),
    pytest.param("(x y", "unbalanced parentheses", id="unbalanced-parentheses"),
    pytest.param("x/y", "division only by nonzero constants", id="division-by-variable"),
    pytest.param("x^y", "exponent must be an integer", id="variable-exponent"),
])
def test_parse_rejects_bad_input(text, message):
    with pytest.raises(ArithError, match=re.escape(message)):
        ring2().parse(text)


def test_parse_accepts_surrounding_whitespace():
    R = ring2()
    x = R.gen("x")
    for text in ("x + 1 ", "  x + 1", " x + 1\t\n", "x+1"):
        assert R.parse(text) == x + R.one()
    # a bad character keeps its position, even before trailing whitespace
    with pytest.raises(ArithError, match="bad character at position 3"):
        R.parse("x +$ ")
    with pytest.raises(ArithError, match="bad character at position 1"):
        R.parse("x @ y")
    for text in ("", "   "):
        with pytest.raises(ArithError, match="unexpected end of input"):
            R.parse(text)


def test_tokenizer_is_linear_in_whitespace_runs():
    # A long run of whitespace, at the end or before a bad character, is
    # scanned once: a tokenizer that searches ahead from every position of
    # the run takes seconds here.
    R = ring2()
    x = R.gen("x")
    spaces = " " * 200_000
    start = time.perf_counter()
    assert R.parse("x" + spaces) == x
    with pytest.raises(ArithError, match="bad character at position 0"):
        R.parse("@" + spaces + "@")
    with pytest.raises(ArithError, match="bad character at position 1"):
        R.parse("x" + spaces + "@")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, position", [
    ("x + $", 3),
    ("x + 1 #", 5),
    ("é", 0),
    ("x + $  ", 3),
    ("x + 1 # \t\n", 5),
    ("é ", 0),
    ("  é", 0),
    ("x*yé", 3),
    ("(x + 1)^2 ;", 9),
])
def test_bad_character_positions(text, position):
    # the position is where the last token before the bad character ends,
    # whitespace after it included, with or without trailing whitespace
    message = f"bad character at position {position} in {text!r}"
    with pytest.raises(ArithError) as exc:
        ring2().parse(text)
    assert str(exc.value) == message
    with pytest.raises(ArithError) as exc:
        arith_oracle.parse(ring2(), text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    pytest.param("x+" * 50_000 + "$", id="long-token-run"),
    pytest.param("9" * 4_000 + " $", id="long-constant"),
])
def test_tokenizer_rejects_long_texts_in_linear_time(text):
    # the validating match reads each token once and never backtracks into it
    start = time.perf_counter()
    with pytest.raises(ArithError, match="bad character at position"):
        ring2().parse(text)
    assert time.perf_counter() - start < 1.0


def test_a_flat_sum_adds_each_term_in_place(monkeypatch):
    # a sum of n terms costs O(n): each term is added into the running sum's
    # dict, which is never copied, with the oracle's terms in its order
    text = " + ".join(f"{i}*x^{i}" for i in range(1, 200)) + " - 1/2*y + 3/4*x"
    calls = []
    add = arith._sum

    def recorded(p, q):
        out = add(p, q)
        calls.append(out[1] is p[1])
        return out

    monkeypatch.setattr(arith, "_sum", recorded)
    p = ring2().parse(text)
    monkeypatch.undo()
    assert len(calls) == 200 and all(calls)
    assert items(p) == items(arith_oracle.parse(ring2(), text))


def test_parse_bounds_exponents_and_constants():
    R = ring2()
    x = R.gen("x")
    assert R.parse("x^1000") == x ** 1000
    assert R.parse("x^0002") == x * x
    for text in ("x^1001", "(1+x)^99999999999999999999", "x^" + "9" * 5000,
                 "9" * 5000 + "*x"):
        with pytest.raises(ArithError):
            R.parse(text)


def test_substitution_is_a_ring_map():
    R = ring2()
    x, y = R.gen("x"), R.gen("y")
    images = {"x": y * y - R.one(), "y": x + y}
    rng = random.Random(7)
    for _ in range(15):
        p, q = random_poly(R, rng), random_poly(R, rng)
        sp, sq = p.substitute(images), q.substitute(images)
        assert (p + q).substitute(images) == sp + sq
        assert (p * q).substitute(images) == sp * sq
    assert R.one().substitute(images) == R.one()


def test_evaluate_at_rational_point():
    # evaluation is substitution of constants
    R = ring2()
    p = R.parse("x*y + 1")
    assert p.substitute({"x": R.const(Fraction(2)), "y": R.const(Fraction(3))}) == R.const(7)
    assert R.parse("x/2 - y^2").substitute({"x": R.const(3), "y": R.const(Fraction(1, 2))}) \
        == R.const(Fraction(5, 4))


def test_degree_helpers():
    R = ring2()
    p = R.parse("x*y^2")
    assert p.total_degree() == 3


def test_coefficient_extraction():
    R = ring2()
    p = R.parse("3*x*y + 2*x + 5")
    assert p.terms[(1, 1)] == 3
    assert p * R.const(2) == R.parse("6*x*y + 4*x + 10")


def test_monomial_helpers():
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert mono_divides((1, 0), (1, 2))
    assert not mono_divides((2, 0), (1, 2))
    assert mono_div((1, 2), (1, 0)) == (0, 2)
    assert mono_lcm((2, 0), (1, 1)) == (2, 1)


def test_monomial_orders_are_total_and_multiplicative():
    rng = random.Random(99)
    for order in (lex(), grevlex()):
        monos = [tuple(rng.randrange(4) for _ in range(2)) for _ in range(25)]
        key = order.key
        for a in monos:
            for b in monos:
                # totality: keys decide every pair
                assert (key(a) < key(b)) or (key(b) < key(a)) or a == b
                if key(a) < key(b):
                    for c in monos:
                        assert key(mono_mul(a, c)) < key(mono_mul(b, c))
        # the unit monomial is smallest
        assert all(key((0, 0)) <= key(m) for m in monos)


def test_leading_terms_under_each_order():
    Rg = PolyRing(("x", "y"), order=grevlex())
    Rl = PolyRing(("x", "y"), order=lex())
    for R, lead in ((Rg, (0, 3)), (Rl, (2, 0))):
        p = R.parse("x^2 + y^3")
        assert max(p.terms, key=R.order.key) == lead and p.terms[lead] == Fraction(1)


# -- results past the first field width ------------------------------------------
#
# A monomial of total degree 2^15 or more outgrows the first packing; the
# operation is redone with fields twice as wide, and the answer, terms and
# their order alike, is the tuple-keyed oracle's.


def items(p):
    return list(p.terms.items())


def test_nested_power_past_the_first_field_width():
    R = ring2()
    assert items(R.parse("(x^1000)^40")) == [((40000, 0), Fraction(1))]
    assert items(R.parse("(x^1000)^40 - y*(y^1000)^32 + 1/2")) == \
        items(arith_oracle.parse(R, "(x^1000)^40 - y*(y^1000)^32 + 1/2"))
    # the degree 2^15 - 1 fits the first fields and 2^15 does not, also when
    # one exponent field holds it; each text starts from a fresh ring, whose
    # fields are the first width
    for text in ("x^1000^32*y^767", "x^1000^32*y^768", "x^1000^32*x^767", "x^1000^32*x^768",
                 "((x^512)^32 + y)^2"):
        R = ring2()
        assert items(R.parse(text)) == items(arith_oracle.parse(R, text))


@pytest.mark.parametrize("below", [None, (1, 3), (1, 40_000), (0, 16_385)])
def test_products_past_the_first_field_width_match_the_oracle(below):
    R = PolyRing(("x", "t"), below=below)
    p = R.from_terms({(16_384, 2): Fraction(1), (0, 20_000): Fraction(2),
                      (1, 0): Fraction(-1, 3), (0, 1): Fraction(1)})
    q = R.from_terms({(0, 20_000): Fraction(1), (2, 19_999): Fraction(-5),
                      (16_384, 0): Fraction(7), (0, 0): Fraction(3, 2)})
    assert items(p.times(q)) == items(arith_oracle.times(p, q, below))
    assert items(q.power(3)) == items(arith_oracle.power(q, 3, below))
    s = R.parse("x^2*t + 3*t^2 - x + 1/5")
    images = {"x": R.from_terms({(0, 17_000): Fraction(1), (1, 0): Fraction(1)}),
              "t": R.from_terms({(16_000, 0): Fraction(2), (0, 1): Fraction(-1)})}
    assert items(s.substitute(images)) == \
        items(arith_oracle.substitute(s, images, below))
    # the ring keeps its wider packing, and small products still agree
    small = R.parse("x + t - 1")
    assert items(small.power(4)) == items(arith_oracle.power(small, 4, below))


def test_bound_reached_in_a_widened_field_drops_the_term():
    below = (1, 40_000)
    R = PolyRing(("x", "t"), below=below)
    p = R.from_terms({(0, 20_000): Fraction(1), (1, 0): Fraction(1)})
    q = R.from_terms({(0, 20_000): Fraction(1), (0, 19_999): Fraction(1), (0, 0): Fraction(1)})
    product = p.times(q)
    assert items(product) == items(arith_oracle.times(p, q, below))
    # t^40000 reaches the bound and is dropped; t^39999 lies past the first
    # field width and is kept
    assert (0, 40_000) not in product.terms
    assert product.terms[(0, 39_999)] == 1
    assert items(R.parse("(t^1000)^40 + t*(t^1000)^39 + (x*t^999)^40")) == \
        items(arith_oracle.parse(R, "(t^1000)^40 + t*(t^1000)^39 + (x*t^999)^40", below))
