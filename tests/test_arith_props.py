"""Property tests for the polynomial product kernel: ring laws, powers,
normalised coefficients and the text round trip, on random polynomials in
two to four variables with non-integer rational coefficients; and parse,
products, powers and substitution against a term-by-term ``Fraction``
reference, terms and their order alike; and parse against the tuple-keyed
kernel of ``arith_oracle``, error messages included."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import arith_oracle
from truncmod import arith
from truncmod.arith import ArithError, PolyRing, grevlex, lex

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
    product = arith._product

    def counted(*args):
        calls.append(None)
        return product(*args)

    # every product of the power loop goes through the one integer kernel
    monkeypatch.setattr(arith, "_product", counted)
    for k in range(1, 17):
        calls.clear()
        p ** k
        # bit_length(k) - 1 squarings, one product per set bit of k
        assert 1 <= len(calls) <= k.bit_length() - 1 + bin(k).count("1"), k


# -- a term-by-term Fraction reference -------------------------------------------
#
# Answers depend on dict order, so these mirror the documented order of each
# operation step by step in plain Fraction arithmetic, without the integer
# kernel: a product keeps the order in which pairs first form a monomial, a
# sum keeps the left terms and appends the new right ones, and a power
# squares right to left.


def ref_times(p, q, below):
    acc = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if below is None or e[below[0]] < below[1]:
                acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def ref_neg(p):
    return {e: -c for e, c in p.items()}


def ref_power(p, k, below, nvars):
    result, base = {(0,) * nvars: Fraction(1)}, p
    while k:
        if k & 1:
            result = ref_times(result, base, below)
        k >>= 1
        if k:
            base = ref_times(base, base, below)
    return result


def ref_substitute(p, variables, images, below, nvars):
    ladders, out = {}, {}
    for e, c in p.items():
        term = {(0,) * nvars: c}
        for v, k in zip(variables, e):
            if k:
                ladder = ladders.setdefault(v, [images[v]])
                while len(ladder) < k:
                    ladder.append(ref_times(ladder[-1], ladder[0], below))
                term = ref_times(term, ladder[k - 1], below)
        out = ref_add(out, term)
    return out


def assert_same_terms(p, reference):
    assert p.terms == reference
    assert list(p.terms) == list(reference)
    assert_normalised(p)


# Coefficients of +-1 and +-1/2 on monomials from one small pool make
# products whose terms collide and cancel, so the order of first formation
# and the dropping of zero sums are both exercised.
REF_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]) | COEFFS


@st.composite
def ref_polys(draw, ring, count, max_terms=5):
    """``count`` polynomials whose monomials come from one pool of two to
    ``max_terms`` monomials with exponents up to 12; each after the first
    is drawn afresh or is the first with some signs flipped, so that their
    cross terms cancel."""
    exps = st.tuples(*[st.integers(0, 1) | st.integers(0, 12)] * ring.nvars)
    pool = draw(st.lists(exps, min_size=2, max_size=max_terms, unique=True))
    terms = st.dictionaries(st.sampled_from(pool), REF_COEFFS, min_size=1)
    first = draw(terms)
    out = [first]
    for _ in range(count - 1):
        if draw(st.booleans()):
            out.append({e: c if draw(st.booleans()) else -c for e, c in first.items()})
        else:
            out.append(draw(terms))
    return [ring.from_terms(t) for t in out]


def bounds(ring):
    return st.none() | st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, 13))


def bounded(ring, below):
    """``ring`` with the bound ``below``."""
    return PolyRing(ring.variables, ring.order, below)


def moved(ring, *polys):
    """``polys`` with their terms in their order, as ``Poly``s of ``ring``."""
    return [ring.from_terms(p.terms) for p in polys]


@st.composite
def expressions(draw, ring, depth=3):
    """(text, reference terms as a function of ``below``) of a random
    expression; every compound part is parenthesised."""
    nvars = ring.nvars
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            n = draw(st.integers(0, 12))
            return str(n), lambda below: {(0,) * nvars: Fraction(n)} if n else {}
        i = draw(st.integers(0, nvars - 1))
        e = tuple(int(j == i) for j in range(nvars))
        return ring.variables[i], lambda below: {e: Fraction(1)}
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg", "conj"]))
    a, ra = draw(expressions(ring, depth - 1))
    if op == "neg":
        return f"(-{a})", lambda below: ref_neg(ra(below))
    if op == "/":
        d = draw(st.integers(1, 12))
        if draw(st.booleans()):
            return f"({a}/{d})", lambda below: {e: c / d for e, c in ra(below).items()}
        return f"({a}/(-{d}))", lambda below: {e: c / -d for e, c in ra(below).items()}
    if op == "^":
        k = draw(st.integers(0, 4))
        power = draw(st.sampled_from(["^", "**"]))
        return f"({a}{power}{k})", lambda below: ref_power(ra(below), k, below, nvars)
    b, rb = draw(expressions(ring, depth - 1))
    if op == "+":
        return f"({a} + {b})", lambda below: ref_add(ra(below), rb(below))
    if op == "-":
        return f"({a} - {b})", lambda below: ref_add(ra(below), ref_neg(rb(below)))
    if op == "conj":
        # (a + b)(a - b): the cross terms cancel
        return f"(({a} + {b})*({a} - {b}))", lambda below: ref_times(
            ref_add(ra(below), rb(below)), ref_add(ra(below), ref_neg(rb(below))), below)
    return f"({a}*{b})", lambda below: ref_times(ra(below), rb(below), below)


# small expressions are cheap, and most cancellations need a large one
@settings(SETTINGS, max_examples=400)
@given(st.data())
def test_parse_matches_fraction_reference(data):
    ring = data.draw(rings())
    text, reference = data.draw(expressions(ring))
    text += data.draw(st.sampled_from(["", " ", "  \t"]))
    below = data.draw(bounds(ring))
    assert_same_terms(bounded(ring, below).parse(text), reference(below))


@SETTINGS
@given(st.data())
def test_times_matches_fraction_reference(data):
    ring = data.draw(rings())
    p, q = data.draw(ref_polys(ring, 2))
    below = data.draw(bounds(ring))
    p, q = moved(bounded(ring, below), p, q)
    assert_same_terms(p.times(q), ref_times(p.terms, q.terms, below))


@SETTINGS
@given(st.data())
def test_power_matches_fraction_reference(data):
    ring = data.draw(rings())
    [p] = data.draw(ref_polys(ring, 1, max_terms=4))
    k = data.draw(st.integers(0, 6))
    below = data.draw(bounds(ring))
    [p] = moved(bounded(ring, below), p)
    assert_same_terms(p.power(k), ref_power(p.terms, k, below, ring.nvars))


@SETTINGS
@given(st.data())
def test_substitute_matches_fraction_reference(data):
    ring = data.draw(rings())
    [p] = data.draw(ref_polys(ring, 1, max_terms=4))
    images = dict(zip(ring.variables, data.draw(ref_polys(ring, ring.nvars, max_terms=3))))
    below = data.draw(bounds(ring))
    reference = ref_substitute(p.terms, ring.variables,
                               {v: q.terms for v, q in images.items()}, below, ring.nvars)
    # the images, and so the substitution, live in the bounded ring
    images = dict(zip(images, moved(bounded(ring, below), *images.values())))
    assert_same_terms(p.substitute(images), reference)


# -- the tuple-keyed kernel as a differential oracle ------------------------------
#
# ``arith_oracle`` holds the parser and kernel that keyed terms by exponent
# tuples.  Packing monomials into ints must change no answer, no dict order and
# no error message, on valid and invalid texts alike.


def random_text(rng, variables, depth=5):
    """Expression text: nested parentheses, chains of unary minus, ``^`` and
    ``**``, and division by constants.  The operands of products, powers and
    quotients are grouped or not, at random, so precedence is exercised too.
    Only the last two levels may stop early, so most texts are long."""
    if depth == 0 or (depth <= 2 and rng.random() < 0.3):
        return rng.choice(variables + ("0", "1", "2", "3", "12"))
    kind = rng.choice(["sum", "product", "sum", "product", "power", "paren", "neg", "divide"])
    a = random_text(rng, variables, depth - 1)
    if kind in ("power", "divide", "product") and rng.random() < 0.5:
        a = f"({a})"
    if kind == "paren":
        return f"({a})"
    if kind == "neg":
        return "-" * rng.randint(1, 3) + a
    if kind == "power":
        return f"{a}{rng.choice(['^', '**', ' ^ '])}{rng.randint(0, 3)}"
    if kind == "divide":
        return f"{a}/{rng.choice(['1', '2', '3', '12', '(-2)', '(3)', '0'])}"
    b = random_text(rng, variables, depth - 1)
    if kind == "sum":
        return f"{a} {rng.choice(['+', '-'])} {b}"
    if rng.random() < 0.5:
        b = f"({b})"
    return f"{a}*{b}"


def maybe_broken(rng, text):
    """``text``, or ``text`` with one character put in or the text cut short,
    so that some draws are invalid."""
    how = rng.choice(["keep", "keep", "keep", "insert", "cut"])
    if how == "keep" or not text:
        return text
    at = rng.randrange(len(text))
    if how == "cut":
        return text[:at]
    return text[:at] + rng.choice(list("$@é)(^*/+- 0x") + ["**", "^-"]) + text[at:]


def outcome(parse, ring, text, below):
    """The parse's terms in order, or the message of its ``ArithError``."""
    try:
        return list(parse(ring, text, below).terms.items())
    except ArithError as exc:
        return str(exc)


@settings(SETTINGS, max_examples=500)
@given(st.data())
def test_parse_matches_tuple_oracle(data):
    ring = data.draw(rings())
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    text = maybe_broken(rng, random_text(rng, ring.variables)) + rng.choice(["", " ", " \t"])
    for below in (None, (data.draw(st.integers(0, ring.nvars - 1)), data.draw(st.integers(1, 3)))):
        assert outcome(lambda ring, text, below: bounded(ring, below).parse(text),
                       ring, text, below) == \
            outcome(arith_oracle.parse, ring, text, below), (text, below)
