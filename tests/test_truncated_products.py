"""Truncated products in R[n] against the full product followed by
truncation: bounded ``Poly.times``, ``TruncRing.parse`` and the
automorphism maps, each checked against a route that expands in full over
``Q[x.., t]`` and drops the terms of t-degree >= n only at the end."""

import builtins
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod import arith
from truncmod.arith import PolyRing, grevlex, lex
from truncmod.multiring import AutMap, TruncRing, compose, verify_cocycle

VARIABLES = ("x", "y", "z", "w")
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ORDERS = st.sampled_from([lex(), grevlex()])


def drop(p, ring):
    """``p`` as a ``Poly`` of ``ring`` without the terms whose exponent at
    ``ring.below[0]`` reaches ``ring.below[1]``, kept terms in their order."""
    i, b = ring.below
    return arith.Poly(ring, {e: c for e, c in p.terms.items() if e[i] < b})


def unbounded(tr):
    """``Q[x.., t]``: the variables and order of ``tr.S`` without its bound."""
    return PolyRing(tr.S.variables, tr.S.order)


def polys(ring, max_terms=5, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(ring.from_terms)


@st.composite
def bounded_pairs(draw):
    ring = PolyRing(VARIABLES[:draw(st.integers(1, 4))], draw(ORDERS))
    below = (draw(st.integers(0, ring.nvars - 1)), draw(st.integers(1, 5)))
    return draw(polys(ring)), draw(polys(ring)), below


@SETTINGS
@given(bounded_pairs())
def test_bounded_product_is_truncated_product(case):
    p, q, below = case
    # the same terms in the ring with the bound
    ring = PolyRing(p.ring.variables, p.ring.order, below)
    bp, bq = ring.from_terms(p.terms), ring.from_terms(q.terms)
    bounded, full = bp.times(bq), drop(p * q, ring)
    assert bounded == full
    assert list(bounded.terms) == list(full.terms)
    power = bp.power(3)
    assert list(power.terms.items()) == list(drop(p ** 3, ring).terms.items())


@SETTINGS
@given(bounded_pairs(), st.integers(1, 3))
def test_a_product_that_cannot_reach_the_bound_is_the_unbounded_product(case, room):
    """When the largest exponents of the two factors at the bounded variable
    sum to less than the bound, the bounded product is the unbounded one,
    term for term and in the same order."""
    p, q, (i, _) = case
    top = sum(max((e[i] for e in f.terms), default=0) for f in (p, q))
    ring = PolyRing(p.ring.variables, p.ring.order, (i, top + room))
    bounded = ring.from_terms(p.terms).times(ring.from_terms(q.terms))
    assert list(bounded.terms.items()) == list((p * q).terms.items())


# -- parsing -------------------------------------------------------------------

ATOMS = st.sampled_from(["x", "y", "t", "1", "2", "3/2", "-1/3", "5"])


@st.composite
def expressions(draw):
    """Sums of one to three terms; a term is a product of one or two
    factors; a factor is an atom or a parenthesised sum of atoms raised to
    a power up to 12."""
    def factor():
        if draw(st.booleans()):
            return draw(ATOMS)
        inner = " + ".join(draw(st.lists(ATOMS, min_size=1, max_size=3)))
        return f"({inner})^{draw(st.integers(0, 12))}"

    terms = ["*".join(factor() for _ in range(draw(st.integers(1, 2))))
             for _ in range(draw(st.integers(1, 3)))]
    signs = [draw(st.sampled_from([" + ", " - "])) for _ in terms[1:]]
    return terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


@SETTINGS
@given(expressions(), st.integers(1, 4), ORDERS)
def test_parse_truncates_like_full_parse(text, n, order):
    tr = TruncRing(("x", "y"), n, order)
    parsed, full = tr.parse(text), tr.truncate(unbounded(tr).parse(text))
    assert parsed == full
    assert list(parsed.terms) == list(full.terms)


def test_parse_forms_no_product_term_at_or_above_n(monkeypatch):
    """Every monomial ``arith`` forms while parsing the power stays below
    t^2; the first one that does not fails the test at once.  The
    convolution tests its overflow with ``max`` over every packed monomial
    it formed, so a guard in place of ``max`` sees each of them."""
    tr = TruncRing(("x", "y"), 2)
    packing = tr.S._packing
    shift = packing.shifts[tr.S.variables.index("t")]
    formed = []

    def seen(*args):
        # the convolution's call is the one on a dict of formed monomials
        if len(args) == 1 and isinstance(args[0], dict):
            for m in args[0]:
                assert (m >> shift) & packing.mask < 2, f"formed the monomial {packing.unpack(m)}"
            formed.extend(args[0])
        return builtins.max(*args)

    monkeypatch.setattr(arith, "max", seen, raising=False)
    p = tr.parse("(x+y+t+1)^60")
    monkeypatch.undo()
    # the guard saw the convolution's terms, so it was not vacuous
    assert len(formed) >= len(p.terms) == 3721


# -- automorphisms ---------------------------------------------------------------


def full_apply(phi, p):
    """phi(p) by term-by-term substitution with plain powers and products
    over Q[x.., t], truncated once at the end."""
    ring = phi.ring
    full = unbounded(ring)
    table = {v: full.from_terms(img.terms) for v, img in phi.var_images.items()}
    table["t"] = full.from_terms(phi.t_image.terms)
    out = full.zero()
    for e, c in p.terms.items():
        term = full.const(c)
        for v, k in zip(full.variables, e):
            term = term * table[v] ** k
        out = out + term
    return ring.truncate(out)


def full_compose(phi, psi):
    images = {v: full_apply(phi, img) for v, img in psi.var_images.items()}
    return AutMap(phi.ring, images, full_apply(phi, psi.t_image))


def s_polys(tr, max_terms=3, max_exp=2):
    exps = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp),
                     st.integers(0, tr.n + 1))
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(tr.S.from_terms)


@st.composite
def automorphisms(draw, tr):
    """x -> x + t*q_x, y -> y + t*q_y and t -> t*(c + r) with c a nonzero
    constant and r without constant term."""
    t = tr.t
    images = {v: tr.S.gen(v) + t * draw(s_polys(tr)) for v in ("x", "y")}
    r = draw(s_polys(tr))
    r = r - tr.S.const(r.constant_term())
    return AutMap(tr, images, t * (tr.S.const(draw(COEFFS)) + r))


@st.composite
def aut_cases(draw):
    tr = TruncRing(("x", "y"), draw(st.integers(1, 3)), draw(ORDERS))
    phi, psi = draw(automorphisms(tr)), draw(automorphisms(tr))
    return tr, phi, psi, draw(s_polys(tr, max_terms=4, max_exp=4))


@SETTINGS
@given(aut_cases())
def test_apply_and_compose_match_full_substitution(case):
    tr, phi, psi, p = case
    assert phi.apply(p) == full_apply(phi, p)
    assert compose(phi, psi) == full_compose(phi, psi)


@SETTINGS
@given(aut_cases(), st.booleans())
def test_cocycle_matches_full_substitution(case, perturb):
    tr, phi, psi, _ = case
    ik = full_compose(phi, psi)
    if perturb:
        ik = AutMap(tr, {**ik.var_images, "x": ik.var_images["x"] + tr.t * tr.S.gen("y")},
                    ik.t_image)
    assert verify_cocycle(phi, psi, ik) == (full_compose(phi, psi) == ik)
    assert verify_cocycle(phi, psi, ik) != (perturb and tr.n > 1)
