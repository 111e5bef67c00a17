"""Property tests for the reduction kernel ``groebner.vec_reduce`` and the
S-vectors of ``groebner._spair``.

The kernel takes packed terms from a heap of their negations and works on
integer numerator/denominator pairs.  The oracle (``groebner_oracle``) is
the plain loop it replaced: take the ``max`` term under ``ModuleOrder.key``
and subtract a scaled copy in ``Fraction`` arithmetic, with a helper that
shares no code with the kernel.  Both must take the same terms in the same
order, so remainders agree as dicts and in key order, on plain module orders
and on the blocked orders of the graph basis, and when one ``_LeadIndex``
serves every reduction while its basis grows.  The tests draw ``Fraction``
vectors and pack them into the kernel's integer form and back at its
boundary."""

from copy import deepcopy
from fractions import Fraction
from itertools import cycle
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groebner_oracle import (
    codec,
    is_groebner,
    lead_index,
    mono_div,
    mono_divides,
    oracle_reduce,
    sub_scaled,
    vec_lead,
)
from truncmod.arith import PolyRing, grevlex, lex
from truncmod.groebner import (
    ModuleOrder,
    SpanGB,
    _LeadIndex,
    _spair,
    kernel_through,
    vec_reduce,
)

COEFFS = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
# Numerators and denominators up to 10^12, so products pass 2^64.
BIG_COEFFS = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                       st.integers(1, 10**12))
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def vectors(nvars, npos, max_terms, coeffs=COEFFS):
    terms = st.tuples(st.integers(0, npos - 1),
                      st.tuples(*[st.integers(0, 3)] * nvars))
    return st.dictionaries(terms, coeffs, min_size=1, max_size=max_terms)


@st.composite
def problems(draw, coeffs=COEFFS, max_rank=2):
    """(v, basis, morder, packing): rank 1 to ``max_rank``, lex or grevlex,
    and either a plain order or a graph order with up to two dominated tag
    positions.  The basis elements are not monic."""
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, max_rank))
    tags = draw(st.integers(0, 2))
    order = draw(st.sampled_from([lex(), grevlex()]))
    morder = ModuleOrder(order, (0,) * rank + (1,) * tags)
    npos = rank + tags
    basis = draw(st.lists(vectors(nvars, npos, 4, coeffs), min_size=0, max_size=4))
    return draw(vectors(nvars, npos, 8, coeffs)), basis, morder, codec(morder, nvars)


def reduce_fractions(v, basis, morder, packing):
    """``vec_reduce`` on ``Fraction`` vectors, packed at its boundary."""
    return packing.fractions(vec_reduce(packing.vector(v), lead_index(basis, morder, packing)))


@SETTINGS
@given(st.one_of(problems(), problems(BIG_COEFFS)))
def test_kernel_matches_max_scan_oracle(case):
    v, basis, morder, packing = case
    want_r, _ = oracle_reduce(v, basis, morder)
    r = reduce_fractions(v, basis, morder, packing)
    assert r == want_r and list(r) == list(want_r)


@SETTINGS
@given(problems())
def test_division_identity_and_reduced_remainder(case):
    v, basis, morder, packing = case
    r = reduce_fractions(v, basis, morder, packing)
    _, q = oracle_reduce(v, basis, morder)
    total = dict(r)
    for g, qi in zip(basis, q):
        for mono, c in qi.items():
            total = sub_scaled(total, g, mono, -c)
    assert total == v
    leads = [vec_lead(g, morder) for g in basis]
    for pos, exps in r:
        assert not any(lp == pos and mono_divides(le, exps) for lp, le in leads)
    if r:
        assert next(iter(r)) == vec_lead(r, morder)


def assert_lowest_pairs(v):
    for n, d in v.values():
        assert type(n) is int and type(d) is int
        assert n and d > 0 and gcd(n, d) == 1


@SETTINGS
@given(st.one_of(problems(), problems(BIG_COEFFS)))
def test_kernel_returns_fractions_in_lowest_terms(case):
    """Every remainder coefficient is a nonzero numerator/denominator pair
    of ints in lowest terms with a positive denominator."""
    v, basis, morder, packing = case
    assert_lowest_pairs(vec_reduce(packing.vector(v), lead_index(basis, morder, packing)))


@SETTINGS
@given(st.one_of(problems(), problems(BIG_COEFFS)))
def test_kernel_leaves_its_inputs_alone(case):
    v, basis, morder, packing = case
    v, index = packing.vector(v), lead_index(basis, morder, packing)
    basis = index.basis
    v_before, basis_before = deepcopy(v), deepcopy(basis)
    vec_reduce(v, index)
    assert v == v_before and list(v) == list(v_before)
    assert basis == basis_before
    assert [list(g) for g in basis] == [list(g) for g in basis_before]


@st.composite
def growing(draw):
    """(basis, probes, morder, packing): a basis to append one element at a
    time and a vector to reduce before each append and after the last."""
    v, basis, morder, packing = draw(problems(draw(st.sampled_from([COEFFS, BIG_COEFFS])),
                                              max_rank=3))
    nvars = len(next(iter(v))[1])
    more = draw(st.lists(vectors(nvars, len(morder.blocks), 8), min_size=len(basis),
                         max_size=len(basis)))
    return basis, [v, *more], morder, packing


@SETTINGS
@given(growing())
def test_one_index_matches_the_oracle_while_it_grows(case):
    """One ``_LeadIndex`` serves every reduction as the basis grows; the
    splits it keeps from earlier calls must not change a later answer."""
    basis, probes, morder, packing = case
    index = _LeadIndex(packing)
    for k, probe in enumerate(probes):
        for w in (probe, probes[0]):
            want_r, _ = oracle_reduce(w, basis[:k], morder)
            r = packing.fractions(vec_reduce(packing.vector(w), index))
            assert r == want_r and list(r) == list(want_r)
        if k < len(basis):
            index.append(packing.vector(basis[k]), packing.pack(vec_lead(basis[k], morder)))
    assert index.basis == [packing.vector(g) for g in basis]


@st.composite
def pairs(draw):
    """(f, g, morder, packing) with f and g not monic and their leads at one
    position."""
    coeffs = draw(st.sampled_from([COEFFS, BIG_COEFFS]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2))
    order = draw(st.sampled_from([lex(), grevlex()]))
    morder = ModuleOrder(order, (0,) * rank)
    f = draw(vectors(nvars, rank, 5, coeffs))
    g = draw(vectors(nvars, rank, 5, coeffs))
    assume(vec_lead(f, morder)[0] == vec_lead(g, morder)[0])
    return f, g, morder, codec(morder, nvars)


def lead_first(v, lead, packing):
    """``v`` packed, with its lead as its first key."""
    packed = packing.vector(v)
    lead = packing.pack(lead)
    return {lead: packed[lead], **packed}


@SETTINGS
@given(pairs())
def test_spair_is_the_cancelling_combination(case):
    f, g, morder, packing = case
    lf, lg = vec_lead(f, morder), vec_lead(g, morder)
    lcm = tuple(map(max, lf[1], lg[1]))
    want = sub_scaled({}, f, mono_div(lcm, lf[1]), Fraction(-1) / f[lf])
    want = sub_scaled(want, g, mono_div(lcm, lg[1]), Fraction(1) / g[lg])
    packed_lcm = packing.pack((lf[0], lcm))
    s = _spair(lead_first(f, lf, packing), lead_first(g, lg, packing),
               packed_lcm - packing.pack(lf), packed_lcm - packing.pack(lg), packing.top)
    assert packing.fractions(s) == want
    assert_lowest_pairs(s)


@SETTINGS
@given(st.lists(vectors(2, 2, 3), min_size=1, max_size=3),
       st.sampled_from([lex(), grevlex()]),
       st.lists(BIG_COEFFS, min_size=1, max_size=4))
def test_is_groebner_ignores_scaling(vecs, order, scales):
    """``is_groebner`` takes S-vectors of the elements as given, so scaling
    them by constants must not change its verdict."""
    morder = ModuleOrder(order, (0, 0))
    basis = SpanGB(PolyRing(("x", "y"), order=order), 2, vecs).gb
    for candidate, verdict in ((basis, True), (vecs, is_groebner(vecs, morder))):
        scaled = [{t: k * c for t, c in v.items()} for v, k in zip(candidate, cycle(scales))]
        assert is_groebner(scaled, morder) is verdict


@st.composite
def big_spans(draw):
    """(ring, rank, vecs, probe) with coefficients past 2^64."""
    nvars = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 2))
    ring = PolyRing(("x", "y")[:nvars], order=draw(st.sampled_from([lex(), grevlex()])))
    vecs = draw(st.lists(vectors(nvars, rank, 3, BIG_COEFFS), min_size=2, max_size=3))
    return ring, rank, vecs, draw(vectors(nvars, rank, 4, BIG_COEFFS))


def assert_exact_fractions(v):
    for c in v.values():
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(big_spans())
def test_every_coefficient_that_leaves_groebner_is_a_fraction_in_lowest_terms(case):
    ring, rank, vecs, probe = case
    span = SpanGB(ring, rank, vecs)
    assert span.contains(vecs[0])
    leaving = [*span.gb, span.normal_form(probe), *span.syzygies(len(vecs)),
               *kernel_through(ring, rank, vecs[:1], vecs[1:])]
    assert any(leaving)
    for v in leaving:
        assert_exact_fractions(v)
