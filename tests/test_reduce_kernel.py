"""Property tests for the reduction kernel ``groebner.vec_reduce``.

The kernel takes terms from a heap of descending order keys and updates the
working vector in place.  The oracle below is the plain loop it replaced:
take the ``max`` term under ``ModuleOrder.key`` and subtract a scaled copy.
Both must take the same terms in the same order, so remainders and
quotients agree as dicts and in key order, on plain module orders and on
the blocked orders of the graph basis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import MonomialOrder, elim_block, grevlex, lex, mono_div, mono_divides
from truncmod.groebner import ModuleOrder, vec_lead, vec_reduce, vec_sub_scaled

COEFFS = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def oracle_reduce(v, basis, morder):
    """Normal form by repeated ``max`` over the working vector."""
    leads = [vec_lead(g, morder) for g in basis]
    quotients = [{} for _ in basis]
    remainder = {}
    work = dict(v)
    while work:
        t = max(work, key=morder.key)
        pos, exps = t
        hit = next((i for i, (lp, le) in enumerate(leads)
                    if lp == pos and mono_divides(le, exps)), -1)
        if hit < 0:
            remainder[t] = work.pop(t)
            continue
        mono = mono_div(exps, leads[hit][1])
        coeff = work[t] / basis[hit][leads[hit]]
        work = vec_sub_scaled(work, basis[hit], mono, coeff)
        q = quotients[hit]
        q[mono] = q.get(mono, Fraction(0)) + coeff
    return remainder, quotients


def vectors(nvars, npos, max_terms):
    terms = st.tuples(st.integers(0, npos - 1),
                      st.tuples(*[st.integers(0, 3)] * nvars))
    return st.dictionaries(terms, COEFFS, min_size=1, max_size=max_terms)


@st.composite
def problems(draw):
    """(v, basis, morder): rank 1 or 2, lex or grevlex, and either a plain
    order or a graph order with up to two dominated tag positions."""
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2))
    tags = draw(st.integers(0, 2))
    order = draw(st.sampled_from([lex(), grevlex()]))
    morder = ModuleOrder(order, (0,) * rank + (1,) * tags)
    npos = rank + tags
    basis = draw(st.lists(vectors(nvars, npos, 4), min_size=0, max_size=4))
    return draw(vectors(nvars, npos, 8)), basis, morder


@SETTINGS
@given(problems())
def test_kernel_matches_max_scan_oracle(case):
    v, basis, morder = case
    want_r, want_q = oracle_reduce(v, basis, morder)
    r, q = vec_reduce(v, basis, morder, with_lift=True)
    assert r == want_r and list(r) == list(want_r)
    assert q == want_q and [list(qi) for qi in q] == [list(qi) for qi in want_q]
    plain = vec_reduce(v, basis, morder)
    assert plain == want_r and list(plain) == list(want_r)


@SETTINGS
@given(problems())
def test_division_identity_and_reduced_remainder(case):
    v, basis, morder = case
    r, q = vec_reduce(v, basis, morder, with_lift=True)
    total = dict(r)
    for g, qi in zip(basis, q):
        for mono, c in qi.items():
            total = vec_sub_scaled(total, g, mono, -c)
    assert total == v
    leads = [vec_lead(g, morder) for g in basis]
    for pos, exps in r:
        assert not any(lp == pos and mono_divides(le, exps) for lp, le in leads)
    if r:
        assert next(iter(r)) == vec_lead(r, morder)


@st.composite
def ordered_terms(draw, kind):
    """(ModuleOrder, distinct terms) for one ``MonomialOrder`` kind."""
    nvars = draw(st.integers(2, 4))
    order = elim_block(draw(st.integers(0, nvars))) if kind == "block" else MonomialOrder(kind)
    blocks = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    terms = st.tuples(st.integers(0, len(blocks) - 1),
                      st.tuples(*[st.integers(0, 3)] * nvars))
    return ModuleOrder(order, blocks), draw(st.lists(terms, min_size=2, max_size=12,
                                                     unique=True))


@pytest.mark.parametrize("kind", ["lex", "grevlex", "block"])
@SETTINGS
@given(data=st.data())
def test_descending_key_reverses_the_order(kind, data):
    morder, terms = data.draw(ordered_terms(kind))
    assert (sorted(terms, key=morder._heap_key)
            == sorted(terms, key=morder.key, reverse=True))
