"""Property tests for SpanGB: the plain reduced basis computed up front
agrees with the graph basis that is built only for syzygies."""

from fractions import Fraction

from groebner_oracle import codec, graph_basis, is_groebner, lead_index, lift
from hypothesis import given, settings
from hypothesis import strategies as st

from truncmod.arith import Poly, grevlex, lex, mono_mul
from truncmod.groebner import (
    ModuleOrder,
    SpanGB,
    _graph_basis,
    vec_from_polys,
    vec_reduce,
)
from truncmod.fpmod import free_module
from truncmod.multiring import TruncRing

# exponents of (x, y, t); t stays below the smallest truncation order used
EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
COEFFS = st.integers(-3, 3).filter(bool)


def vec_mul_poly(v, p):
    """p * v, term by term."""
    out = {}
    for e1, c1 in p.terms.items():
        for (pos, e2), c2 in v.items():
            t = (pos, mono_mul(e1, e2))
            s = out.get(t, 0) + c1 * c2
            if s:
                out[t] = s
            else:
                del out[t]
    return out


def add(v, w):
    """v + w, term by term."""
    out = dict(v)
    for t, c in w.items():
        s = out.get(t, 0) + c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def terms(max_size):
    return st.dictionaries(EXPONENTS, COEFFS, min_size=1, max_size=max_size)


@st.composite
def spans(draw):
    """(ring, rank, vecs, element, multipliers) with vecs including t^n e_i."""
    order = draw(st.sampled_from([lex(), grevlex()]))
    tr = TruncRing(("x", "y"), draw(st.integers(2, 3)), order)
    rank = draw(st.integers(1, 2))
    # The graph basis grows fast with rank and generator count; these sizes
    # keep each example well under a second.
    size = 3 if rank == 1 else 2

    def poly():
        return Poly(tr.S, {e: Fraction(c) for e, c in draw(terms(size)).items()})

    def vector():
        return vec_from_polys(tuple(poly() for _ in range(rank)))

    vecs = [vector() for _ in range(draw(st.integers(1, size)))]
    vecs += free_module(tr, rank).effective_relations()
    element = vector()
    multipliers = [poly() for _ in vecs]
    return tr, rank, vecs, element, multipliers


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spans())
def test_plain_basis_matches_graph_basis(case):
    tr, rank, vecs, element, multipliers = case
    span = SpanGB(tr.S, rank, vecs)
    graph_gb = graph_basis(span)

    first_parts = [{t: c for t, c in g.items() if t[0] < rank} for g in graph_gb]
    assert span.gb == [f for f in first_parts if f]
    assert is_groebner(span.gb, ModuleOrder(tr.S.order, (0,) * rank))

    packing = codec(span.morder, tr.S.nvars)
    graph_nf = packing.fractions(vec_reduce(packing.vector(element),
                                            lead_index(graph_gb, span.morder, packing)))
    assert span.normal_form(element) == {t: c for t, c in graph_nf.items() if t[0] < rank}

    member = {}
    for v, p in zip(vecs, multipliers):
        member = add(member, vec_mul_poly(v, p))
    assert span.contains(member)
    assert "_syzygies" not in span.__dict__
    # the syzygy part, interreduced apart from the first block, is the
    # full graph basis's last block
    syzygies = [packing.fractions(g) for g in _graph_basis(rank, vecs, packing)]
    assert syzygies == [g for g in graph_gb if all(pos >= rank for pos, _e in g)]
    assert [list(g) for g in syzygies] == [list(g) for g in graph_gb
                                            if all(pos >= rank for pos, _e in g)]
    span.syzygies(len(vecs))
    assert "_syzygies" in span.__dict__

    coeffs = lift(span, member)
    assert coeffs is not None
    combo = {}
    for v, c in zip(vecs, coeffs):
        combo = add(combo, vec_mul_poly(v, c))
    assert combo == member
