"""Oracles for the Groebner tests, in plain ``Fraction`` arithmetic.

Nothing here calls ``groebner``'s reduction or S-vector code: the normal
form takes the ``max`` term under ``ModuleOrder.key`` and subtracts a scaled
copy term by term, and ``is_groebner`` builds its own S-vectors, with the
monomial helpers below on exponent tuples.  Tests that call ``groebner``'s
private parts pack their vectors with ``codec``, into ``packed term ->
(numerator, denominator)``, and read them back with its ``fractions``;
``lead_index`` indexes a basis for ``vec_reduce`` with leads found by
``vec_lead``, a scan over every term.  ``graph_basis`` is the full reduced
basis of the graph span, built from ``buchberger`` and ``_interreduce``,
where ``SpanGB`` keeps only its syzygy part.  ``lift`` writes a member of a
span as a combination of its generators; the library computes no lifts, so
this one reduces by ``oracle_reduce`` modulo the graph basis, apart from
``vec_reduce``."""

from fractions import Fraction
from operator import le, sub

from truncmod.arith import Poly
from truncmod.groebner import _WIDTH, _Codec, _interreduce, _LeadIndex, buchberger


def mono_divides(a, b):
    """True when the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def codec(morder, nvars):
    """The packing of ``morder``'s terms in ``nvars`` variables, as a span
    first makes it: wide enough for every term the tests draw."""
    return _Codec(morder, nvars, _WIDTH)


def vec_lead(v, morder):
    """The largest term of ``v`` under ``morder.key``."""
    return max(v, key=morder.key)


def lead_index(basis, morder, packing):
    """A ``_LeadIndex`` over the integer forms of the ``Fraction`` vectors
    ``basis``."""
    return _LeadIndex(packing, ((packing.vector(g), packing.pack(vec_lead(g, morder)))
                                for g in basis))


def graph_basis(span):
    """The reduced basis of span{(v_i, e_(rank+i))} under ``span.morder``,
    as ``Fraction`` vectors."""
    packing = codec(span.morder, span.ring.nvars)
    unit = (0,) * span.ring.nvars
    graph = [{**v, (span.rank + i, unit): 1} for i, v in enumerate(span.vecs)]
    return [packing.fractions(g) for g in _interreduce(buchberger(graph, packing), packing)]


def sub_scaled(v, w, mono, coeff):
    """v - coeff * x^mono * w, term by term in ``Fraction`` arithmetic."""
    out = dict(v)
    for (pos, e), c in w.items():
        t = (pos, tuple(a + b for a, b in zip(e, mono)))
        s = out.get(t, 0) - coeff * c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def oracle_reduce(v, basis, morder):
    """Normal form by repeated ``max`` over the working vector."""
    leads = [vec_lead(g, morder) for g in basis]
    quotients = [{} for _ in basis]
    remainder = {}
    work = dict(v)
    while work:
        t = max(work, key=morder.key)
        pos, exps = t
        hit = next((i for i, (lp, le_) in enumerate(leads)
                    if lp == pos and mono_divides(le_, exps)), -1)
        if hit < 0:
            remainder[t] = work.pop(t)
            continue
        mono = mono_div(exps, leads[hit][1])
        coeff = work[t] / basis[hit][leads[hit]]
        work = sub_scaled(work, basis[hit], mono, coeff)
        q = quotients[hit]
        q[mono] = q.get(mono, Fraction(0)) + coeff
    return remainder, quotients


def is_groebner(basis, morder):
    """Buchberger's criterion, checked directly: the S-vector of every two
    elements with leads at one position reduces to zero."""
    basis = [g for g in basis if g]
    leads = [vec_lead(g, morder) for g in basis]
    for i, (f, lf) in enumerate(zip(basis, leads)):
        for g, lg in zip(basis[i + 1:], leads[i + 1:]):
            if lf[0] != lg[0]:
                continue
            lcm = mono_lcm(lf[1], lg[1])
            s = sub_scaled({}, f, mono_div(lcm, lf[1]), Fraction(-1) / f[lf])
            s = sub_scaled(s, g, mono_div(lcm, lg[1]), Fraction(1) / g[lg])
            if oracle_reduce(s, basis, morder)[0]:
                return False
    return True


def lift(span, v):
    """Coefficients ``c`` with ``v = sum(c_i * span.vecs[i])``, as ``Poly``s
    over ``span.ring``, or None when ``v`` is not in the span.

    Every element ``(h, c)`` of the graph span of ``(v_i, e_i)`` has ``h =
    sum(c_i * v_i)``, and the first block dominates, so ``(v, 0)`` reduces
    modulo the graph basis to some ``(0, r)`` exactly when ``v`` is in the
    span, and then ``v = -sum(r_i * v_i)``."""
    remainder, _quotients = oracle_reduce(v, graph_basis(span), span.morder)
    if any(pos < span.rank for pos, _e in remainder):
        return None
    coeffs = [{} for _ in span.vecs]
    for (pos, e), c in remainder.items():
        coeffs[pos - span.rank][e] = -c
    return [Poly(span.ring, c) for c in coeffs]
