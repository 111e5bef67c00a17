"""Oracles for the Groebner tests, in plain ``Fraction`` arithmetic.

Nothing here calls ``groebner``'s reduction or S-vector code: the normal
form takes the ``max`` term under ``ModuleOrder.key`` and subtracts a scaled
copy term by term, and ``is_groebner`` builds its own S-vectors.  The two
conversions read and write ``groebner``'s integer form, ``term ->
(numerator, denominator)``, for the tests that call its private parts, and
``lead_index`` indexes a basis for ``vec_reduce`` with leads found by
``vec_lead``, a scan over every term."""

from fractions import Fraction

from truncmod.arith import mono_div, mono_divides, mono_lcm
from truncmod.groebner import _LeadIndex


def vec_lead(v, morder):
    """The largest term of ``v`` under ``morder.key``."""
    return max(v, key=morder.key)


def to_pairs(v):
    """``v`` in the integer form, in the same key order."""
    return {t: (c.numerator, c.denominator) for t, c in v.items()}


def to_fractions(v):
    """A vector in the integer form as ``Fraction`` coefficients, in the
    same key order."""
    return {t: Fraction(n, d) for t, (n, d) in v.items()}


def lead_index(basis, morder):
    """A ``_LeadIndex`` over the integer forms of the ``Fraction`` vectors
    ``basis``."""
    return _LeadIndex((to_pairs(g), vec_lead(g, morder)) for g in basis)


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
        hit = next((i for i, (lp, le) in enumerate(leads)
                    if lp == pos and mono_divides(le, exps)), -1)
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
