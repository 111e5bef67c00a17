"""Groebner bases for submodules of free modules over Q[x1..xd].

Elements of S^r are stored sparsely as ``dict[(position, exponents)] ->
Fraction``.  Positions may be grouped into blocks; terms in an earlier block
dominate every term in a later block, which turns syzygy computation into an
elimination problem: the basis of the span of ``(v_i, e_i)`` in S^(r+k),
with the first r positions dominant, contains in its second block a
generating set for the syzygies of ``(v_1..v_k)``, and its mixed elements
carry division lifts.  This graph basis costs several times a plain reduced
basis, so it is built only for lifts and syzygies: ``SpanGB`` computes the
plain basis the first time ``gb`` is read and the graph basis the first
time a lift or syzygy is asked for.  ``SpanGB`` is the one builder of graph
bases: ``kernel_through`` reads its syzygies.

Within a block, terms compare by the ring's monomial order with ties broken
toward earlier positions.

Every normal form, lift quotient and S-pair reduction runs through
``vec_reduce``.  It keeps the working vector as a dict updated in place and
a heap (``heapq``) of descending order keys of its terms, so the leading term
is popped, not searched for; a popped term that has cancelled since it was
pushed is skipped.  Each step subtracts a multiple of a basis element whose
lead is the popped term, so every term it adds is smaller and the terms come
off the heap in the order repeated ``max`` would take them (Monagan and
Pearce, J. Symb. Comput. 46, 2011).  The remainder is built in descending
order, so its first key is its lead.

``vec_reduce`` finds divisors through a ``_LeadIndex``, built once per
basis and extended in place as the basis grows.  It buckets the leads by
module position, in basis order within each bucket, so a term is tested
only against the leads at its own position and the first divisor found is
the first in the basis, as a scan over every lead would find.  The index
also keeps each element split into integer lead and tail coefficients,
made the first time the element is hit.  ``buchberger`` holds one index
for its whole run, ``interreduce`` one over the elements it keeps (its
minimality test is a lookup in it), and ``SpanGB`` one for ``gb`` and one
for the graph basis, so no reduction re-reads a basis it has read before.

Reductions are computed on integers: the working vector holds each
coefficient as a numerator/denominator pair in lowest terms, the index
holds each basis element's coefficients as such pairs, and each updated
coefficient costs a few integer products and one ``gcd``.  The
step coefficient is the popped coefficient itself when the lead coefficient
is 1, as it is for every element ``buchberger`` and ``interreduce`` hold.
A ``Fraction`` is built only for a term that moves into the remainder and
for each lift quotient.  Integer arithmetic is exact, so the result equals
the term-by-term ``Fraction`` reduction.  ``_spair`` builds the S-vector
from shifted copies of its two elements and divides by a lead coefficient
only when it is not 1.

``buchberger`` takes S-pairs by the sugar strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, ISSAC 1991), with the Gebauer-Moeller criteria.  An
input element's sugar is its largest term degree, a pair's is the larger
of ``s_i + deg lcm - deg lead_i`` over its two elements, and a new element's
is the larger of its pair's and its own largest term degree; positions add
no weight.  Each pair's selection key, ``(sugar, order key of the lcm term,
i, j)``, is computed once when the pair is made, from the same order key of
the lcm that sorted the new pairs, and stored in the pair dict, so
selection is ``min`` over its values.  Pairs are also held by position:
pairs form only between leads at one position, so a newcomer is paired
with its bucket of the index, and the Gebauer-Moeller B update walks only
the pending pairs at its position.  Every element ``buchberger``
and ``interreduce`` return has its lead as its first key: input elements
are reordered once, and remainders come out of ``vec_reduce`` that way.
So ``next(iter(v))`` reads the lead of any basis element, without a scan.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd
from operator import add

from .arith import (
    Exponents,
    MonomialOrder,
    Poly,
    PolyRing,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    _descending_key,
)

Term = tuple[int, Exponents]
VecT = dict[Term, Fraction]


class ModuleOrder:
    def __init__(self, order: MonomialOrder, blocks: tuple[int, ...]):
        self.order = order
        self.blocks = blocks
        self._descending = _descending_key(order)

    def key(self, term: Term):
        pos, exps = term
        return (-self.blocks[pos], self.order.key(exps), -pos)

    def _heap_key(self, term: Term):
        """Sorts ascending exactly when ``key`` sorts descending."""
        pos, exps = term
        return (self.blocks[pos], self._descending(exps), pos)


def module_order(ring: PolyRing, rank: int) -> ModuleOrder:
    return ModuleOrder(ring.order, (0,) * rank)


# -- vector helpers ------------------------------------------------------


def vec_from_polys(polys: list[Poly] | tuple[Poly, ...]) -> VecT:
    v: VecT = {}
    for pos, p in enumerate(polys):
        for e, c in p.terms.items():
            v[(pos, e)] = c
    return v


def vec_to_polys(ring: PolyRing, rank: int, v: VecT) -> tuple[Poly, ...]:
    parts: list[dict[Exponents, Fraction]] = [{} for _ in range(rank)]
    for (pos, e), c in v.items():
        parts[pos][e] = c
    return tuple(Poly(ring, t) for t in parts)


def vec_lead(v: VecT, morder: ModuleOrder) -> Term:
    return max(v, key=morder.key)


def vec_scale(v: VecT, coeff: Fraction) -> VecT:
    if coeff == 0:
        return {}
    return {t: coeff * c for t, c in v.items()}


def vec_mul_poly(v: VecT, p: Poly) -> VecT:
    out: VecT = {}
    for e1, c1 in p.terms.items():
        for (pos, e2), c2 in v.items():
            t = (pos, mono_mul(e1, e2))
            s = out.get(t, 0) + c1 * c2
            if s:
                out[t] = s
            else:
                del out[t]
    return out


def _monic(v: VecT, lead: Term) -> VecT:
    c = v[lead]
    return v if c == 1 else vec_scale(v, Fraction(1) / c)


# -- division ------------------------------------------------------------


class _LeadIndex:
    """The leads of a basis, bucketed by module position, for finding a
    divisor of a term.

    Each bucket lists ``(lead exponents, basis index)`` in basis order, so
    the first divisor found is the first one in the basis.  The index grows
    with ``append`` and never reorders.  ``splits[i]`` is element ``i`` read
    as ``(lead numerator, lead denominator, [(pos, exps, n, d)] over the
    non-lead terms)``; it is made the first time the element is hit and kept
    as long as the index."""

    __slots__ = ("basis", "leads", "buckets", "splits")

    def __init__(self, elements=()):
        """``elements`` yields ``(vector, lead)`` pairs."""
        self.basis: list[VecT] = []
        self.leads: list[Term] = []
        self.buckets: dict[int, list[tuple[Exponents, int]]] = {}
        self.splits: list[tuple[int, int, list[tuple[int, Exponents, int, int]]] | None] = []
        for g, lead in elements:
            self.append(g, lead)

    def append(self, g: VecT, lead: Term) -> None:
        self.buckets.setdefault(lead[0], []).append((lead[1], len(self.basis)))
        self.basis.append(g)
        self.leads.append(lead)
        self.splits.append(None)

    def divisor(self, pos: int, exps: Exponents) -> int:
        """Index of the first element whose lead divides ``(pos, exps)``,
        or -1."""
        for le, i in self.buckets.get(pos, ()):
            if mono_divides(le, exps):
                return i
        return -1

    def split(self, i: int) -> tuple[int, int, list[tuple[int, Exponents, int, int]]]:
        lead = self.leads[i]
        g = self.basis[i]
        lc = g[lead]
        out = self.splits[i] = (lc.numerator, lc.denominator,
                                [(p, e, gc.numerator, gc.denominator)
                                 for (p, e), gc in g.items() if (p, e) != lead])
        return out


def vec_reduce(v: VecT, basis: list[VecT] | _LeadIndex, morder: ModuleOrder, *,
               with_lift: bool = False):
    """Full normal form of ``v`` modulo ``basis``.

    ``basis`` is a ``_LeadIndex`` or a list of vectors, which is indexed for
    this call only.  Returns ``remainder`` or, with ``with_lift``,
    ``(remainder, quotients)`` where ``v = sum(quotients[i] * basis[i]) +
    remainder`` and each quotient is a ``dict[Exponents, Fraction]``.  The
    remainder's terms are in descending order, so its first key is its lead.
    """
    index = (basis if isinstance(basis, _LeadIndex)
             else _LeadIndex((g, vec_lead(g, morder)) for g in basis))
    divisor, splits, leads = index.divisor, index.splits, index.leads
    quotients: list[dict[Exponents, Fraction]] = [{} for _ in leads] if with_lift else []
    remainder: VecT = {}
    # term -> (numerator, denominator), in lowest terms, denominator > 0
    work = {t: (c.numerator, c.denominator) for t, c in v.items()}
    heap_key = morder._heap_key
    heap = [(heap_key(t), t) for t in work]
    heapify(heap)
    while work:
        t = heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue  # cancelled since it was pushed
        pos, exps = t
        hit = divisor(pos, exps)
        if hit < 0:
            remainder[t] = Fraction(*work.pop(t))
            continue
        ln, ld, tail = splits[hit] or index.split(hit)
        qn, qd = c
        if ln != 1 or ld != 1:
            qn *= ld
            qd *= ln
            if qd < 0:
                qn, qd = -qn, -qd
            k = gcd(qn, qd)
            qn //= k
            qd //= k
        mono = mono_div(exps, leads[hit][1])
        # work -= (qn/qd) * x^mono * g, in place; the lead term cancels t.
        del work[t]
        for p, e, gn, gd in tail:
            s = (p, tuple(map(add, e, mono)))
            old = work.get(s)
            if old is None:
                n = -qn * gn
                d = qd * gd
                heappush(heap, (heap_key(s), s))
            else:
                on, od = old
                m = qd * gd
                n = on * m - qn * gn * od
                if not n:
                    del work[s]
                    continue
                d = od * m
            k = gcd(n, d)
            work[s] = (n // k, d // k)
        if with_lift:
            # Popped terms strictly decrease, so each monomial is hit once.
            quotients[hit][mono] = Fraction(qn, qd)
    if with_lift:
        return remainder, quotients
    return remainder


# -- Buchberger ----------------------------------------------------------


def _spair(f: VecT, g: VecT, lf: Term, lg: Term) -> VecT:
    """x^a f / f[lf] - x^b g / g[lg], where x^a lf = x^b lg is the lcm of the
    leads; the two lead terms cancel and are left out."""
    lcm = mono_lcm(lf[1], lg[1])
    a = mono_div(lcm, lf[1])
    cf = f[lf]
    out: VecT = {}
    for t, c in f.items():
        if t != lf:
            out[(t[0], tuple(map(add, t[1], a)))] = c if cf == 1 else c / cf
    b = mono_div(lcm, lg[1])
    cg = g[lg]
    for t, c in g.items():
        if t == lg:
            continue
        s = (t[0], tuple(map(add, t[1], b)))
        old = out.get(s)
        c = c if cg == 1 else c / cg
        if old is None:
            out[s] = -c
        elif old == c:
            del out[s]
        else:
            out[s] = old - c
    return out


def _top_degree(v: VecT) -> int:
    """Largest total degree among the terms of ``v``; positions add nothing."""
    return max(sum(e) for _pos, e in v)


def buchberger(vecs: list[VecT], morder: ModuleOrder) -> list[VecT]:
    """Groebner basis of the span, via sugar pair selection with the
    Gebauer-Moeller update.  Every returned element is monic and has its
    lead as its first key.  The coprime-lead shortcut is sound only in
    ambient rank one, that is when the order has a single position."""
    rank_one = len(morder.blocks) == 1
    blocks, okey = morder.blocks, morder.order.key
    index = _LeadIndex()
    basis, leads, buckets = index.basis, index.leads, index.buckets
    sugars: list[int] = []
    # (i, j) -> (sugar, order key of the lcm term, i, j, lcm); the first four
    # entries are the selection key and are unique, so ``min`` never compares
    # two lcms.  ``pairs_at`` holds the same entries by the pair's position.
    pairs: dict[tuple[int, int], tuple] = {}
    pairs_at: dict[int, dict[tuple[int, int], tuple]] = {}

    def add(v: VecT, lnew: Term, sugar: int) -> None:
        v = _monic(v, lnew)
        new = len(basis)
        pos, enew = lnew
        here = pairs_at.setdefault(pos, {})
        # Gebauer-Moeller B: discard old pairs strictly refined by the newcomer.
        for _sugar, _key, i, j, lcm_ij in list(here.values()):
            if (
                mono_divides(enew, lcm_ij)
                and mono_lcm(leads[i][1], enew) != lcm_ij
                and mono_lcm(leads[j][1], enew) != lcm_ij
            ):
                del here[(i, j)]
                del pairs[(i, j)]
        # (deg lcm, order key of lcm, i, lcm) with every element at the
        # newcomer's position; i is unique, so sorting never compares lcms.
        fresh = []
        for e, i in buckets.get(pos, ()):
            lcm = mono_lcm(e, enew)
            fresh.append((sum(lcm), okey(lcm), i, lcm))
        fresh.sort()
        kept: list[Exponents] = []
        dnew = sum(enew)
        for d, lcm_key, i, lcm in fresh:
            if any(mono_divides(k, lcm) for k in kept):
                continue
            kept.append(lcm)
            if rank_one and mono_mul(leads[i][1], enew) == lcm:
                continue  # coprime leads, S-pair reduces to zero
            pair_sugar = max(sugars[i] + d - sum(leads[i][1]), sugar + d - dnew)
            # ``morder.key((pos, lcm))``, from the order key made for sorting
            here[(i, new)] = pairs[(i, new)] = (
                pair_sugar, (-blocks[pos], lcm_key, -pos), i, new, lcm)
        index.append(v, lnew)
        sugars.append(sugar)

    for v in vecs:
        if v:
            lead = vec_lead(v, morder)
            add({lead: v[lead], **v}, lead, _top_degree(v))
    while pairs:
        sugar, _key, i, j, _lcm = min(pairs.values())
        del pairs[(i, j)]
        del pairs_at[leads[i][0]][(i, j)]
        s = _spair(basis[i], basis[j], leads[i], leads[j])
        if not s:
            continue
        r = vec_reduce(s, index, morder)
        if r:
            add(r, next(iter(r)), max(sugar, _top_degree(r)))
    return basis


def interreduce(basis: list[VecT], morder: ModuleOrder) -> list[VecT]:
    """Minimal, tail-reduced, monic basis (the unique reduced GB when the
    input is a GB).  Every input element must have its lead as its first
    key, as ``buchberger``'s do, and every returned element has too."""
    work = sorted(((next(iter(v)), v) for v in basis if v),
                  key=lambda lv: morder.key(lv[0]))
    # An element is kept when no kept lead at its position divides its lead.
    kept = _LeadIndex()
    for lead, v in work:
        if kept.divisor(*lead) < 0:
            kept.append(v, lead)
    if len(kept.basis) == 1:
        # nothing to reduce against: the element keeps its own key order
        return [_monic(kept.basis[0], kept.leads[0])]
    # Only v's own lead divides v's lead, and no lead divides a term below
    # its own, so reducing v's tail against every kept element keeps v's lead
    # as its lead.  The leads are distinct and ascending, so reversing the
    # list puts the basis in descending order.
    reduced = []
    for v, lead in zip(kept.basis, kept.leads):
        tail = vec_reduce(dict(islice(v.items(), 1, None)), kept, morder)
        reduced.append(_monic({lead: v[lead], **tail}, lead))
    reduced.reverse()
    return reduced


def reduced_groebner(vecs: list[VecT], morder: ModuleOrder) -> list[VecT]:
    return interreduce(buchberger(vecs, morder), morder)


def is_groebner(basis: list[VecT], morder: ModuleOrder) -> bool:
    """Direct Buchberger-criterion check; used by tests as an oracle."""
    index = _LeadIndex((v, vec_lead(v, morder)) for v in basis if v)
    basis, leads = index.basis, index.leads
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if leads[i][0] != leads[j][0]:
                continue
            s = _spair(basis[i], basis[j], leads[i], leads[j])
            if s and vec_reduce(s, index, morder):
                return False
    return True


# -- spans with membership, lifts and syzygies ---------------------------


def _graph_basis(rank: int, vecs: list[VecT], morder: ModuleOrder,
                 nvars: int) -> tuple[list[VecT], list[VecT]]:
    """Reduced basis of span{(v_i, e_i)} in S^(rank+k) under ``morder``,
    whose first ``rank`` positions must form the dominant block, and the
    syzygies of ``vecs`` it contains, as vectors in S^k."""
    unit = (0,) * nvars
    graph = []
    for i, v in enumerate(vecs):
        g = dict(v)
        g[(rank + i, unit)] = Fraction(1)
        graph.append(g)
    gb = reduced_groebner(graph, morder)
    syz = [{(pos - rank, e): c for (pos, e), c in g.items()}
           for g in gb if all(pos >= rank for pos, _e in g)]
    return gb, syz


class SpanGB:
    """Groebner data for the span of ``vecs`` inside S^rank.

    ``gb`` is the reduced Groebner basis of the span, computed on first
    use and kept; ``normal_form`` and ``contains`` use only it.  Lifts and
    syzygies come from the graph trick: a basis of span{(v_i, e_i)} in
    S^(rank+k) with the first block dominant.  Every element ``(h, c)`` of
    the graph span satisfies ``h = sum(c_i * v_i)``, so reduction of ``(v,
    0)`` to ``(0, c)`` certifies ``v = -sum(c_i * v_i)``, and the elements
    with ``h = 0`` generate the syzygies.  The graph basis is built the
    first time ``lift`` or ``syzygies`` needs it, and kept.
    """

    def __init__(self, ring: PolyRing, rank: int, vecs: list[VecT]):
        self.ring = ring
        self.rank = rank
        self.vecs = list(vecs)
        # The graph order; on the first block it is the plain one.
        self.morder = ModuleOrder(ring.order, (0,) * rank + (1,) * len(self.vecs))
        self._graph: tuple[_LeadIndex, list[VecT]] | None = None

    @cached_property
    def gb(self) -> list[VecT]:
        return reduced_groebner(self.vecs, module_order(self.ring, self.rank))

    @cached_property
    def _gb_index(self) -> _LeadIndex:
        return _LeadIndex((v, next(iter(v))) for v in self.gb)

    @property
    def gb_leads(self) -> list[Term]:
        return self._gb_index.leads

    def _graph_data(self) -> tuple[_LeadIndex, list[VecT]]:
        """The graph basis, indexed, and the syzygies, built on first use."""
        if self._graph is None:
            gb, syz = _graph_basis(self.rank, self.vecs, self.morder, self.ring.nvars)
            self._graph = (_LeadIndex((g, next(iter(g))) for g in gb), syz)
        return self._graph

    def normal_form(self, v: VecT) -> VecT:
        return vec_reduce(v, self._gb_index, self.morder)

    def contains(self, v: VecT) -> bool:
        return not self.normal_form(v)

    def lift(self, v: VecT) -> list[Poly] | None:
        """Coefficients ``c`` with ``v = sum(c_i * v_i)``, or None when ``v``
        is not in the span."""
        r = vec_reduce(v, self._graph_data()[0], self.morder)
        if any(pos < self.rank for pos, _e in r):
            return None
        coeffs: list[dict[Exponents, Fraction]] = [{} for _ in self.vecs]
        for (pos, e), c in r.items():
            coeffs[pos - self.rank][e] = -c
        return [Poly(self.ring, c) for c in coeffs]

    def syzygies(self) -> list[VecT]:
        """Generators of {c in S^k : sum(c_i * v_i) = 0}."""
        return [dict(s) for s in self._graph_data()[1]]


def kernel_through(ring: PolyRing, source_count: int, columns: list[VecT],
                   target_relations: list[VecT]) -> list[VecT]:
    """Generators of {c in S^p : sum(c_i * columns_i) in span(target_relations)}.

    The columns and relations live in a common free module; syzygies of the
    concatenated list are projected onto the column block.
    """
    combined = list(columns) + list(target_relations)
    ambient_rank = 0
    for v in combined:
        for (pos, _e) in v:
            ambient_rank = max(ambient_rank, pos + 1)
    syz = SpanGB(ring, ambient_rank, combined).syzygies()
    out: list[VecT] = []
    seen = set()
    for s in syz:
        proj = {t: c for t, c in s.items() if t[0] < source_count}
        if proj:
            lead = vec_lead(proj, module_order(ring, source_count))
            sig = frozenset(_monic(proj, lead).items())
            if sig not in seen:
                seen.add(sig)
                out.append(proj)
    return out


def quotient_by_poly(ring: PolyRing, rank: int, span: list[VecT], f: Poly) -> list[VecT]:
    """Generators of (span : f) = {u in S^rank : f*u in span}."""
    unit = (0,) * ring.nvars
    cols = []
    for i in range(rank):
        e_i: VecT = {(i, unit): Fraction(1)}
        cols.append(vec_mul_poly(e_i, f))
    return kernel_through(ring, rank, cols, span)


def saturate_by_poly(ring: PolyRing, rank: int, span: list[VecT], f: Poly) -> list[VecT]:
    """Generators of (span : f^infinity), by iterating (.: f) to stability."""
    current = list(span)
    while True:
        bigger = quotient_by_poly(ring, rank, current, f)
        cur_gb = SpanGB(ring, rank, current)
        if all(cur_gb.contains(v) for v in bigger):
            return current
        current = bigger
