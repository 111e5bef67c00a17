"""Groebner bases for submodules of free modules over Q[x1..xd].

Elements of S^r enter and leave sparsely as ``dict[(position, exponents)]
-> Fraction`` (``VecT``).  Positions may be grouped into blocks; terms in an
earlier block dominate every term in a later block, which turns syzygy
computation into an
elimination problem: the basis of the span of ``(v_i, e_i)`` in
S^(r+k), with the first r positions dominant, contains in its second block
a generating set for the syzygies of ``(v_1..v_k)``.  This graph basis
costs several times a plain reduced basis, so it is built only for
syzygies: ``SpanGB`` computes the plain basis the first time ``gb`` is read
and the graph basis the first time a syzygy is asked for, and keeps only
the syzygies it holds.  Nothing leaves as a lift: no element is written as
a combination of the generators.  ``SpanGB`` is the one builder of graph
bases, ``kernel_through`` reads its syzygies, and no other module computes a
basis except through ``SpanGB``.

Nothing here knows about t: ``fpmod`` alone hands it R[n]-module data, with
the truncation relations added and colons taken as kernels.

Within a block, terms compare by the ring's monomial order with ties broken
toward earlier positions.

Every normal form and S-pair reduction runs through ``vec_reduce``.
It keeps the working vector as a dict updated in place and a heap
(``heapq``) of descending order keys of its terms, so the leading term is
popped, not searched for; a popped term that has cancelled since it was
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
also keeps each element split into its lead coefficient and a list of
its other terms, made the first time the element is hit.  ``buchberger``
holds one index for its whole run, ``_interreduce`` one over the elements
it keeps (its minimality test is a lookup in it), and ``SpanGB`` one for
``gb``, so no reduction re-reads a basis it has read before.

Inside this module every vector is in one integer form (``PairVec``), each
coefficient a ``(numerator, denominator)`` pair in lowest terms with a
positive denominator: reductions, S-vectors, the elements ``buchberger`` and
``_interreduce`` hold, the ``SpanGB`` index and the graph basis.  Each
updated coefficient costs a few integer products and one ``gcd``; integer
arithmetic is exact, so every result equals the term-by-term ``Fraction``
computation.  A reduction step's coefficient is the popped one itself when
the lead coefficient is 1, as it is for every element ``buchberger`` and
``_interreduce`` hold.  Vectors enter with ``Fraction`` (or ``int``)
coefficients and are converted once: by ``buchberger`` for its generators,
and by ``SpanGB`` for each vector it is asked about.
``_fractions`` alone builds ``Fraction``s, where a vector leaves:
``SpanGB.gb``, ``normal_form`` and ``syzygies`` (and so
``kernel_through``).

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
the pending pairs at its position.  The generators enter in ascending
order of their leads.  Every element ``buchberger`` and ``_interreduce``
return has its terms in descending order, so its lead is its first key:
generators are sorted once, and remainders come out of ``vec_reduce`` that
way.  So ``next(iter(v))`` reads the lead of any basis element, without a
scan, and ``_interreduce`` returns an element whose tail no kept lead
divides as it is, without reducing it.
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
# The integer form: term -> (numerator, denominator), in lowest terms with
# the denominator positive.
PairVec = dict[Term, tuple[int, int]]


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


def _pairs(v: VecT) -> PairVec:
    """The integer form of ``v``, whose coefficients are ``Fraction`` or
    ``int``, in the same key order."""
    return {t: (c.numerator, c.denominator) for t, c in v.items()}


def _fractions(v: PairVec) -> VecT:
    """The ``Fraction`` form of ``v``, in the same key order: the one place
    this module builds a ``Fraction``."""
    return {t: Fraction(n, d) for t, (n, d) in v.items()}


def _over(n: int, d: int, qn: int, qd: int) -> tuple[int, int]:
    """(n/d) / (qn/qd) in lowest terms, with the denominator positive."""
    n *= qd
    d *= qn
    if d < 0:
        n, d = -n, -d
    k = gcd(n, d)
    return n // k, d // k


def _monic(v: PairVec, lead: Term) -> PairVec:
    ln, ld = v[lead]
    if ln == 1 and ld == 1:
        return v
    return {t: _over(n, d, ln, ld) for t, (n, d) in v.items()}


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
        self.basis: list[PairVec] = []
        self.leads: list[Term] = []
        self.buckets: dict[int, list[tuple[Exponents, int]]] = {}
        self.splits: list[tuple[int, int, list[tuple[int, Exponents, int, int]]] | None] = []
        for g, lead in elements:
            self.append(g, lead)

    def append(self, g: PairVec, lead: Term) -> None:
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
        out = self.splits[i] = (*g[lead], [(p, e, n, d) for (p, e), (n, d) in g.items()
                                           if (p, e) != lead])
        return out


def vec_reduce(v: PairVec, index: _LeadIndex, morder: ModuleOrder) -> PairVec:
    """Full normal form of ``v`` modulo the basis of ``index``, in the
    integer form.  The remainder's terms are in descending order, so its
    first key is its lead.
    """
    divisor, splits, leads = index.divisor, index.splits, index.leads
    remainder: PairVec = {}
    work = dict(v)
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
            remainder[t] = work.pop(t)
            continue
        ln, ld, tail = splits[hit] or index.split(hit)
        qn, qd = c if ln == 1 and ld == 1 else _over(*c, ln, ld)
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
    return remainder


# -- Buchberger ----------------------------------------------------------


def _spair(f: PairVec, g: PairVec, lf: Term, lg: Term) -> PairVec:
    """x^a f / f[lf] - x^b g / g[lg], where x^a lf = x^b lg is the lcm of the
    leads; the two lead terms cancel and are left out."""
    lcm = mono_lcm(lf[1], lg[1])
    a = mono_div(lcm, lf[1])
    fn, fd = f[lf]
    out: PairVec = {}
    for t, c in f.items():
        if t != lf:
            out[(t[0], tuple(map(add, t[1], a)))] = (
                c if fn == 1 and fd == 1 else _over(*c, fn, fd))
    b = mono_div(lcm, lg[1])
    gn, gd = g[lg]
    for t, c in g.items():
        if t == lg:
            continue
        s = (t[0], tuple(map(add, t[1], b)))
        n, d = c if gn == 1 and gd == 1 else _over(*c, gn, gd)
        old = out.get(s)
        if old is None:
            out[s] = (-n, d)
            continue
        on, od = old
        n = on * d - n * od
        if not n:
            del out[s]
            continue
        d *= od
        k = gcd(n, d)
        out[s] = (n // k, d // k)
    return out


def _top_degree(v: VecT | PairVec) -> int:
    """Largest total degree among the terms of ``v``; positions add nothing."""
    return max(sum(e) for _pos, e in v)


def _generator(v: VecT, morder: ModuleOrder) -> PairVec:
    """The integer form of a nonzero generator, monic, with its terms in
    descending order."""
    terms = sorted(v, key=morder._heap_key)
    return _monic({t: (v[t].numerator, v[t].denominator) for t in terms}, terms[0])


def buchberger(vecs: list[VecT], morder: ModuleOrder) -> list[PairVec]:
    """Groebner basis of the span, via sugar pair selection with the
    Gebauer-Moeller update.  ``vecs`` have ``Fraction`` or ``int``
    coefficients; every returned element is in the integer form, monic,
    and has its terms in descending order.  The coprime-lead shortcut is
    sound only in ambient rank one, that is when the order has a single
    position."""
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

    def add(v: PairVec, lnew: Term, sugar: int) -> None:
        """Adds the monic ``v``, whose lead ``lnew`` is its first key."""
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

    generators = sorted((_generator(v, morder) for v in vecs if v),
                        key=lambda g: morder.key(next(iter(g))))
    for g in generators:
        add(g, next(iter(g)), _top_degree(g))
    while pairs:
        sugar, _key, i, j, _lcm = min(pairs.values())
        del pairs[(i, j)]
        del pairs_at[leads[i][0]][(i, j)]
        s = _spair(basis[i], basis[j], leads[i], leads[j])
        if not s:
            continue
        r = vec_reduce(s, index, morder)
        if r:
            lead = next(iter(r))
            add(_monic(r, lead), lead, max(sugar, _top_degree(r)))
    return basis


def _interreduce(basis: list[PairVec], morder: ModuleOrder) -> list[PairVec]:
    """Minimal, tail-reduced, monic basis (the unique reduced GB when the
    input is a GB), in the integer form.  Every input element must have its
    lead as its first key, as ``buchberger``'s do, and every returned element
    has too.  An element whose tail no kept lead divides keeps its own key
    order; every other element's tail is in descending order."""
    work = sorted(((next(iter(v)), v) for v in basis if v),
                  key=lambda lv: morder.key(lv[0]))
    # An element is kept when no kept lead at its position divides its lead.
    kept = _LeadIndex()
    for lead, v in work:
        if kept.divisor(*lead) < 0:
            kept.append(v, lead)
    # Only v's own lead divides v's lead, and no lead divides a term below
    # its own, so reducing v's tail against every kept element keeps v's lead
    # as its lead.  The leads are distinct and ascending, so reversing the
    # list puts the basis in descending order.
    divisor = kept.divisor
    reduced = []
    for v, lead in zip(kept.basis, kept.leads):
        if any(divisor(*t) >= 0 for t in islice(v, 1, None)):
            v = {lead: v[lead], **vec_reduce(dict(islice(v.items(), 1, None)), kept, morder)}
        reduced.append(_monic(v, lead))
    reduced.reverse()
    return reduced


# -- spans with membership and syzygies ----------------------------------


def _graph_basis(rank: int, vecs: list[VecT], morder: ModuleOrder,
                 nvars: int) -> tuple[list[PairVec], list[PairVec]]:
    """Reduced basis of span{(v_i, e_i)} in S^(rank+k) under ``morder``,
    whose first ``rank`` positions must form the dominant block, and the
    syzygies of ``vecs`` it contains, as vectors in S^k; both in the integer
    form."""
    unit = (0,) * nvars
    graph = [{**v, (rank + i, unit): 1} for i, v in enumerate(vecs)]
    gb = _interreduce(buchberger(graph, morder), morder)
    syz = [{(pos - rank, e): c for (pos, e), c in g.items()}
           for g in gb if all(pos >= rank for pos, _e in g)]
    return gb, syz


class SpanGB:
    """Groebner data for the span of ``vecs`` inside S^rank.

    The reduced Groebner basis of the span is computed on first use and
    kept in the integer form, in the lead index that ``normal_form`` and
    ``contains`` use; ``gb`` is its ``Fraction`` form, built when first
    asked for.  Syzygies come from the graph trick: a basis of
    span{(v_i, e_i)} in S^(rank+k) with the first block dominant.  Every
    element ``(h, c)`` of the graph span satisfies ``h = sum(c_i * v_i)``,
    and the basis elements with ``h = 0`` generate the syzygies.  The graph
    basis is built the first time ``syzygies`` needs it; only those
    syzygies are kept, and no index is built over the graph basis.
    """

    def __init__(self, ring: PolyRing, rank: int, vecs: list[VecT]):
        self.ring = ring
        self.rank = rank
        self.vecs = list(vecs)
        # The graph order; on the first block it is the plain one.
        self.morder = ModuleOrder(ring.order, (0,) * rank + (1,) * len(self.vecs))

    @cached_property
    def gb(self) -> list[VecT]:
        return [_fractions(g) for g in self._gb_index.basis]

    @cached_property
    def _gb_index(self) -> _LeadIndex:
        morder = module_order(self.ring, self.rank)
        return _LeadIndex((g, next(iter(g)))
                          for g in _interreduce(buchberger(self.vecs, morder), morder))

    @property
    def gb_leads(self) -> list[Term]:
        return self._gb_index.leads

    @cached_property
    def _syzygies(self) -> list[PairVec]:
        """The syzygies in the graph basis, in the integer form."""
        return _graph_basis(self.rank, self.vecs, self.morder, self.ring.nvars)[1]

    def normal_form(self, v: VecT) -> VecT:
        return _fractions(vec_reduce(_pairs(v), self._gb_index, self.morder))

    def contains(self, v: VecT) -> bool:
        return not vec_reduce(_pairs(v), self._gb_index, self.morder)

    def syzygies(self, first: int) -> list[VecT]:
        """The projections onto the first ``first`` coordinates of generators
        of {c in S^k : sum(c_i * v_i) = 0}, without zeros and without repeats
        up to a constant factor; with ``first = k`` they are the generators
        themselves, which are distinct and monic, so none of them is
        dropped."""
        out: list[VecT] = []
        seen = set()
        for s in self._syzygies:
            # The syzygies are in descending order, so the projection's first
            # key is its lead.
            proj = {t: c for t, c in s.items() if t[0] < first}
            if proj:
                sig = frozenset(_monic(proj, next(iter(proj))).items())
                if sig not in seen:
                    seen.add(sig)
                    out.append(_fractions(proj))
        return out


def kernel_through(ring: PolyRing, rank: int, source_count: int, columns: list[VecT],
                   target_relations: list[VecT]) -> list[VecT]:
    """Generators of {c in S^p : sum(c_i * columns_i) in span(target_relations)}.

    The columns and relations live in a common free module of rank ``rank``;
    syzygies of the concatenated list are projected onto the column block.
    """
    return SpanGB(ring, rank, list(columns) + list(target_relations)).syzygies(source_count)
