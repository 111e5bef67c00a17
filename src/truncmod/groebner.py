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
and the graph basis the first time a syzygy is asked for.  Only the graph
basis's syzygy part, its elements whose every term lies in the second
block, is interreduced and kept: no lead in the first block divides a term
in the second, so that part comes out as the full reduction would give it.
Nothing leaves as a lift: no element is written as a combination of the
generators.  ``SpanGB`` is the one builder of graph bases,
``kernel_through`` reads its syzygies, and no other module computes a basis
except through ``SpanGB``.

Nothing here knows about t: ``fpmod`` alone hands it R[n]-module data, with
the truncation relations added and colons taken as kernels.

Within a block, terms compare by the ring's monomial order with ties broken
toward earlier positions.

Inside this module a term is one ``int`` (Monagan and Pearce, J. Symb.
Comput. 46, 2011), packed by a ``_Codec`` made once per span and order.
Its fields, from high to low, are the block (reversed), the order's weight
rows (lex: ``e_1..e_d``; grevlex: ``deg, e_1+..+e_(d-1), .., e_1``; the
block order: grevlex's rows of each block in turn), the position
(reversed), the total degree and the exponents, each ``width`` bits wide
under a guard bit; the degree and exponent fields, the overflow rule and
the first width are ``arith``'s, whose ``_Packing`` the codec extends.  So
comparing two packed terms is comparing their ``ModuleOrder.key``s,
multiplying a term by a monomial is one ``+`` of the monomial's packing,
and the lead ``l`` divides ``t`` at one position
exactly when ``((t | G) - l) & G == G`` for the mask ``G`` of the guard
bits: a field of ``t`` below the one of ``l`` borrows its guard bit.  Every
field is at most the term's degree, so a product outgrows its fields
exactly when its degree does, which sets the degree's guard bit; a product
that does raises ``_Overflow``, and ``SpanGB`` redoes the computation with
fields twice as wide.  A vector is packed once, where it enters
(``buchberger`` packs its generators, ``SpanGB`` each vector it is asked
about), and unpacked only where it leaves (``SpanGB.gb``, ``gb_leads``,
``normal_form`` and ``syzygies``).

Every normal form and S-pair reduction runs through ``vec_reduce``.
It keeps the working vector as a dict updated in place and a heap
(``heapq``) of its negated packed terms, so the leading term is popped, not
searched for; a popped term that has cancelled since it was pushed is
skipped.  Each step subtracts a multiple of a basis element whose lead is
the popped term, so every term it adds is smaller and the terms come off the
heap in the order repeated ``max`` would take them.  The remainder is built
in descending order, so its first key is its lead.

``vec_reduce`` finds divisors through a ``_LeadIndex``, built once per
basis and extended in place as the basis grows.  It buckets the leads by
their position bits, in basis order within each bucket, so a term is tested
only against the leads at its own position and the first divisor found is
the first in the basis, as a scan over every lead would find.  The index
also keeps each element split into its lead coefficient and a list of
its other terms, made the first time the element is hit.  ``buchberger``
holds one index for its whole run, ``_interreduce`` one over the elements
it keeps (its minimality test is a lookup in it), and ``SpanGB`` one for
``gb``, so no reduction re-reads a basis it has read before.

Every coefficient inside this module is a ``(numerator, denominator)`` pair
in lowest terms with a positive denominator (``PairVec``).  Each updated
coefficient costs a few integer products and one ``gcd``; integer
arithmetic is exact, so every result equals the term-by-term ``Fraction``
computation.  A reduction step's coefficient is the popped one itself when
the lead coefficient is 1, as it is for every element ``buchberger`` and
``_interreduce`` hold.  ``_Codec.fractions`` alone builds ``Fraction``s,
where a vector leaves.

``buchberger`` takes S-pairs by the sugar strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, ISSAC 1991), with the Gebauer-Moeller criteria.  An
input element's sugar is its largest term degree, a pair's is the larger
of ``s_i + deg lcm - deg lead_i`` over its two elements, and a new element's
is the larger of its pair's and its own largest term degree; positions add
no weight.  Each pair's selection key, ``(sugar, packed lcm term, i, j)``,
is made once with the pair and stored in the pair dict, so selection is
``min`` over its values.  Pairs are also held by position: pairs form only
between leads at one position, so a newcomer is paired with its bucket of
the index, and the Gebauer-Moeller B update walks only the pending pairs at
its position, against the lcms the newcomer's own pairs are made of.  The
generators enter in ascending order of their leads.  Every element
``buchberger`` and ``_interreduce`` return has its terms in descending
order, so its lead is its first key: generators are sorted once, and
remainders come out of ``vec_reduce`` that way.  So ``next(iter(v))`` reads
the lead of any basis element, without a scan, and ``_interreduce`` returns
an element whose tail no kept lead divides as it is, without reducing it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd
from operator import mul

from .arith import _WIDTH, Exponents, MonomialOrder, Poly, PolyRing, _Overflow, _Packing

Term = tuple[int, Exponents]
VecT = dict[Term, Fraction]
# The integer form: packed term -> (numerator, denominator), in lowest terms
# with the denominator positive.
PairVec = dict[int, tuple[int, int]]


class ModuleOrder:
    def __init__(self, order: MonomialOrder, blocks: tuple[int, ...]):
        self.order = order
        self.blocks = blocks

    def key(self, term: Term):
        pos, exps = term
        return (-self.blocks[pos], self.order.key(exps), -pos)


def module_order(ring: PolyRing, rank: int) -> ModuleOrder:
    return ModuleOrder(ring.order, (0,) * rank)


# -- packed terms --------------------------------------------------------


def _weight_rows(order: MonomialOrder, nvars: int) -> list[range]:
    """The variables each weight row of ``order`` sums, most significant
    first: two monomials compare under ``order.key`` as their lists of row
    sums compare."""
    if order.kind == "lex":
        return [range(k, k + 1) for k in range(nvars)]
    split = order.block_split if order.kind == "block" else 0
    # grevlex within [lo, hi): the sums over [lo, m) for m = hi down to lo + 1
    return ([range(0, m) for m in range(split, 0, -1)]
            + [range(split, m) for m in range(nvars, split, -1)])


class _Codec(_Packing):
    """The packing of the terms of ``morder`` in ``nvars`` variables into
    ints, with fields of ``width`` bits (more if the positions or blocks
    need them).

    The exponent and degree fields are ``arith._Packing``'s, fields
    ``0..nvars``; above them come the reversed position in field
    ``nvars + 1``, the weight rows and the reversed block highest.
    ``units[k]`` is the packing of the k-th variable, its weight rows
    included, and ``places[pos]`` the one of the unit vector at ``pos``, so
    the term ``(pos, e)`` is ``places[pos] + sum(e_k * units[k])``."""

    __slots__ = ("guard", "pmask", "pshift", "bshift", "places")

    def __init__(self, morder: ModuleOrder, nvars: int, width: int):
        blocks = morder.blocks
        last = max(blocks, default=0)
        super().__init__(nvars, max(width, (len(blocks) - 1).bit_length(), last.bit_length()))
        step = self.width + 1
        rows = _weight_rows(morder.order, nvars)
        self.pshift = self.dshift + step
        self.bshift = self.pshift + step * (len(rows) + 1)
        self.guard = sum(1 << (f + self.width) for f in range(0, self.bshift + step, step))
        self.pmask = self.mask << self.pshift
        row_bits = [1 << (self.bshift - step * (r + 1)) for r in range(len(rows))]
        self.units = [unit + sum(bit for bit, row in zip(row_bits, rows) if k in row)
                      for k, unit in enumerate(self.units)]
        self.places = [((last - b) << self.bshift) + ((len(blocks) - 1 - pos) << self.pshift)
                       for pos, b in enumerate(blocks)]

    def pack(self, term: Term) -> int:
        pos, exps = term
        return self.places[pos] + _Packing.pack(self, exps)

    def unpack(self, t: int) -> Term:
        return (len(self.places) - 1 - ((t >> self.pshift) & self.mask),
                _Packing.unpack(self, t))

    def top_degree(self, v: PairVec) -> int:
        """Largest total degree among the terms of ``v``."""
        dshift, mask = self.dshift, self.mask
        return max((t >> dshift) & mask for t in v)

    def vector(self, v: VecT) -> PairVec:
        """The integer form of ``v``, whose coefficients are ``Fraction`` or
        ``int``, in the same key order."""
        pack = self.pack
        return {pack(t): (c.numerator, c.denominator) for t, c in v.items()}

    def fractions(self, v: PairVec, shift: int = 0) -> VecT:
        """The ``Fraction`` form of ``v``, with its terms unpacked and their
        positions less ``shift``, in the same key order: the one place this
        module builds a ``Fraction``."""
        out: VecT = {}
        for t, (n, d) in v.items():
            pos, exps = self.unpack(t)
            out[(pos - shift, exps)] = Fraction(n, d)
        return out


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


def _over(n: int, d: int, qn: int, qd: int) -> tuple[int, int]:
    """(n/d) / (qn/qd) in lowest terms, with the denominator positive."""
    n *= qd
    d *= qn
    if d < 0:
        n, d = -n, -d
    k = gcd(n, d)
    return n // k, d // k


def _monic(v: PairVec, lead: int) -> PairVec:
    ln, ld = v[lead]
    if ln == 1 and ld == 1:
        return v
    return {t: _over(n, d, ln, ld) for t, (n, d) in v.items()}


# -- division ------------------------------------------------------------


class _LeadIndex:
    """The leads of a basis, bucketed by their position bits, for finding a
    divisor of a term.

    Each bucket lists ``(lead, basis index)`` in basis order, so the first
    divisor found is the first one in the basis.  The index grows with
    ``append`` and never reorders.  ``splits[i]`` is element ``i`` read as
    ``(lead numerator, lead denominator, [(term, n, d)] over the non-lead
    terms)``; it is made the first time the element is hit and kept as long
    as the index."""

    __slots__ = ("codec", "guard", "pmask", "basis", "leads", "buckets", "splits")

    def __init__(self, codec: _Codec, elements=()):
        """``elements`` yields ``(vector, lead)`` pairs."""
        self.codec = codec
        self.guard = codec.guard
        self.pmask = codec.pmask
        self.basis: list[PairVec] = []
        self.leads: list[int] = []
        self.buckets: dict[int, list[tuple[int, int]]] = {}
        self.splits: list[tuple[int, int, list[tuple[int, int, int]]] | None] = []
        for g, lead in elements:
            self.append(g, lead)

    def append(self, g: PairVec, lead: int) -> None:
        self.buckets.setdefault(lead & self.pmask, []).append((lead, len(self.basis)))
        self.basis.append(g)
        self.leads.append(lead)
        self.splits.append(None)

    def divisor(self, t: int) -> int:
        """Index of the first element whose lead divides ``t``, or -1."""
        guard = self.guard
        tg = t | guard
        for lead, i in self.buckets.get(t & self.pmask, ()):
            if (tg - lead) & guard == guard:
                return i
        return -1

    def split(self, i: int) -> tuple[int, int, list[tuple[int, int, int]]]:
        lead = self.leads[i]
        g = self.basis[i]
        out = self.splits[i] = (*g[lead], [(t, n, d) for t, (n, d) in g.items() if t != lead])
        return out


def vec_reduce(v: PairVec, index: _LeadIndex) -> PairVec:
    """Full normal form of ``v`` modulo the basis of ``index``, in the
    integer form packed by ``index.codec``.  The remainder's terms are in
    descending order, so its first key is its lead.
    """
    divisor, splits, leads = index.divisor, index.splits, index.leads
    top = index.codec.top
    remainder: PairVec = {}
    work = dict(v)
    heap = [-t for t in work]
    heapify(heap)
    while work:
        t = -heappop(heap)
        c = work.get(t)
        if c is None:
            continue  # cancelled since it was pushed
        hit = divisor(t)
        if hit < 0:
            remainder[t] = work.pop(t)
            continue
        ln, ld, tail = splits[hit] or index.split(hit)
        qn, qd = c if ln == 1 and ld == 1 else _over(*c, ln, ld)
        mono = t - leads[hit]
        # work -= (qn/qd) * x^mono * g, in place; the lead term cancels t.
        del work[t]
        for e, gn, gd in tail:
            s = e + mono
            old = work.get(s)
            if old is None:
                if s & top:
                    raise _Overflow
                n = -qn * gn
                d = qd * gd
                heappush(heap, -s)
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


def _spair(f: PairVec, g: PairVec, a: int, b: int, top: int) -> PairVec:
    """x^a f / f[lf] - x^b g / g[lg], where lf and lg, the first keys of
    ``f`` and ``g``, are their leads and x^a lf = x^b lg is their lcm; the
    two lead terms cancel and are left out.  ``a`` and ``b`` are packed
    monomials, and a term whose degree guard bit ``top`` is set raises
    ``_Overflow``."""
    terms = iter(f.items())
    _lf, (fn, fd) = next(terms)
    out: PairVec = {}
    for t, c in terms:
        s = t + a
        if s & top:
            raise _Overflow
        out[s] = c if fn == 1 and fd == 1 else _over(*c, fn, fd)
    terms = iter(g.items())
    _lg, (gn, gd) = next(terms)
    for t, c in terms:
        s = t + b
        n, d = c if gn == 1 and gd == 1 else _over(*c, gn, gd)
        old = out.get(s)
        if old is None:
            if s & top:
                raise _Overflow
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


def _generator(v: VecT, codec: _Codec) -> PairVec:
    """The integer form of a nonzero generator, monic, with its terms in
    descending order."""
    g = dict(sorted(codec.vector(v).items(), reverse=True))
    return _monic(g, next(iter(g)))


def buchberger(vecs: list[VecT], codec: _Codec) -> list[PairVec]:
    """Groebner basis of the span, via sugar pair selection with the
    Gebauer-Moeller update.  ``vecs`` have ``Fraction`` or ``int``
    coefficients and are packed by ``codec``; every returned element is in
    the integer form, monic, and has its terms in descending order.  The
    coprime-lead shortcut is sound only in ambient rank one, that is when
    the order has a single position."""
    guard, top, mask, units = codec.guard, codec.top, codec.mask, codec.units
    shifts, dshift = codec.shifts, codec.dshift
    # the block and position fields, which a term shares with its lead
    place_mask = codec.pmask | (codec.mask << codec.bshift)
    rank_one = len(codec.places) == 1
    index = _LeadIndex(codec)
    basis, leads, buckets, pmask = index.basis, index.leads, index.buckets, index.pmask
    # per element: its sugar, and its lead's exponents and degree
    sugars: list[int] = []
    lead_exps: list[list[int]] = []
    lead_degrees: list[int] = []
    # (i, j) -> (sugar, packed lcm term, i, j), the selection key; its
    # entries are unique.  ``pairs_at`` holds the same entries by the
    # position bits of the pair.
    pairs: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    pairs_at: dict[int, dict[tuple[int, int], tuple[int, int, int, int]]] = {}

    def add(v: PairVec, lnew: int, sugar: int) -> None:
        """Adds the monic ``v``, whose lead ``lnew`` is its first key."""
        new = len(basis)
        enew = [(lnew >> shift) & mask for shift in shifts]
        dnew = (lnew >> dshift) & mask
        place = lnew & place_mask
        # (deg lcm, packed lcm, i) with every element at the newcomer's
        # position; i is unique.  The lcm's degree is at most twice the
        # widest a field holds, so an overflow sets its guard bit.
        fresh = []
        for _lead, i in buckets.get(lnew & pmask, ()):
            lcm = place + sum(map(mul, map(max, lead_exps[i], enew), units))
            if lcm & top:
                raise _Overflow
            fresh.append(((lcm >> dshift) & mask, lcm, i))
        here = pairs_at.setdefault(lnew & pmask, {})
        if here:
            # Gebauer-Moeller B: discard old pairs strictly refined by the
            # newcomer, whose lcms with elements i and j are in ``fresh``.
            with_new = {i: lcm for _d, lcm, i in fresh}
            for _sugar, lcm_ij, i, j in list(here.values()):
                if (
                    ((lcm_ij | guard) - lnew) & guard == guard
                    and with_new[i] != lcm_ij
                    and with_new[j] != lcm_ij
                ):
                    del here[(i, j)]
                    del pairs[(i, j)]
        fresh.sort()
        kept: list[int] = []
        for d, lcm, i in fresh:
            lcm_g = lcm | guard
            if any((lcm_g - k) & guard == guard for k in kept):
                continue
            kept.append(lcm)
            if rank_one and d == lead_degrees[i] + dnew:
                continue  # coprime leads, S-pair reduces to zero
            pair_sugar = max(sugars[i] + d - lead_degrees[i], sugar + d - dnew)
            here[(i, new)] = pairs[(i, new)] = (pair_sugar, lcm, i, new)
        index.append(v, lnew)
        sugars.append(sugar)
        lead_exps.append(enew)
        lead_degrees.append(dnew)

    for g in sorted((_generator(v, codec) for v in vecs if v), key=lambda g: next(iter(g))):
        add(g, next(iter(g)), codec.top_degree(g))
    while pairs:
        sugar, lcm, i, j = min(pairs.values())
        del pairs[(i, j)]
        del pairs_at[lcm & pmask][(i, j)]
        s = _spair(basis[i], basis[j], lcm - leads[i], lcm - leads[j], top)
        if not s:
            continue
        r = vec_reduce(s, index)
        if r:
            lead = next(iter(r))
            add(_monic(r, lead), lead, max(sugar, codec.top_degree(r)))
    return basis


def _interreduce(basis: list[PairVec], codec: _Codec) -> list[PairVec]:
    """Minimal, tail-reduced, monic basis (the unique reduced GB when the
    input is a GB), in the integer form packed by ``codec``.  Every input
    element must have its lead as its first key, as ``buchberger``'s do, and
    every returned element has too.  An element whose tail no kept lead
    divides keeps its own key order; every other element's tail is in
    descending order."""
    work = sorted((v for v in basis if v), key=lambda v: next(iter(v)))
    # An element is kept when no kept lead at its position divides its lead.
    kept = _LeadIndex(codec)
    for v in work:
        lead = next(iter(v))
        if kept.divisor(lead) < 0:
            kept.append(v, lead)
    # Only v's own lead divides v's lead, and no lead divides a term below
    # its own, so reducing v's tail against every kept element keeps v's lead
    # as its lead.  The leads are distinct and ascending, so reversing the
    # list puts the basis in descending order.
    divisor = kept.divisor
    reduced = []
    for v, lead in zip(kept.basis, kept.leads):
        if any(divisor(t) >= 0 for t in islice(v, 1, None)):
            v = {lead: v[lead], **vec_reduce(dict(islice(v.items(), 1, None)), kept)}
        reduced.append(_monic(v, lead))
    reduced.reverse()
    return reduced


# -- spans with membership and syzygies ----------------------------------


def _graph_basis(rank: int, vecs: list[VecT], codec: _Codec) -> list[PairVec]:
    """The syzygy part of the reduced basis of span{(v_i, e_(rank+i))} in
    S^(rank+k), packed by ``codec``, whose order must make the first
    ``rank`` positions the dominant block: the elements whose every term
    lies in the last block, interreduced among themselves.  No lead in the
    first block divides a term in the last, so they come out as the
    reduction of the whole basis gives them."""
    unit = (0,) * len(codec.units)
    graph = [{**v, (rank + i, unit): 1} for i, v in enumerate(vecs)]
    return _interreduce([g for g in buchberger(graph, codec)
                         if next(iter(g)) >> codec.bshift == 0], codec)


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

    Each computation packs terms with fields ``_width`` bits wide; when a
    term outgrows them, the width doubles and the computation starts over,
    the plain basis too when a vector reduced modulo it is what outgrew
    them.
    """

    def __init__(self, ring: PolyRing, rank: int, vecs: list[VecT]):
        self.ring = ring
        self.rank = rank
        self.vecs = list(vecs)
        # The graph order; on the first block it is the plain one.
        self.morder = ModuleOrder(ring.order, (0,) * rank + (1,) * len(self.vecs))
        self._width = _WIDTH

    def _packed(self, morder: ModuleOrder, build):
        """``build(codec)`` for a packing of ``morder`` wide enough for
        every term it makes."""
        while True:
            codec = _Codec(morder, self.ring.nvars, self._width)
            try:
                return build(codec)
            except _Overflow:
                self._width = 2 * codec.width

    @cached_property
    def gb(self) -> list[VecT]:
        index = self._gb_index
        return [index.codec.fractions(g) for g in index.basis]

    @cached_property
    def _gb_index(self) -> _LeadIndex:
        def build(codec):
            return _LeadIndex(codec, ((g, next(iter(g))) for g in
                                      _interreduce(buchberger(self.vecs, codec), codec)))
        return self._packed(module_order(self.ring, self.rank), build)

    @property
    def gb_leads(self) -> list[Term]:
        index = self._gb_index
        return [index.codec.unpack(lead) for lead in index.leads]

    @cached_property
    def _syzygies(self) -> tuple[_Codec, list[PairVec]]:
        """The syzygies in the graph basis, packed, and their packing."""
        return self._packed(self.morder,
                            lambda codec: (codec, _graph_basis(self.rank, self.vecs, codec)))

    def _remainder(self, v: VecT) -> tuple[_Codec, PairVec]:
        """The packing of the plain basis and the normal form of ``v`` in
        it."""
        index = self._gb_index
        try:
            return index.codec, vec_reduce(index.codec.vector(v), index)
        except _Overflow:
            self._width = 2 * index.codec.width
            del self._gb_index
            return self._remainder(v)

    def normal_form(self, v: VecT) -> VecT:
        codec, r = self._remainder(v)
        return codec.fractions(r)

    def contains(self, v: VecT) -> bool:
        return not self._remainder(v)[1]

    def syzygies(self, first: int) -> list[VecT]:
        """The projections onto the first ``first`` coordinates of generators
        of {c in S^k : sum(c_i * v_i) = 0}, without zeros and without repeats
        up to a constant factor; with ``first = k`` they are the generators
        themselves, which are distinct and monic, so none of them is
        dropped."""
        codec, syzygies = self._syzygies
        # graph positions below rank + first have reversed positions from here up
        floor, pmask = (len(codec.places) - self.rank - first) << codec.pshift, codec.pmask
        out: list[VecT] = []
        seen = set()
        for s in syzygies:
            # The syzygies are in descending order, so the projection's first
            # key is its lead.
            proj = {t: c for t, c in s.items() if t & pmask >= floor}
            if proj:
                sig = frozenset(_monic(proj, next(iter(proj))).items())
                if sig not in seen:
                    seen.add(sig)
                    out.append(codec.fractions(proj, self.rank))
        return out


def kernel_through(ring: PolyRing, rank: int, source_count: int, columns: list[VecT],
                   target_relations: list[VecT]) -> list[VecT]:
    """Generators of {c in S^p : sum(c_i * columns_i) in span(target_relations)}.

    The columns and relations live in a common free module of rank ``rank``;
    syzygies of the concatenated list are projected onto the column block.
    """
    return SpanGB(ring, rank, list(columns) + list(target_relations)).syzygies(source_count)
