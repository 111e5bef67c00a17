"""Finitely presented modules over the truncated ring R[n] = Q[x..][t]/(t^n).

A module is a cokernel presentation: a free cover S^g together with relation
columns.  This module is the one owner of the R[n] encoding: an R[n]-module
is an S-module plus the truncation relations t^n*e_i, where S = Q[x.., t] is
the plain polynomial ring all Groebner computations run over, and
``PresMod.effective_relations`` is the one place those relations are made
and adjoined; ``PresMod.zero_submodule`` holds the span of a module's
relations, built once.  It is the one door to ``groebner`` for R[n]-module
data: other modules work in columns and ask ``Submodule``, which pairs
generators with its ambient module's relations and builds their Groebner
data once, for membership, normal forms, reduced bases, kernels and
saturations (never lifts); ``Submodule.kernel_through`` is the one kernel
route, where vectors over S become columns of R[n] with no zero column and
no term of t-degree n, and no constructor truncates.
Where no module exists yet, ``free_module`` or ``truncated_free`` serves as
the ambient one, and Hom and Ext take their kernels inside a direct sum of
copies of the target.

The t-power filtrations are the organizing structure:

* descending images   M = M_0 ⊇ M_1 ⊇ ... ⊇ M_n = 0,   M_i = t^i M
* ascending kernels   0 = A_0 ⊆ A_1 ⊆ ... ⊆ A_n = M,   A_i = ann(t^i)

with layer quotients G_i = M_i / M_{i+1} and G^(i) = A_i / A_{i-1}.  A
module where the two filtrations coincide, M_i = A_(n-i) for every i, is
called balanced here.  ``is_balanced`` decides it by the one inclusion
ann(t^(n-1)) ⊆ tM, and a graded module also by the Hilbert series of
M/tM, M and M/t^(n-1) M; the comparison maps between all consecutive
layers, with their kernels and cokernels, are a test oracle.

A filtration is a plain list of ``Submodule``s of M, descending from M to
zero; both canonical filtrations are stored that way, the kernels
descending from A_n, each from the unit columns to ``M.zero_submodule()``,
and ``layer_quotients`` presents the layers one at a time, so a caller that
stops at a layer builds no later one.  ``refine_filtrations`` meets the two
chains in closed form, M_i ∩ A_k = t^i A_(i+k), and ``generic_type`` reads
each layer rank off the generic ranks of M/M_(i+1) and M/M_i over the base
ring (``unfold``): neither presents a layer.

An extension 0 -> N -> E -> M -> 0 is glued as one cokernel, and only the
one condition of its exactness that can fail, the injectivity of N -> E,
is checked (``check_inclusion``): the projection onto M, the zero
composite and the kernel inside N's image hold by construction.  No code
here builds a map between modules; maps are a test oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arith import ArithError, Poly, PolyRing, agree, grevlex, matrix_rank
from .groebner import SpanGB, VecT, kernel_through, vec_from_polys, vec_to_polys
from .multiring import TruncRing

Column = tuple[Poly, ...]


class ModuleError(ArithError):
    """Raised for inconsistent module data or violated preconditions."""


@dataclass(frozen=True)
class Grading:
    """Degrees of the free-cover generators plus the weight of t (base
    variables always weigh 1)."""

    gen_degrees: tuple[int, ...]
    t_weight: int = 1


def _term_degrees(ring: TruncRing, col: Column, t_weight: int,
                  slot_degree: Callable[[int], int]) -> set[int]:
    """The degrees of the terms of ``col``: a term ``x^e t^k`` in slot ``j``
    has degree ``|e| + t_weight * k + slot_degree(j)``."""
    weights = (1,) * ring.base.nvars + (t_weight,)
    return {sum(w * x for w, x in zip(weights, e)) + slot_degree(j)
            for j, p in enumerate(col) for e in p.terms}


def column_degree(ring: TruncRing, col: Column, grading: Grading) -> int | None:
    """The common degree of all terms of a homogeneous relation column;
    None for a zero column.  Raises on inhomogeneous input."""
    degs = _term_degrees(ring, col, grading.t_weight, grading.gen_degrees.__getitem__)
    if len(degs) > 1:
        raise ModuleError(f"inhomogeneous column {tuple(str(q) for q in col)}")
    return degs.pop() if degs else None


class PresMod:
    """An R[n]-module presented by relation columns over a free cover."""

    def __init__(self, ring: TruncRing, ngens: int, relations: list[Column],
                 grading: Grading | None = None):
        self.ring = ring
        self.ngens = ngens
        for col in relations:
            if len(col) != ngens:
                raise ModuleError(f"relation of length {len(col)}, expected {ngens}")
        self.relations = [tuple(col) for col in relations if any(col)]
        if grading is not None:
            if len(grading.gen_degrees) != ngens:
                raise ModuleError("grading length does not match generator count")
            for col in self.relations:
                column_degree(ring, col, grading)
        self.grading = grading
        self._zero: Submodule | None = None
        self._effective: list[VecT] | None = None
        self._annihilators: dict[int, list[Column]] = {}

    def __repr__(self) -> str:
        return f"<PresMod {self.ngens} gens, {len(self.relations)} relations over {self.ring!r}>"

    # -- spans ----------------------------------------------------------

    def effective_relations(self) -> list[VecT]:
        """The relation columns, then the silent relations t^n * e_i that
        realize R[n]-semantics inside the free cover over S.  Built once and
        shared by every span over this module, so no caller changes it."""
        if self._effective is None:
            t_n = (0,) * self.ring.base.nvars + (self.ring.n,)
            self._effective = ([vec_from_polys(c) for c in self.relations]
                               + [{(i, t_n): Fraction(1)} for i in range(self.ngens)])
        return self._effective

    def zero_submodule(self) -> Submodule:
        """The zero submodule, made once: its span is the relation span."""
        if self._zero is None:
            self._zero = Submodule(self, [])
        return self._zero

    def is_zero_module(self) -> bool:
        return all(self.zero_submodule().contains(self.gen_column(i)) for i in range(self.ngens))

    def is_t_annihilated(self) -> bool:
        return all(self.zero_submodule().contains(self.gen_column(i, self.ring.t))
                   for i in range(self.ngens))

    def gen_column(self, i: int, entry: Poly | None = None) -> Column:
        """The column with ``entry`` (default 1) in slot ``i`` and 0 elsewhere:
        ``entry`` times the i-th generator, with no product formed."""
        S = self.ring.S
        entry = S.one() if entry is None else entry
        return tuple(entry if j == i else S.zero() for j in range(self.ngens))


def graded_or_plain(ring: TruncRing, ngens: int, relations: list[Column],
                    grading: Grading | None) -> PresMod:
    """The presentation with ``grading`` when every relation is homogeneous
    under it, and the ungraded presentation otherwise."""
    if grading is not None:
        try:
            return PresMod(ring, ngens, relations, grading)
        except ModuleError:
            pass
    return PresMod(ring, ngens, relations)


def free_module(ring: TruncRing, rank: int, gen_degrees: tuple[int, ...] | None = None,
                t_weight: int = 1) -> PresMod:
    grading = Grading(gen_degrees or (0,) * rank, t_weight)
    return PresMod(ring, rank, [], grading)


def truncated_free(ring: TruncRing, i: int, degree: int = 0, t_weight: int = 1) -> PresMod:
    """R[i] = R[n]/(t^i) as an R[n]-module (one generator, relation t^i)."""
    if not 0 <= i <= ring.n:
        raise ModuleError(f"truncation level {i} out of range for n={ring.n}")
    return PresMod(ring, 1, [(ring.t ** i,)], Grading((degree,), t_weight))


def direct_sum(*mods: PresMod) -> PresMod:
    ring = mods[0].ring
    if any(m.ring != ring for m in mods):
        raise ModuleError("direct sum over mixed rings")
    total = sum(m.ngens for m in mods)
    rels: list[Column] = []
    offset = 0
    for m in mods:
        for col in m.relations:
            padded = [ring.S.zero()] * total
            for j, p in enumerate(col):
                padded[offset + j] = p
            rels.append(tuple(padded))
        offset += m.ngens
    grading = None
    if all(m.grading is not None for m in mods):
        tw = {m.grading.t_weight for m in mods}
        if len(tw) == 1:
            degs = sum((m.grading.gen_degrees for m in mods), ())
            grading = Grading(degs, tw.pop())
    return PresMod(ring, total, rels, grading)


# -- submodules and chains ------------------------------------------------


class Submodule:
    """A submodule of a PresMod, recorded by generators in the free cover."""

    def __init__(self, ambient: PresMod, gens: list[Column]):
        self.ambient = ambient
        self.gens = [tuple(g) for g in gens]
        self._span: SpanGB | None = None
        self._preimage: list[VecT] | None = None

    def _vecs(self) -> list[VecT]:
        """The generators, then the ambient relations: together they span
        the full preimage of the submodule in the free cover.  Built once and
        shared by the span and every kernel through this submodule."""
        if self._preimage is None:
            self._preimage = ([vec_from_polys(g) for g in self.gens]
                              + self.ambient.effective_relations())
        return self._preimage

    def span(self) -> SpanGB:
        if self._span is None:
            self._span = SpanGB(self.ambient.ring.S, self.ambient.ngens, self._vecs())
        return self._span

    def contains(self, vec: Column) -> bool:
        return self.span().contains(vec_from_polys(vec))

    def normal_form(self, vec: Column) -> Column:
        """The remainder of ``vec`` modulo the reduced basis of the span."""
        S = self.ambient.ring.S
        return vec_to_polys(S, self.ambient.ngens, self.span().normal_form(vec_from_polys(vec)))

    def basis(self) -> list[Column]:
        """The reduced Groebner basis of the full preimage of the submodule
        in the free cover, truncation relations included."""
        S = self.ambient.ring.S
        return [vec_to_polys(S, self.ambient.ngens, v) for v in self.span().gb]

    def kernel_through(self, columns: list[Column]) -> list[Column]:
        """Generators of {c in R[n]^k : sum(c_i * columns_i) lies in the
        submodule}, the k columns given in the ambient free cover: the
        kernel's vectors over S less their terms of t-degree n or more (t is
        the last variable of S), the zero ones dropped, each entry built
        once."""
        ring, k = self.ambient.ring, len(columns)
        ker = kernel_through(ring.S, self.ambient.ngens,
                             [vec_from_polys(c) for c in columns], self._vecs())
        kept = ({term: c for term, c in v.items() if term[1][-1] < ring.n} for v in ker)
        return [vec_to_polys(ring.S, k, v) for v in kept if v]

    def saturation(self, f: Poly) -> Submodule:
        """(self : f^∞), the elements that some power of ``f`` moves into
        the submodule: take the colon (. : f) until nothing new appears."""
        M = self.ambient
        current = self
        while True:
            colon = Submodule(M, current.kernel_through(
                [M.gen_column(i, f) for i in range(M.ngens)]))
            if current.contains_submodule(colon):
                return current
            current = colon

    def contains_submodule(self, other: Submodule) -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: Submodule) -> bool:
        return self.contains_submodule(other) and other.contains_submodule(self)


def subquotient(M: PresMod, a_gens: list[Column], b_gens: list[Column]) -> PresMod:
    """Present span(a_gens)/(span(b_gens) + 0) inside M; generators are the
    classes of a_gens, relations are complete by the syzygy computation."""
    cols = Submodule(M, b_gens).kernel_through(a_gens)
    grading = None if M.grading is None else infer_grading(
        M.ring, a_gens, M.grading.t_weight, M.grading.gen_degrees.__getitem__)
    return PresMod(M.ring, len(a_gens), cols, grading)


def quotient_by_submodule(M: PresMod, gens: list[Column]) -> PresMod:
    """M / span(gens): M's generators and grading, with ``gens`` added to
    the relations."""
    return PresMod(M.ring, M.ngens, M.relations + [tuple(g) for g in gens], M.grading)


def layer_quotients(M: PresMod, members: list[Submodule]) -> Iterator[PresMod]:
    """The layers members[k]/members[k+1] of a filtration of M, presented
    one at a time as they are asked for."""
    for a, b in zip(members, members[1:]):
        yield subquotient(M, a.gens, b.gens)


# -- canonical filtrations ------------------------------------------------


def first_canonical_filtration(M: PresMod) -> list[Submodule]:
    """The descending chain of images of multiplication by t^i, i = 0..n;
    t^n M = 0 is ``M.zero_submodule()``."""
    ring = M.ring
    return ([Submodule(M, [M.gen_column(j, ring.t ** i) for j in range(M.ngens)])
             for i in range(ring.n)] + [M.zero_submodule()])


def annihilator_kernel(M: PresMod, i: int) -> list[Column]:
    """Generators of {m in M : t^i m = 0}, via a syzygy computation made
    once per level and kept on ``M``."""
    if i not in M._annihilators:
        t_i = M.ring.t ** i
        M._annihilators[i] = M.zero_submodule().kernel_through(
            [M.gen_column(j, t_i) for j in range(M.ngens)])
    return M._annihilators[i]


def second_canonical_filtration(M: PresMod) -> list[Submodule]:
    """The chain of t-power annihilators, stored descending:
    M = ann(t^n) ⊇ ann(t^(n-1)) ⊇ ... ⊇ ann(t^0) = 0.  The ends are M and
    ``M.zero_submodule()`` by definition; only the inner members take a
    syzygy computation."""
    return ([Submodule(M, [M.gen_column(j) for j in range(M.ngens)])]
            + [Submodule(M, annihilator_kernel(M, i)) for i in range(M.ring.n - 1, 0, -1)]
            + [M.zero_submodule()])


# -- balanced test --------------------------------------------------------


@dataclass
class BalancedReport:
    balanced: bool
    witness_level: int | None = None    # 1 whenever unbalanced: tM ⊊ ann(t^(n-1))
    witness: Column | None = None       # cover coordinates of an offender
    note: str = ""


def is_balanced(M: PresMod) -> BalancedReport:
    """Whether t^i M = ann(t^(n-i)) for every i: exactly when ann(t^(n-1))
    ⊆ tM, and the first generator of ann(t^(n-1)) outside tM is the witness.

    t^i M ⊆ ann(t^(n-i)) always, so level 1 is that inclusion.  Given it,
    m in ann(t^(n-i)) with i >= 2 lies in ann(t^(n-1)) ⊆ tM, so m = t m'
    with m' in ann(t^(n-i+1)) ⊆ t^(i-1) M by induction on i.  Conversely,
    filtrations that differ at some level differ at level 1, the
    ``witness_level`` of every unbalanced module.

    A graded M takes a second route, with no kernel.  The map M/tM ->
    t^(n-1) M, e_j -> t^(n-1) e_j (the composite of the image-layer maps)
    is onto with kernel (ann(t^(n-1)) + tM)/tM and raises degrees by
    (n-1)w, w the t-weight; being graded and onto, it is injective exactly
    when z^((n-1)w) HS(M/tM) = HS(M) - HS(M/t^(n-1) M)."""
    n, t = M.ring.n, M.ring.t
    if n <= 1:
        return BalancedReport(True, note="all comparison kernels and cokernels vanish")
    # m lies in tM exactly when it is zero in M/tM; a t-weight-1 series reads that span
    top = quotient_by_submodule(M, [M.gen_column(j, t) for j in range(M.ngens)])
    witness = next((g for g in Submodule(M, annihilator_kernel(M, n - 1)).gens
                    if not top.zero_submodule().contains(g)), None)
    balanced = witness is None
    if M.grading is not None:
        from .hilbert import HilbertSeries, hilbert_series_presmod

        top_hs = hilbert_series_presmod(top)
        bottom_hs = top_hs if n == 2 else hilbert_series_presmod(quotient_by_submodule(
            M, [M.gen_column(j, t ** (n - 1)) for j in range(M.ngens)]))
        shift = (n - 1) * M.grading.t_weight
        source = HilbertSeries.make({d + shift: c for d, c in top_hs.numerator_coeffs},
                                    top_hs.nvars)
        balanced = agree(ModuleError, "is the module balanced",
                         series=source == hilbert_series_presmod(M) - bottom_hs,
                         inclusion=balanced)
    if balanced:
        return BalancedReport(True, note="all comparison kernels and cokernels vanish")
    return BalancedReport(False, 1, witness, f"ann(t^{n - 1}) exceeds t^1 M")


# -- freeness and types ---------------------------------------------------


def base_relation_matrix(Q: PresMod) -> list[list[Poly]]:
    """Relation matrix of a t-annihilated module over the base ring
    (rows = generators), obtained by killing t in the relation columns."""
    ring = Q.ring
    rows: list[list[Poly]] = [[] for _ in range(Q.ngens)]
    for col in Q.relations:
        reduced = [ring.drop_t(p) for p in col]
        if all(p.is_zero() for p in reduced):
            continue
        for j in range(Q.ngens):
            rows[j].append(reduced[j])
    return rows


@dataclass
class QuasiFreeReport:
    type_vector: tuple[int, ...] | None
    layer_ranks: list[int] | None = None
    first_nonfree: int | None = None
    note: str = ""


def quasi_free_type(M: PresMod) -> QuasiFreeReport:
    """Type (m_1..m_n) when every image-filtration layer is a free base
    module; requires grading data.  A graded layer is free exactly when its
    generator count at the origin equals its rank over the fraction field
    (graded Nakayama: the kernel of a minimal free cover of that rank is
    torsion inside a free module, so it is zero)."""
    if M.grading is None:
        raise ModuleError("quasi_free_type needs grading data")
    n = M.ring.n
    ranks: list[int] = []
    for i, layer in enumerate(layer_quotients(M, first_canonical_filtration(M))):
        if layer.grading is None:
            raise ModuleError("filtration layer lost its grading")
        rank = generators_at_origin(layer)
        if rank != layer.ngens - generic_rank(base_relation_matrix(layer)):
            return QuasiFreeReport(None, None, i,
                                   note=f"layer {i} of the image filtration is not free")
        ranks.append(rank)
    ranks.append(0)
    mvec = tuple(ranks[i - 1] - ranks[i] for i in range(1, n + 1))
    if any(m < 0 for m in mvec):
        return QuasiFreeReport(None, ranks[:-1], None,
                               note="rank sequence not decreasing; input not quasi-free")
    return QuasiFreeReport(mvec, ranks[:-1], None, note="all layers free")


def generic_rank(matrix: list[list[Poly]]) -> int:
    """Rank over the fraction field K of the base ring S: the number of
    module positions that carry a lead of the Groebner basis of the column
    span N in S^r, under grevlex terms compared before positions.

    The leading module is monomial, in(N) = J_1 e_1 + ... + J_r e_r.  For a
    degree-compatible order, S^r/N and S^r/in(N) have the same Hilbert
    function (Macaulay; Eisenbud, Commutative Algebra, Ch. 15), so they have
    the same rank over K, and S/J_i has rank 1 when J_i = 0 and 0 otherwise.
    So N has rank r minus the number of positions with J_i = 0.  The terms
    are ordered by grevlex whatever the base ring's order: the argument
    needs a degree-compatible order, and under lex the basis can grow far
    larger."""
    if not matrix or not matrix[0]:
        return 0
    return _span_rank(matrix[0][0].ring, len(matrix),
                      [vec_from_polys(col) for col in zip(*matrix)])


def _span_rank(base: PolyRing, rank: int, cols: list[VecT]) -> int:
    """``generic_rank`` of the span of ``cols`` in base^rank."""
    if not cols:
        return 0
    span = SpanGB(PolyRing(base.variables, grevlex()), rank, cols)
    return len({pos for pos, _e in span.gb_leads})


def unfold(M: PresMod, k: int) -> list[VecT]:
    """Relation columns of M/t^k M as a module over the base ring, for
    0 <= k <= n: generator ``j*k + l`` is t^l e_j (l < k), and each relation
    c of M gives the columns t^s c, s < k, with their terms of t-degree k
    or more dropped.  The zero columns are left out."""
    ring, g = M.ring, M.ngens
    cols: list[VecT] = []
    for col in M.relations:
        parts = [[ring.t_coefficient(p, l) for l in range(k)] for p in col]
        for s in range(k):
            vec: VecT = {}
            for j in range(g):
                for l in range(k - s):
                    for e, c in parts[j][l].terms.items():
                        vec[(j * k + l + s, e)] = c
            if vec:
                cols.append(vec)
    return cols


def generic_type(M: PresMod) -> tuple[int, ...]:
    """Type of the generic fiber M ⊗ K[n]: layer ranks over K = Frac(base).

    0 -> t^i M/t^(i+1) M -> M/t^(i+1) M -> M/t^i M -> 0 is exact, so layer
    i has rank r(i+1) - r(i), where r(k) is the rank over K of M/t^k M, read
    off its relations over the base ring (``unfold``); no layer is
    presented."""
    n, g = M.ring.n, M.ngens
    quotient_ranks = [0] + [g * k - _span_rank(M.ring.base, g * k, unfold(M, k))
                            for k in range(1, n + 1)]
    ranks = [b - a for a, b in zip(quotient_ranks, quotient_ranks[1:])] + [0]
    return tuple(ranks[i - 1] - ranks[i] for i in range(1, n + 1))


# -- extensions -----------------------------------------------------------


def check_inclusion(E: PresMod, first: int, N: PresMod, error: type[ArithError]) -> None:
    """Raise ``error`` unless N -> E, sending N's generators to E's
    generators ``first``, ``first + 1``, .., is injective.

    This is the one condition of ``0 -> N -> E -> M -> 0`` that can fail
    when E is glued as both extension constructors glue it: the cokernel of
    the relations ``(N.relations, 0)`` and ``(f1_r, M.rel_r)``, up to the
    order of the two blocks, with the usual ``t^n e_i``.  The projection
    E -> M is then well defined and onto, and the composite N -> E -> M is
    zero.  The projection's kernel lies in N's image: if the M-part of c is
    ``sum(s_r M.rel_r) + t^n(...)``, then ``c - sum(s_r (f1_r, M.rel_r))``
    lives in the N block.  A map that does not descend to the span of M's
    relations makes an element of N zero in E, so it fails here."""
    ker = E.zero_submodule().kernel_through([E.gen_column(first + k) for k in range(N.ngens)])
    if not all(N.zero_submodule().contains(g) for g in ker):
        raise error("extension inclusion failed injectivity")


def build_extension(N: PresMod, M: PresMod, f1_columns: list[Column]) -> PresMod:
    """Glue N below M along a map from M's relation cover into N.

    M's presentation is read as a two-step cover F1 -> F0 -> M with F1 free
    on the relation columns; f1_columns gives the image in N of each F1
    basis vector.  The result E is the cokernel of the combined map into
    N ⊕ F0, N's generators first.  The projection onto M, its kernel and
    the zero composite hold by construction (``check_inclusion``); the
    inclusion of N is checked injective on every call.  That check refuses
    a map that does not descend to im(F1 -> F0): a syzygy s of the
    relations with sum(s_r f1_r) nonzero in N makes (sum(s_r f1_r), 0) zero
    in E.
    """
    ring = M.ring
    if N.ring != ring:
        raise ModuleError("extension over mixed rings")
    q = len(M.relations)
    if len(f1_columns) != q:
        raise ModuleError(f"need one image per relation column ({q}), got {len(f1_columns)}")
    total = N.ngens + M.ngens
    zero = ring.S.zero()
    rels: list[Column] = []
    for col in N.relations:
        rels.append(tuple(col) + (zero,) * M.ngens)
    for r in range(q):
        rels.append(tuple(f1_columns[r]) + tuple(M.relations[r]))

    grading = None
    if N.grading is not None and M.grading is not None \
            and N.grading.t_weight == M.grading.t_weight:
        grading = Grading(N.grading.gen_degrees + M.grading.gen_degrees,
                          N.grading.t_weight)
    E = graded_or_plain(ring, total, rels, grading)
    check_inclusion(E, 0, N, ModuleError)
    return E


def extension_R_by_Ri(ring: TruncRing, sigma: Poly, i: int) -> PresMod:
    """The extension of R = R[n]/(t) by R[i] classified by sigma: cokernel
    of (sigma, t) together with the truncation relation t^i on the lower
    generator.  Unit sigma at the origin gives R[i+1]; sigma = 0 splits."""
    if not 1 <= i <= ring.n - 1:
        raise ModuleError(f"level must satisfy 1 <= i <= n-1, got {i}")
    # R[i] sits in the degree that makes the relation (sigma, t) homogeneous
    # when sigma is; for any other sigma the extension comes out ungraded.
    degree = 1 - sigma.total_degree() if sigma.terms else 0
    return build_extension(truncated_free(ring, i, degree), truncated_free(ring, 1),
                           [(sigma,)])


# -- filtration refinement ------------------------------------------------


def refine_filtrations(M: PresMod) -> tuple[list[Submodule], list[Submodule], list[tuple]]:
    """Common-refinement chains of the two canonical filtrations of M, the
    images D_i = t^i M and the annihilators F_j = ann(t^(n-j)), with
    matched layer quotients.

    Between consecutive members of D, the members of F are threaded through
    by D_{i+1} + (D_i ∩ F_j); dually for F.  The crosswise layer quotients
    match up pairwise (Zassenhaus), which is checked by comparing graded
    Hilbert series; the returned pairing lists ((i,j), series) entries for
    the nonzero layers.

    m = t^i a lies in ann(t^k) exactly when a lies in ann(t^(i+k)), so
    t^i M ∩ ann(t^k) = t^i·ann(t^(i+k)): the generators of
    ``annihilator_kernel(M, i + k)`` (the unit columns when i + k >= n)
    times t^i, and no kernel beyond the n - 1 inner annihilators is built.

    A layer's series is read off two quotients of M: for B ⊆ A the exact
    sequence 0 -> A/B -> M/B -> M/A -> 0 gives HS(A/B) = HS(M/B) - HS(M/A).
    So each inner member X of a threaded chain costs one series of M/X,
    presented by M's relations and X's generators, and no layer is
    presented.  Member (i, 0) is D_i and member (i, n) is D_{i+1}, so only
    the inner members F_1 .. F_(n-1) are intersected, and the ends need no
    quotient, HS(M/M) = 0 and HS(M/0) = HS(M).  The returned chains keep
    their first member and each member that ends a nonzero layer: a graded
    layer is zero exactly when its series is, and then its two ends are
    equal.  So each chain has one member more than the pairing has entries.
    """
    from .hilbert import HilbertSeries, hilbert_series_presmod

    if M.grading is None:
        raise ModuleError("refinement requires a graded ambient module")
    n, t = M.ring.n, M.ring.t
    D, F = first_canonical_filtration(M), second_canonical_filtration(M)
    # the series of M/M and of M/0, shared by both chains
    whole = hilbert_series_presmod(M)
    zero = HilbertSeries.make({}, whole.nvars)

    def meet(i: int, k: int) -> list[Column]:
        # t^i M ∩ ann(t^k), for 0 <= i < n and 0 < k < n
        if i + k >= n:
            return [M.gen_column(j, t ** i) for j in range(M.ngens)]
        gens = annihilator_kernel(M, i + k)
        if i == 0:
            return gens
        t_i = t ** i
        moved = (tuple(p * t_i if p else p for p in g) for g in gens)
        return [g for g in moved if any(g)]

    def members(outer: list[Submodule], inner_meet: Callable[[int, int], list[Column]]
                ) -> list[Submodule]:
        # member (a, b) = outer[a+1] + (outer[a] ∩ inner[b]) sits at index a*n + b
        chain: list[Submodule] = []
        for a in range(n):
            chain.append(outer[a])
            chain += [Submodule(M, outer[a + 1].gens + inner_meet(a, b)) for b in range(1, n)]
        chain.append(outer[n])
        return chain

    def layer_series(chain: list[Submodule]) -> list:
        # layer k of the chain is chain[k] / chain[k + 1]
        quotients = ([zero]
                     + [hilbert_series_presmod(quotient_by_submodule(M, X.gens))
                        for X in chain[1:-1]]
                     + [whole])
        return [below - above for above, below in zip(quotients, quotients[1:])]

    # D_i ∩ F_j and F_j ∩ D_i are both t^i M ∩ ann(t^(n-j))
    d_chain = members(D, lambda i, j: meet(i, n - j))
    f_chain = members(F, lambda j, i: meet(i, n - j))
    d_series, f_series = layer_series(d_chain), layer_series(f_chain)

    pairing = []
    d_ends, f_ends = [], []
    for i in range(n):
        for j in range(n):
            k, l = i * n + j, j * n + i
            hs_d = agree(ModuleError, f"series of crosswise layer ({i},{j})",
                         first_chain=d_series[k], second_chain=f_series[l])
            if hs_d.numerator_coeffs:
                pairing.append(((i, j), hs_d))
                d_ends.append(k + 1)
                f_ends.append(l + 1)

    return ([d_chain[0]] + [d_chain[k] for k in d_ends],
            [f_chain[0]] + [f_chain[l] for l in sorted(f_ends)], pairing)


# -- Hom and Ext ----------------------------------------------------------


def _power(N: PresMod, k: int) -> PresMod:
    """N^k; copy b holds slots b*N.ngens .. (b+1)*N.ngens - 1."""
    return direct_sum(*[N] * k) if k else PresMod(N.ring, 0, [])


def _pullback_columns(N: PresMod, rows: int, columns: list[Column]) -> list[Column]:
    """The matrix of ``columns`` pulled back to N^len(columns): one column for
    each pair (i, l), i < rows and l < N.ngens, in that order, whose slot
    ``k*N.ngens + l`` holds entry i of ``columns[k]``.  Column ``i*N.ngens +
    l`` belongs to the pair (i, l) even when it is zero."""
    p = N.ngens
    zero = N.ring.S.zero()
    out: list[Column] = []
    for i in range(rows):
        for l in range(p):
            col = [zero] * (len(columns) * p)
            for k, c in enumerate(columns):
                col[k * p + l] = c[i]
            out.append(tuple(col))
    return out


def maps_into(N: PresMod, rows: int, relations: list[Column]) -> list[Column]:
    """Generators of Hom(coker(relations), N) for relation columns of
    ``rows`` entries, as tuples in N^rows (slot i*N.ngens + l is entry l of
    the image of generator i) that every relation sends to zero.  The one
    source of Hom generators: ``hom_module``, ``ext1_module`` and
    ``dualtor.torsion`` read theirs here."""
    return _power(N, len(relations)).zero_submodule().kernel_through(
        _pullback_columns(N, rows, relations))


def infer_grading(ring: TruncRing, columns: list[Column], t_weight: int,
                  slot_degree: Callable[[int], int]) -> Grading | None:
    """The grading that makes every column of ``columns`` a homogeneous
    generator, or None when some column is inhomogeneous.

    A term ``x^e t^k`` in slot ``j`` has degree ``|e| + t_weight * k +
    slot_degree(j)``; ``slot_degree`` must accept every slot that carries a
    term.  A zero column gets degree 0, so a caller that must not grade zero
    generators checks for them first."""
    degs: list[int] = []
    for col in columns:
        ds = _term_degrees(ring, col, t_weight, slot_degree)
        if len(ds) > 1:
            return None
        degs.append(ds.pop() if ds else 0)
    return Grading(tuple(degs), t_weight)


def hom_module(M: PresMod, N: PresMod) -> PresMod:
    """Present Hom_{R[n]}(M, N): the maps from coker(M's relations) into N,
    inside N^(number of M generators), modulo maps with all images zero.
    Generator k is ``maps_into(N, M.ngens, M.relations)[k]``."""
    ring = M.ring
    g, p = M.ngens, N.ngens
    gens = maps_into(N, g, M.relations)
    relations = _power(N, g).zero_submodule().kernel_through(gens)

    grading = None
    if M.grading is not None and N.grading is not None \
            and M.grading.t_weight == N.grading.t_weight:
        grading = infer_grading(
            ring, gens, M.grading.t_weight,
            lambda pos: (N.grading.gen_degrees[pos % p]
                         - M.grading.gen_degrees[pos // p]))
    return PresMod(ring, len(gens), relations, grading)


def ext1_module(M: PresMod, N: PresMod) -> PresMod:
    """Ext^1_{R[n]}(M, N) from the start of a free resolution of M: the
    relation columns give F1 -> F0, their syzygies over R[n] give F2 -> F1,
    and Ext^1 is ker(Hom(F1,N) -> Hom(F2,N)) / im(Hom(F0,N) -> Hom(F1,N)).
    The cycles are Hom(coker(F2 -> F1), N), found as in ``hom_module``."""
    ring = M.ring
    g, p = M.ngens, N.ngens
    q = len(M.relations)
    if q == 0:
        return PresMod(ring, 0, [])
    phi2 = free_module(ring, g).zero_submodule().kernel_through(M.relations)
    z_gens = maps_into(N, q, phi2)
    b_cols = [col for col in _pullback_columns(N, g, M.relations) if any(col)]
    relations = Submodule(_power(N, q), b_cols).kernel_through(z_gens)

    # Grade as a subquotient of N^(number of relations): flat slot (j, l)
    # carries the degree of N's generator l.  Attached only when every
    # generator and every relation comes out homogeneous under that
    # convention.
    grading = None
    if M.grading is not None and N.grading is not None \
            and M.grading.t_weight == N.grading.t_weight:
        grading = infer_grading(ring, z_gens, M.grading.t_weight,
                                lambda pos: N.grading.gen_degrees[pos % p])
    return graded_or_plain(ring, len(z_gens), relations, grading)


# -- local (at the origin) vanishing --------------------------------------


def generators_at_origin(Q: PresMod) -> int:
    """Minimal number of generators of Q localized at the origin: the
    generator count less the rank of the constant terms of the relations
    (Nakayama).  For a graded Q this is its minimal generator count."""
    return Q.ngens - matrix_rank({j: p.constant_term() for j, p in enumerate(col)}
                                 for col in Q.relations)


def vanishes_locally(Q: PresMod) -> bool:
    """Whether Q localizes to zero at the origin (x.., t)."""
    return generators_at_origin(Q) == 0

