"""Ideals of embedded double points on a doubled plane.

The ambient ring is O2 = Q[x,y][t]/(t^2).  The objects classified here are
the ideals J = (x + a*t, y + b*t) with polynomial a, b; each lies between
the maximal ideal m = (x, y, t) and m^2, so exact Groebner work on its two
generators answers every local question with no jets adjoined.  The
classifying invariant is the class of -y*(a*t) + x*(b*t) in m*I/m^2*I, a
two-dimensional rational vector, and the tangent-vector form of that class
is what transforms cleanly under a change of the generating pair.

Degree-bounded checks of the standard free resolution of the reduced
maximal ideal and of the derived-complex dimension counts live here too,
along with the construction of an extension module from a class vector and
a multiplier rho, which is balanced exactly when rho does not vanish at the
origin.

Every function takes typed values and parses no text: a, b, rho, the chart
entries and the psi matrices are ``Poly``s of ``LocalDoubleRing.base``, a
class element and the phi columns are ``Poly``s of its ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ArithError, MonomialOrder, Poly, agree, matrix_rank
from .fpmod import (
    Column,
    Grading,
    PresMod,
    Submodule,
    annihilator_kernel,
    check_inclusion,
    free_module,
    graded_or_plain,
    is_balanced,
    quotient_by_submodule,
    subquotient,
    truncated_free,
    vanishes_locally,
)
from .hilbert import monomials_of_degree, presmod_dimension_by_enumeration
from .multiring import TruncRing


class DoublePointError(ArithError):
    """Invalid chart or ideal data, or a failed internal cross-check."""


class LocalDoubleRing:
    """Q[x,y][t]/(t^2), the ring of the point ideals, with the reduction
    basis of their classes; ``order`` is its monomial order, grevlex by
    default.  A point ideal contains (x, y, t)^2, so no jet is adjoined."""

    def __init__(self, order: MonomialOrder | None = None):
        self.trunc = TruncRing(("x", "y"), 2, order)
        self.S = self.trunc.S
        self.base = self.trunc.base
        self.x = self.S.gen("x")
        self.y = self.S.gen("y")
        self.t = self.trunc.t
        # reduction basis for classes in m*I/m^2*I
        self._classes = Submodule(free_module(self.trunc, 1), [
            (self.x * self.x * self.t,), (self.x * self.y * self.t,),
            (self.y * self.y * self.t,)])

    def class_coords(self, elem: Poly) -> tuple[Fraction, Fraction]:
        """Coordinates of an element of m*I in the basis (x*t, y*t) of
        m*I/m^2*I, by normal-form reduction."""
        (nf,) = self._classes.normal_form((elem,))
        if set(nf.terms) - {(1, 0, 1), (0, 1, 1)}:
            raise DoublePointError("reduction left a term outside the class basis")
        return nf.terms.get((1, 0, 1), Fraction(0)), nf.terms.get((0, 1, 1), Fraction(0))


def _split_m_tensor(ring: LocalDoubleRing, elem: Poly) -> tuple[Poly, Poly]:
    """Write an element of m*I as x*A*t + y*B*t with base polynomials A, B
    (monomials with positive x-exponent go to A)."""
    if ring.trunc.drop_t(elem).terms:
        raise DoublePointError("element of m*I must be a multiple of t")
    tc = ring.trunc.t_coefficient(elem, 1)
    a_terms: dict = {}
    b_terms: dict = {}
    for e, c in tc.terms.items():
        if e[0] > 0:
            a_terms[(e[0] - 1, e[1])] = c
        elif e[1] > 0:
            b_terms[(e[0], e[1] - 1)] = c
        else:
            raise DoublePointError("t-coefficient has a constant term; not in m*I")
    return Poly(ring.base, a_terms), Poly(ring.base, b_terms)


class PointIdeal:
    """The ideal (x + a*t, y + b*t) of O2, recorded by the base polynomials
    a and b, ``Poly``s of ``ring.base`` (``TruncRing.inject`` refuses any
    other ring).  Such an ideal always contains x^2, x*y, y^2, x*t and y*t;
    construction re-verifies that by explicit membership."""

    def __init__(self, ring: LocalDoubleRing, a: Poly, b: Poly):
        self.ring = ring
        self.a = a
        self.b = b
        tr = ring.trunc
        self.gen_x = ring.x + tr.inject(self.a) * ring.t
        self.gen_y = ring.y + tr.inject(self.b) * ring.t
        ideal = Submodule(free_module(tr, 1), [(self.gen_x,), (self.gen_y,)])
        x, y, t = ring.x, ring.y, ring.t
        for probe in (x * x, x * y, y * y, x * t, y * t):
            if not ideal.contains((probe,)):
                raise DoublePointError(
                    f"ideal misses {probe}: not a double-point ideal")

    def __repr__(self) -> str:
        return f"PointIdeal(a={self.a}, b={self.b})"


@dataclass(frozen=True)
class TauClass:
    """Class of -y*(a*t) + x*(b*t) in m*I/m^2*I, in the basis (x*t, y*t)."""

    c_x: Fraction
    c_y: Fraction

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return self.c_x, self.c_y


# A class: its coordinates, an element of m*I in S, or the base pair (A, B) of x*A*t + y*B*t.
TauData = TauClass | Poly | tuple[Poly, Poly]


def tau(J: PointIdeal) -> TauClass:
    """The classifying class of a point ideal, computed in closed form from
    the constant terms and re-derived by normal-form reduction; the two must
    agree."""
    ring = J.ring
    tr = ring.trunc
    omega = (-ring.y * tr.inject(J.a) + ring.x * tr.inject(J.b)) * ring.t
    return TauClass(*agree(DoublePointError, "class of the point ideal",
                           closed_form=(J.b.constant_term(), -J.a.constant_term()),
                           reduction=ring.class_coords(omega)))


def ideals_equal(J: PointIdeal, K: PointIdeal) -> bool:
    """Equality of point ideals, evaluated three independent ways (Groebner
    equality of the generators' spans, class equality, constant-term
    equality); any disagreement is an internal error.  The module-isomorphism
    formulation is not implemented apart: it is equivalent to class equality."""
    if J.ring is not K.ring:
        raise DoublePointError("ideals over different rings")
    F = free_module(J.ring.trunc, 1)
    span_j = Submodule(F, [(J.gen_x,), (J.gen_y,)])
    span_k = Submodule(F, [(K.gen_x,), (K.gen_y,)])
    return agree(DoublePointError, "are the ideals equal",
                 groebner=span_j.equals(span_k),
                 classes=tau(J).as_pair() == tau(K).as_pair(),
                 constants=(K.a - J.a).constant_term() == 0
                 and (K.b - J.b).constant_term() == 0)


@dataclass(frozen=True)
class LambdaCoord:
    """A tangent-vector form of the class invariant: coordinates in the
    basis (d/dx (x) tbar, d/dy (x) tbar) attached to a generating pair.

    Convention fixed once: the area form sends dx to -d/dy and dy to d/dx,
    so a class (c_x, c_y) becomes the vector (c_y, -c_x).
    """

    coords: tuple[Fraction, Fraction]
    chart: str = "x,y"


def lambda_coord(J: PointIdeal) -> LambdaCoord:
    """The tangent-vector coordinates of J in the standard chart:
    (-a(0,0), -b(0,0))."""
    cls = tau(J)
    return LambdaCoord((cls.c_y, -cls.c_x))


@dataclass(frozen=True)
class ChartChange:
    """New generating pair x' = alpha*(x + u*t) + beta*(y + v*t),
    y' = gamma*(x + u*t) + delta*(y + v*t).  The entries are base
    polynomials; u and v must vanish at the origin (the shifts u*t, v*t
    must lie in m*I)."""

    alpha: Poly
    beta: Poly
    gamma: Poly
    delta: Poly
    u: Poly
    v: Poly


def _chart_matrix(ch: ChartChange) -> tuple[tuple[Fraction, ...], ...]:
    m = ((ch.alpha.constant_term(), ch.beta.constant_term()),
         (ch.gamma.constant_term(), ch.delta.constant_term()))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise DoublePointError("chart matrix is not invertible at the origin")
    return m


def _invert2(m) -> tuple[tuple[Fraction, ...], ...]:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return ((m[1][1] / det, -m[0][1] / det),
            (-m[1][0] / det, m[0][0] / det))


def change_chart(J: PointIdeal, ch: ChartChange) -> LambdaCoord:
    """Tangent coordinates of J with respect to a new generating pair,
    computed directly (re-derive representatives, reduce, convert bases)
    and again through the transformation law (matrix times the old vector
    plus the class of -y*u*t + x*v*t); the routes must agree."""
    ring = J.ring
    if ch.u.constant_term() != 0 or ch.v.constant_term() != 0:
        raise DoublePointError("chart shifts must lie in m*I")
    m0 = _chart_matrix(ch)
    m0_inv = _invert2(m0)
    tr = ring.trunc

    # direct route: representatives w.r.t. the new pair
    a_shift = J.a - ch.u
    b_shift = J.b - ch.v
    a_new = ch.alpha * a_shift + ch.beta * b_shift
    b_new = ch.gamma * a_shift + ch.delta * b_shift
    x_new0 = tr.inject(ch.alpha) * ring.x + tr.inject(ch.beta) * ring.y
    y_new0 = tr.inject(ch.gamma) * ring.x + tr.inject(ch.delta) * ring.y
    omega = (-y_new0 * tr.inject(a_new) + x_new0 * tr.inject(b_new)) * ring.t
    ct = ring.class_coords(omega)
    # convert the class from the old basis (x*t, y*t) to the new one
    c_new = (ct[0] * m0_inv[0][0] + ct[1] * m0_inv[1][0],
             ct[0] * m0_inv[0][1] + ct[1] * m0_inv[1][1])
    direct = (c_new[1], -c_new[0])

    # law route: matrix action on the old vector plus the shift class
    old = lambda_coord(J).coords
    shift_elem = (-ring.y * tr.inject(ch.u) + ring.x * tr.inject(ch.v)) * ring.t
    s = ring.class_coords(shift_elem)
    shifted = (old[0] + s[1], old[1] - s[0])
    law = (m0[0][0] * shifted[0] + m0[0][1] * shifted[1],
           m0[1][0] * shifted[0] + m0[1][1] * shifted[1])

    return LambdaCoord(agree(DoublePointError, "coordinates in the new chart",
                             direct=direct, law=law), chart="chart")


def affine_difference(J1: PointIdeal, J2: PointIdeal,
                      charts: tuple[ChartChange, ...] = ()
                      ) -> tuple[Fraction, Fraction]:
    """The difference of tangent coordinates, which does not depend on the
    generating pair; invariance is asserted for every supplied chart."""
    l1 = lambda_coord(J1).coords
    l2 = lambda_coord(J2).coords
    diff = (l1[0] - l2[0], l1[1] - l2[1])
    for ch in charts:
        m0_inv = _invert2(_chart_matrix(ch))
        p1 = change_chart(J1, ch).coords
        p2 = change_chart(J2, ch).coords
        dp = (p1[0] - p2[0], p1[1] - p2[1])
        back = (m0_inv[0][0] * dp[0] + m0_inv[0][1] * dp[1],
                m0_inv[1][0] * dp[0] + m0_inv[1][1] * dp[1])
        agree(DoublePointError, "difference of tangent coordinates",
              standard_chart=diff, new_chart_pulled_back=back)
    return diff


# -- degree-bounded homological checks -------------------------------------


@dataclass
class TableReport:
    """Outcome of a degree-bounded check: whether it passed, what failed,
    and one ``dimension_table`` row of five integers per degree, whose
    columns the check names."""

    ok: bool
    failures: list[str]
    dimension_table: list[tuple[int, int, int, int, int]]


def verify_maximal_ideal_resolution(ring: LocalDoubleRing, degree_bound: int,
                                    phi1_cols: list[Column] | None = None,
                                    phi2_cols: list[Column] | None = None
                                    ) -> TableReport:
    """Check the three-step resolution of (x, y) as a module over the
    double ring: composites vanish, kernels equal images (exact spans and a
    per-degree dimension table up to the bound), and the displayed kernel
    of the first map is confirmed by double inclusion.  The table rows are
    (degree, dim ker phi0, dim im phi1, dim ker phi1, dim im phi2), counted
    by ``presmod_dimension_by_enumeration`` on the free modules and the
    maps' cokernels: no Groebner basis, so the table is independent of the
    kernel checks.  A term off its column's source degree raises."""
    if degree_bound < 2:
        raise DoublePointError("degree bound must be at least 2")
    tr = ring.trunc
    x, y, t = ring.x, ring.y, ring.t
    zero = ring.S.zero()
    default1 = [(y, -x), (t, zero), (zero, t)]
    default2 = [(t, -y, x), (zero, t, zero), (zero, zero, t)]
    phi1 = phi1_cols or default1
    phi2 = phi2_cols or default2
    failures: list[str] = []

    # composites: phi0 lands in the reduced ring, so reduce mod t on top of t^2
    for idx, (c1, c2) in enumerate(phi1):
        r = tr.drop_t(x * c1 + y * c2)
        if r.terms:
            failures.append(f"phi0*phi1 nonzero at column {idx}: {r}")
    for idx, col in enumerate(phi2):
        out = [sum((col[i] * phi1[i][l] for i in range(3)), zero) for l in range(2)]
        if any(p.terms for p in out):
            failures.append(f"phi1*phi2 nonzero at column {idx}")

    # graded as the sources of phi0: F2 -> R[2]/(t) and phi1: F3 -> F2
    F2, F3 = free_module(tr, 2, (1, 1)), free_module(tr, 3, (2, 2, 2))
    reduced = truncated_free(tr, 1)
    ker0 = Submodule(F2, reduced.zero_submodule().kernel_through([(x,), (y,)]))
    if not ker0.equals(Submodule(F2, phi1)):
        failures.append("ker(phi0) differs from im(phi1)")

    displayed = Submodule(F2, default1)
    if not displayed.contains_submodule(ker0):
        failures.append("computed kernel of phi0 exceeds the displayed kernel")
    if not ker0.contains_submodule(displayed):
        failures.append("displayed kernel not inside the computed kernel")

    ker1 = F2.zero_submodule().kernel_through(phi1)
    if not Submodule(F3, ker1).equals(Submodule(F3, phi2)):
        failures.append("ker(phi1) differs from im(phi2)")

    # dim im = dim target - dim coker, and dim ker = dim source - dim im
    maps = [(F2, reduced, [(x,), (y,)]), (F3, F2, phi1),
            (free_module(tr, 3, (3, 3, 3)), F3, phi2)]
    for source, target, cols in maps:
        src, tgt = source.grading.gen_degrees, target.grading.gen_degrees
        for i, col in enumerate(cols):
            for l, p in enumerate(col):
                for e, c in p.terms.items():
                    if sum(e) + tgt[l] != src[i]:
                        raise DoublePointError(
                            f"column {i}: the term {Poly(ring.S, {e: c})} of entry {l} "
                            f"lies off the degree {src[i]} of its source generator")
    spaces = [(source, target, quotient_by_submodule(target, cols))
              for source, target, cols in maps]
    dim = presmod_dimension_by_enumeration
    table: list[tuple[int, int, int, int, int]] = []
    for d in range(2, degree_bound + 1):
        ims = [dim(target, d) - dim(coker, d) for _, target, coker in spaces]
        kers = [dim(source, d) - im for (source, _, _), im in zip(spaces, ims)]
        table.append((d, kers[0], ims[1], kers[1], ims[2]))
        for k in (0, 1):
            if kers[k] != ims[k + 1]:
                failures.append(f"degree {d}: dim ker(phi{k}) = {kers[k]} "
                                f"but dim im(phi{k + 1}) = {ims[k + 1]}")

    return TableReport(not failures, failures, table)


def _psi_slice(mat: list[list[Poly]], slots: int,
               src_basis: list[tuple[int, int, int]]) -> list[dict]:
    """A base-coefficient matrix acting on one degree slice of
    (m*I)-tuples: one sparse image per source basis element, keyed by
    (slot, exponents), so entries of any degree are handled exactly."""
    images: list[dict] = []
    for s in range(slots):
        for mono in src_basis:
            image: dict = {}
            for r in range(len(mat)):
                for ee, c in mat[r][s].terms.items():
                    key = (r, (mono[0] + ee[0], mono[1] + ee[1], 1))
                    image[key] = image.get(key, 0) + c
            images.append(image)
    return images


def _mi_cube_presentation(ring: LocalDoubleRing, slots: int) -> PresMod:
    """(m*I)^slots presented on the generators x*t, y*t per slot."""
    tr = ring.trunc
    zero = ring.S.zero()
    gens = [tuple(m if r == s else zero for r in range(slots))
            for s in range(slots) for m in (ring.x * ring.t, ring.y * ring.t)]
    rels = free_module(tr, slots).zero_submodule().kernel_through(gens)
    return PresMod(tr, 2 * slots, rels, Grading((2,) * (2 * slots), 1))


def _psi_map(ring: LocalDoubleRing, matrix: list[list[Poly]]) -> list[Column]:
    """The image columns, in (m*I)^len(matrix), of the map a base-coefficient
    matrix induces on (m*I)-tuples: the generator (slot s, monomial m) goes
    to sum_r matrix[r][s] * (slot r, m).  The map is well defined by
    construction, so nothing is checked: every relation of (m*I)-tuples is a
    sum of relations of single slots, and the relations of one slot are
    those of every other."""
    tr = ring.trunc
    cols: list[Column] = []
    for s in range(len(matrix[0])):
        for m_idx in range(2):
            col = [ring.S.zero()] * (2 * len(matrix))
            for r in range(len(matrix)):
                entry = matrix[r][s]
                if entry.terms:
                    col[2 * r + m_idx] = tr.inject(entry)
            cols.append(tuple(col))
    return cols


def ext_complex_check(ring: LocalDoubleRing, degree_bound: int,
                      psi1: list[list[Poly]] | None = None,
                      psi2: list[list[Poly]] | None = None
                      ) -> TableReport:
    """Check the two derived-complex maps on (m*I)-tuples: the kernel of
    the second map is the first slot plus the diagonal copy, the image of
    the first is the square of the maximal ideal in the first slot, and the
    per-degree dimensions of kernel-mod-image match the expected count
    (two in degree 2 from the conormal part, plus a polynomial part of
    dimension d - 1 for d >= 2).  The table rows are (degree, dim ker psi2,
    dim im psi1, quotient dim via presentation, expected dim)."""
    if degree_bound < 2:
        raise DoublePointError("degree bound must be at least 2")
    x0, y0 = ring.base.gen("x"), ring.base.gen("y")
    zero = ring.base.zero()
    if psi1 is None:
        psi1 = [[y0, -x0], [zero, zero], [zero, zero]]
    if psi2 is None:
        psi2 = [[zero, y0, -x0], [zero, zero, zero], [zero, zero, zero]]
    failures: list[str] = []

    triple = _mi_cube_presentation(ring, 3)
    cols1 = _psi_map(ring, psi1)
    ker2 = triple.zero_submodule().kernel_through(_psi_map(ring, psi2))
    e = [triple.gen_column(i) for i in range(6)]
    diag = tuple(p + q for p, q in zip(e[2], e[5]))
    claimed_ker = [e[0], e[1], diag]
    ker_sub = Submodule(triple, ker2)
    claimed_sub = Submodule(triple, claimed_ker)
    if not ker_sub.contains_submodule(claimed_sub):
        failures.append("claimed kernel generators are not in ker(psi2)")
    if not claimed_sub.contains_submodule(ker_sub):
        failures.append("ker(psi2) exceeds the first slot plus the diagonal")

    im1 = Submodule(triple, cols1)
    x, y = ring.x, ring.y
    claimed_im = [tuple(x * p for p in e[0]), tuple(y * p for p in e[0]),
                  tuple(x * p for p in e[1]), tuple(y * p for p in e[1])]
    claimed_im_sub = Submodule(triple, claimed_im)
    if not im1.contains_submodule(claimed_im_sub):
        failures.append("im(psi1) misses part of the first-slot square ideal")
    if not claimed_im_sub.contains_submodule(im1):
        failures.append("im(psi1) exceeds the first-slot square ideal")

    table: list[tuple[int, int, int, int, int]] = []
    quotient_ok = all(ker_sub.contains(c) for c in cols1)
    if not quotient_ok:
        failures.append("im(psi1) is not contained in ker(psi2); no quotient")
    else:
        quotient = subquotient(triple, ker2, cols1)
        for d in range(2, degree_bound + 1):
            # brute force in ambient coordinates: the degree-e slice of one
            # m*I slot has basis x^i y^j t with i + j = e - 1 >= 1.  This
            # count reads no presentation of (m*I)-tuples, so it stays apart
            # from presmod_dimension_by_enumeration, which counts the
            # presented quotient it is checked against.
            basis_d = [e + (1,) for e in monomials_of_degree(2, d - 1)]
            basis_prev = [e + (1,) for e in monomials_of_degree(2, d - 2)] if d >= 3 else []
            images2 = _psi_slice(psi2, 3, basis_d)
            dim_ker = len(images2) - matrix_rank(images2)
            dim_im = matrix_rank(_psi_slice(psi1, 2, basis_prev))
            via_pres = presmod_dimension_by_enumeration(quotient, d)
            expected = (2 if d == 2 else 0) + (d - 1)
            table.append((d, dim_ker, dim_im, via_pres, expected))
            if dim_ker - dim_im != expected or via_pres != expected:
                failures.append(
                    f"degree {d}: quotient dims {dim_ker - dim_im} (count) / "
                    f"{via_pres} (presentation), expected {expected}")

    return TableReport(not failures, failures, table)


# -- extension modules from a class vector and a multiplier -----------------


def _resolve_tau(ring: LocalDoubleRing, tau_data: TauData) -> tuple[Poly, Poly]:
    """Base-polynomial coordinates (coefficients of x*t and y*t) of a class
    representative given as a TauClass, an element of m*I in ``S``, or a
    pair of base polynomials."""
    if isinstance(tau_data, TauClass):
        return ring.base.const(tau_data.c_x), ring.base.const(tau_data.c_y)
    if isinstance(tau_data, Poly):
        return _split_m_tensor(ring, tau_data)
    return tau_data


def extension_module(ring: LocalDoubleRing, tau_data: TauData, rho: Poly) -> PresMod:
    """The module E extending the reduced maximal ideal by its twisted
    conormal part, presented on four generators (two covering the maximal
    ideal, two spanning the m*I part).  E is glued as ``build_extension``
    glues, with the maximal-ideal block first: the conormal part's relations
    sit in the last two slots, and each relation of the maximal ideal
    carries its image under tau and rho there.  So the projection onto the
    maximal ideal and the rest of exactness hold by construction
    (``check_inclusion``), and the inclusion of the conormal part is checked
    injective on every call."""
    tr = ring.trunc
    tau_a, tau_b = _resolve_tau(ring, tau_data)
    S = ring.S
    zero = S.zero()
    x, y, t = ring.x, ring.y, ring.t
    rels: list[Column] = [
        (y, -x, tr.inject(tau_a), tr.inject(tau_b)),
        (t, zero, tr.inject(rho), zero),
        (zero, t, zero, tr.inject(rho)),
        (zero, zero, y, -x),
        (zero, zero, t, zero),
        (zero, zero, zero, t),
    ]
    E = graded_or_plain(tr, 4, rels, Grading((1, 1, 2, 2), 1))
    conormal = PresMod(tr, 2, [(y, -x), (t, zero), (zero, t)], Grading((2, 2), 1))
    check_inclusion(E, 2, conormal, DoublePointError)
    return E


def is_balanced_extension(ring: LocalDoubleRing, M: PresMod, rho: Poly) -> bool:
    """Whether ``M``, the module of ``extension_module(ring, tau, rho)`` for
    some class tau, is balanced at the origin: true exactly when rho does
    not vanish there.

    Two independent cross-checks run on every call.  The annihilator gap
    ann(t)/tM is computed by syzygies and tested for local vanishing, which
    must reproduce the formula verdict; at n = 2, tM lies in ann(t), so the
    generators of ann(t) alone generate the gap.  The balance test on the
    presented module sees the whole plane, where the gap is the maximal
    ideal modulo rho times it, zero exactly for nonzero constant rho; that
    verdict is checked too, and it coincides with the local one whenever
    rho is constant or vanishes at the origin."""
    primary = rho.constant_term() != 0

    ann_t = annihilator_kernel(M, 1)
    t_gens = [M.gen_column(j, ring.t) for j in range(M.ngens)]
    gap = subquotient(M, ann_t, t_gens)
    agree(DoublePointError, "is the extension balanced at the origin",
          formula=primary, local_test=vanishes_locally(gap))

    rho_constant = all(sum(e) == 0 for e in rho.terms)
    agree(DoublePointError, "is the extension balanced on the whole plane",
          formula=primary and rho_constant, module_test=is_balanced(M).balanced)
    return primary


def recover_ideal(ring: LocalDoubleRing, tau_data: TauData) -> PointIdeal:
    """The point ideal whose class is the given one: constant
    representatives a = -c_y, b = c_x, verified by recomputing the class."""
    tau_a, tau_b = _resolve_tau(ring, tau_data)
    c_x = tau_a.constant_term()
    c_y = tau_b.constant_term()
    J = PointIdeal(ring, ring.base.const(-c_y), ring.base.const(c_x))
    agree(DoublePointError, "class of the recovered ideal",
          requested=(c_x, c_y), recomputed=tau(J).as_pair())
    return J
