"""Graded dimension counting for modules over Q[x..][t]/(t^n).

Every variable weighs 1 in a series: a Hilbert series is stored exactly as a
numerator Laurent polynomial in z over (1 - z)^v, v the number of ambient
variables.  Numerators come from lead-term modules of a Groebner basis
through the standard divide-and-conquer recursion on monomial ideals.  A
module whose t-weight is 1 is counted directly over Q[x.., t]; for any other
t-weight (``fpmod.Grading`` holds it) the module is first restricted to the
base ring, one generator copy per t-power.  Polynomial extraction (dimension
as a polynomial in the degree) is exact over the rationals.  A series or a
polynomial has no text form: ``arith.agree`` writes one by its exact
dataclass repr.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial

from .arith import ArithError, Exponents, PolyRing, agree, matrix_rank, mono_mul
from .groebner import SpanGB, VecT, vec_from_polys
from . import fpmod


class HilbertError(ArithError):
    """Raised for ungraded or inhomogeneous input and disagreeing counts."""


# -- series ---------------------------------------------------------------


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / (1 - z)^nvars with integer numerator coefficients."""

    numerator_coeffs: tuple[tuple[int, int], ...]   # sorted (degree, coeff)
    nvars: int

    @staticmethod
    def make(num: dict[int, int], nvars: int) -> HilbertSeries:
        return HilbertSeries(tuple(sorted((d, c) for d, c in num.items() if c)), nvars)

    def __sub__(self, other: HilbertSeries) -> HilbertSeries:
        """The difference of two series over the same (1 - z)^nvars."""
        num = dict(self.numerator_coeffs)
        for d, c in other.numerator_coeffs:
            num[d] = num.get(d, 0) - c
        return HilbertSeries.make(num, self.nvars)

    def _expand(self, up_to: int) -> tuple[int, list[int]]:
        """(low, dims): dims[k] is the dimension in degree low + k, through
        degree up_to, where low is the lowest numerator degree or 0."""
        low = min([0] + [d for d, _ in self.numerator_coeffs])
        dims = [0] * max(up_to + 1 - low, 0)
        for d, c in self.numerator_coeffs:
            if d <= up_to:
                dims[d - low] += c
        for _ in range(self.nvars):
            dims = list(accumulate(dims))
        return low, dims

    def dimensions(self, up_to: int) -> list[int]:
        """The dimensions in degrees 0 .. up_to."""
        low, dims = self._expand(up_to)
        return dims[-low:]

    def dimension(self, d: int) -> int:
        low, dims = self._expand(d)
        return dims[d - low] if d >= low else 0


def _interreduce_monomials(gens: list[Exponents]) -> list[Exponents]:
    out: list[Exponents] = []
    for e in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(all(a <= b for a, b in zip(f, e)) for f in out):
            out.append(e)
    return out


def monomial_quotient_numerator(gens: list[Exponents], memo: dict) -> dict[int, int]:
    """Numerator of the series of S/(monomial ideal), by recursion on one
    generator at a time: N(I) = N(I - m) - z^deg(m) * N((I - m) : m).
    ``memo`` holds the numerators already found, by interreduced generators."""
    gens = _interreduce_monomials(gens)
    key = tuple(gens)
    if key in memo:
        return dict(memo[key])
    if not gens:
        result: dict[int, int] = {0: 1}
    elif any(sum(e) == 0 for e in gens):
        result = {}
    elif len(gens) == 1:
        result = {0: 1, sum(gens[0]): -1}
    else:
        m = gens[-1]
        rest = gens[:-1]
        a = monomial_quotient_numerator(rest, memo)
        colon = [tuple(max(x - y, 0) for x, y in zip(e, m)) for e in rest]
        b = monomial_quotient_numerator(colon, memo)
        dm = sum(m)
        result = dict(a)
        for d, c in b.items():
            result[d + dm] = result.get(d + dm, 0) - c
        result = {d: c for d, c in result.items() if c}
    memo[key] = dict(result)
    return result


def module_series(span: SpanGB, gen_degrees: tuple[int, ...]) -> HilbertSeries:
    """Series of ring^rank (with generator degree shifts) modulo the span."""
    leads_by_pos: dict[int, list[Exponents]] = {j: [] for j in range(span.rank)}
    for pos, exps in span.gb_leads:
        leads_by_pos[pos].append(exps)
    num: dict[int, int] = {}
    memo: dict = {}
    for j in range(span.rank):
        kj = monomial_quotient_numerator(leads_by_pos[j], memo)
        for d, c in kj.items():
            dd = d + gen_degrees[j]
            num[dd] = num.get(dd, 0) + c
    return HilbertSeries.make(num, span.ring.nvars)


def hilbert_series_presmod(M) -> HilbertSeries:
    """Series of a graded module over R[n]: directly over S when t weighs
    1, through restriction to the base ring for any other t-weight."""
    if M.grading is None:
        raise HilbertError("hilbert series needs grading data")
    if M.grading.t_weight == 1:
        return module_series(M.zero_submodule().span(), M.grading.gen_degrees)
    base_ring, rank, cols, degrees = restricted_base_data(M)
    return module_series(SpanGB(base_ring, rank, cols), degrees)


def restricted_base_data(M) -> tuple[PolyRing, int, list[VecT], tuple[int, ...]]:
    """M as a module over the base ring: one generator per (original
    generator, t-power) pair, each S-relation unfolded across t-powers
    (``fpmod.unfold`` at k = n)."""
    if M.grading is None:
        raise HilbertError("restriction of scalars needs grading data")
    n, g = M.ring.n, M.ngens
    w = M.grading.t_weight
    degrees = tuple(M.grading.gen_degrees[j] + k * w
                    for j in range(g) for k in range(n))
    return M.ring.base, g * n, fpmod.unfold(M, n), degrees


# -- polynomials ----------------------------------------------------------


@dataclass(frozen=True)
class HilbertPolynomial:
    """Exact polynomial in the degree variable, ascending coefficients."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: list[Fraction]) -> HilbertPolynomial:
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return HilbertPolynomial(tuple(coeffs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, d: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * d + c
        return acc

    def __add__(self, other: HilbertPolynomial) -> HilbertPolynomial:
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return HilbertPolynomial.make(out)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def polynomial_from_series(hs: HilbertSeries) -> HilbertPolynomial:
    """The eventual dimension polynomial of a series: for numerator
    sum a_j z^j over (1-z)^v this is sum a_j * binom(d - j + v - 1, v - 1),
    exact for d >= max j."""
    v = hs.nvars
    k = v - 1
    total = [Fraction(0)] * max(k + 1, 1)
    for j, c in hs.numerator_coeffs:
        # binom(d - j + v - 1, k) as a polynomial in d
        term = [Fraction(1)]
        for s in range(k):
            term = _poly_mul(term, [Fraction(v - 1 - j - s), Fraction(1)])
        scale = Fraction(c, factorial(k))
        for i, x in enumerate(term):
            total[i] += scale * x
    return HilbertPolynomial.make(total)


def hilbert_polynomial(M) -> HilbertPolynomial:
    """Dimension-in-degree polynomial of a graded module, through restriction
    of scalars to the base ring (valid for every t-weight, negative ones too).

    The extracted polynomial is checked against brute-force dimension counts
    at three degrees past the point where the series becomes polynomial."""
    base_ring, rank, cols, degrees = restricted_base_data(M)
    hs = module_series(SpanGB(base_ring, rank, cols), degrees)
    poly = polynomial_from_series(hs)
    start = max([j for j, _ in hs.numerator_coeffs] + [0])
    for d in range(start, start + 3):
        agree(HilbertError, f"dimension in degree {d}",
              series_polynomial=poly.evaluate(d),
              direct_count=dimension_by_enumeration(base_ring, cols, degrees, d))
    return poly


def layer_base_series(G) -> HilbertSeries:
    """Series of a t-annihilated graded layer as a base-ring module: its
    relations with t killed (``fpmod.base_relation_matrix``), counted over
    Q[x..] alone."""
    if G.grading is None:
        raise HilbertError("layer series needs grading data")
    base = G.ring.base
    cols = [vec_from_polys(col) for col in zip(*fpmod.base_relation_matrix(G))]
    return module_series(SpanGB(base, G.ngens, cols), G.grading.gen_degrees)


def _layer_sum(layers) -> HilbertPolynomial:
    """Sum of the base-ring polynomials of t-annihilated graded layers."""
    total = HilbertPolynomial.make([])
    for layer in layers:
        total = total + polynomial_from_series(layer_base_series(layer))
    return total


def reduced_hilbert_polynomial(M) -> HilbertPolynomial:
    """Hilbert polynomial through the t-power layer decomposition: the sum of
    the base-ring polynomials of the image-filtration layers.  The
    annihilator-filtration layers and the direct restriction of scalars
    must give the same answer."""
    if M.grading is None:
        raise HilbertError("reduced hilbert polynomial needs grading data")
    return agree(
        HilbertError, "reduced hilbert polynomial",
        image_layers=_layer_sum(
            fpmod.layer_quotients(M, fpmod.first_canonical_filtration(M))),
        annihilator_layers=_layer_sum(
            fpmod.layer_quotients(M, fpmod.second_canonical_filtration(M))),
        restriction=hilbert_polynomial(M))


@dataclass(frozen=True)
class ReducedRankDegree:
    support_dimension: int
    rank_coefficient: Fraction      # leading coefficient times m!
    degree_coefficient: Fraction    # next coefficient times (m-1)!


def rank_degree_reduced(p: HilbertPolynomial) -> ReducedRankDegree:
    """Support dimension, rank and degree coefficients read off a reduced
    Hilbert polynomial."""
    m = p.degree()
    if m < 0:
        return ReducedRankDegree(-1, Fraction(0), Fraction(0))
    lead = p.coeffs[m] * factorial(m)
    sub = p.coeffs[m - 1] * factorial(m - 1) if m >= 1 else Fraction(0)
    return ReducedRankDegree(m, lead, sub)


# -- brute-force dimension counts (independent of the series machinery) ----


def monomials_of_degree(nvars: int, d: int) -> list[Exponents]:
    """Exponent tuples of total degree ``d`` in ``nvars`` variables, first
    exponent ascending, then the rest in the same order recursively."""
    if nvars == 0:
        return [()] if d == 0 else []
    return [(e,) + rest for e in range(d + 1)
            for rest in monomials_of_degree(nvars - 1, d - e)]


def dimension_by_enumeration(ring: PolyRing, columns: list[VecT],
                             gen_degrees: tuple[int, ...], d: int) -> int:
    """Dimension of the degree-d part of ring^rank (shifted) / span(columns),
    where rank is ``len(gen_degrees)``: the count of target monomials less
    the rank of the columns' degree-d multiples.  Columns must be
    homogeneous."""
    count = sum(len(monomials_of_degree(ring.nvars, d - g)) for g in gen_degrees)
    images: list[dict] = []
    for col in columns:
        if not col:
            continue
        degs = {sum(e) + gen_degrees[pos] for (pos, e) in col}
        if len(degs) != 1:
            raise HilbertError("brute-force count needs homogeneous columns")
        for m in monomials_of_degree(ring.nvars, d - degs.pop()):
            images.append({(pos, mono_mul(e, m)): c for (pos, e), c in col.items()})
    return count - matrix_rank(images)


def presmod_dimension_by_enumeration(M, d: int) -> int:
    """Brute-force graded dimension of a PresMod at degree d, counted over
    the base ring through restriction of scalars for every t-weight."""
    if M.grading is None:
        raise HilbertError("dimension count needs grading data")
    base_ring, _rank, cols, degrees = restricted_base_data(M)
    return dimension_by_enumeration(base_ring, cols, degrees, d)
