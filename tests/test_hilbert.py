"""Hilbert series, Hilbert polynomials, and the reduced polynomial computed
through t-power filtrations."""

from fractions import Fraction

import pytest

from module_oracles import assert_filtration, filtration_layer_sum
from truncmod.arith import PolyRing, agree
from truncmod.multiring import TruncRing
from truncmod.groebner import SpanGB, vec_from_polys
from truncmod.fpmod import (
    Grading,
    PresMod,
    Submodule,
    free_module,
    subquotient,
    truncated_free,
)
from truncmod.hilbert import (
    HilbertError,
    HilbertPolynomial,
    HilbertSeries,
    hilbert_polynomial,
    dimension_by_enumeration,
    hilbert_series_presmod,
    module_series,
    monomials_of_degree,
    polynomial_from_series,
    presmod_dimension_by_enumeration,
    rank_degree_reduced,
    reduced_hilbert_polynomial,
)
from truncmod.regseq import ideal_presentation


def plane(n=1):
    return TruncRing(("x0", "x1", "x2"), n)


def F(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


# --------------------------------------------------------------------- series


def test_series_of_polynomial_plane():
    tr = TruncRing(("x", "y"), 1)
    hs = hilbert_series_presmod(free_module(tr, 1))
    assert hs.dimensions(5) == [1, 2, 3, 4, 5, 6]


def test_series_of_coordinate_hyperplane_quotient():
    tr = TruncRing(("x", "y"), 1)
    Q = PresMod(tr, 1, [(tr.S.parse("x"),)], grading=Grading((0,), 1))
    assert hilbert_series_presmod(Q).dimensions(4) == [1, 1, 1, 1, 1]


def test_series_of_fat_point_quotient():
    tr = TruncRing(("x", "y"), 1)
    S = tr.S
    Q = PresMod(
        tr,
        1,
        [(S.parse("x^2"),), (S.parse("x*y"),), (S.parse("y^2"),)],
        grading=Grading((0,), 1),
    )
    assert hilbert_series_presmod(Q).dimensions(4) == [1, 2, 0, 0, 0]


def ideal_series(ring, gens):
    """Series of ring/(gens) under the standard grading."""
    return module_series(SpanGB(ring, 1, [vec_from_polys((g,)) for g in gens]), (0,))


def test_quotient_ring_series_helper():
    R = TruncRing(("x", "y"), 1).base
    assert ideal_series(R, []).dimensions(4) == [1, 2, 3, 4, 5]
    assert ideal_series(R, [R.parse("x")]).dimensions(4) == [1, 1, 1, 1, 1]
    fat = [R.parse(s) for s in ("x^2", "x*y", "y^2")]
    assert ideal_series(R, fat).dimensions(4) == [1, 2, 0, 0, 0]


def test_series_match_enumeration():
    tr = TruncRing(("x", "y"), 2)
    M = ideal_presentation(tr, [tr.parse("x^2"), tr.parse("y^2"), tr.parse("x*y")])
    hs = hilbert_series_presmod(M)
    assert hs.dimensions(6) == [0, 0, 3, 7, 9, 11, 13]
    for d in range(7):
        assert hs.dimension(d) == presmod_dimension_by_enumeration(M, d)


# columns homogeneous under every t-weight once degree 1 = degree 0 + 1
ANY_WEIGHT = [("x*y", "x"), ("t*x^2", "t*y"), ("t^2", "0")]


@pytest.mark.parametrize("n, t_weight, degrees, relations", [
    (3, 1, (0, 1), [("x*y", "t"), ("t^2", "x")]),
    (3, 2, (0, 1), [("x*y + t", "x"), ("t*x", "y^2")]),
    # the free R[2]: both series have a numerator term of degree -1
    (2, 1, (-1,), []),
    (2, -1, (0,), []),
    *[(3, w, (d, d + 1), ANY_WEIGHT) for w in (0, -1, 1, 2) for d in (-2, 0, 1)],
])
def test_enumeration_over_the_base_matches_series(n, t_weight, degrees, relations):
    # at t-weight 1 the series reads leads over Q[x, y, t], at any other
    # t-weight it restricts to Q[x, y]; the count always restricts
    tr = TruncRing(("x", "y"), n)
    M = PresMod(tr, len(degrees), [tuple(tr.S.parse(p) for p in col) for col in relations],
                grading=Grading(degrees, t_weight))
    hs = hilbert_series_presmod(M)
    counts = [presmod_dimension_by_enumeration(M, d) for d in range(-5, 8)]
    assert [hs.dimension(d) for d in range(-5, 8)] == counts
    assert hs.dimensions(7) == counts[5:]


def test_series_and_polynomial_text():
    # agree names every route of a disagreement and writes what each
    # answered: a series or a polynomial by its exact dataclass form
    tr = TruncRing(("x", "y"), 2)
    S = tr.S
    quotient = PresMod(tr, 1, [(S.parse("x^2"),), (S.parse("x*y"),)],
                       grading=Grading((0,), 1))
    whole = hilbert_series_presmod(free_module(tr, 1))
    part = hilbert_series_presmod(quotient)
    assert whole == HilbertSeries(((0, 1), (2, -1)), 3)
    assert part == HilbertSeries(((0, 1), (2, -3), (3, 1), (4, 2), (5, -1)), 3)
    with pytest.raises(HilbertError) as series_error:
        agree(HilbertError, "series", whole=whole, quotient=part)
    message = str(series_error.value)
    assert "whole=" in message and "quotient=" in message
    assert str(whole.numerator_coeffs) in message
    assert str(part.numerator_coeffs) in message

    half = HilbertPolynomial.make([Fraction(-1), Fraction(0), Fraction(1, 2)])
    with pytest.raises(HilbertError) as polynomial_error:
        agree(HilbertError, "polynomial", half=half, zero=HilbertPolynomial.make([]))
    message = str(polynomial_error.value)
    assert "half=" in message and "zero=" in message
    assert str(half.coeffs) in message

    shifted = hilbert_series_presmod(free_module(tr, 1, gen_degrees=(-1,)))
    assert shifted == HilbertSeries(((-1, 1), (1, -1)), 3)
    line = PolyRing(("x",))
    assert ideal_series(line, []) == HilbertSeries(((0, 1),), 1)
    assert ideal_series(line, [line.parse("1")]) == HilbertSeries((), 1)


def test_series_at_other_t_weights_are_over_the_base_ring():
    # restricted to Q[x, y]: R[2] is two copies of it, in degrees 0 and 2
    tr = TruncRing(("x", "y"), 2)
    doubled = hilbert_series_presmod(free_module(tr, 1, t_weight=2))
    assert (doubled.numerator_coeffs, doubled.nvars) == (((0, 1), (2, 1)), 2)
    flat = hilbert_series_presmod(free_module(tr, 1, t_weight=0))
    assert (flat.numerator_coeffs, flat.nvars) == (((0, 2),), 2)


# ---------------------------------------------------------------- polynomials


def test_hilbert_polynomial_of_plane():
    hp = hilbert_polynomial(free_module(plane(), 1))
    assert hp.coeffs == F(1, "3/2", "1/2")
    assert [hp.evaluate(d) for d in range(5)] == [1, 3, 6, 10, 15]


def test_hilbert_polynomial_of_twisted_plane():
    hp = hilbert_polynomial(free_module(plane(), 1, gen_degrees=(1,)))
    assert hp.coeffs == F(0, "1/2", "1/2")


def test_hilbert_polynomial_of_point_ideal_sheaf():
    tr = plane()
    I = ideal_presentation(tr, [tr.parse("x0"), tr.parse("x1")])
    hp = hilbert_polynomial(I)
    assert hp.coeffs == F(0, "3/2", "1/2")
    assert [hp.evaluate(d) for d in range(4)] == [0, 2, 5, 9]


def test_polynomial_degree_and_evaluation():
    hp = HilbertPolynomial.make([Fraction(1), Fraction(2), Fraction(1)])
    assert hp.degree() == 2
    assert hp.evaluate(3) == 16
    assert HilbertPolynomial.make([]).degree() == -1


def test_polynomial_from_series_agrees_for_large_degrees():
    tr = plane()
    I = ideal_presentation(tr, [tr.parse("x0"), tr.parse("x1")])
    hs = hilbert_series_presmod(I)
    hp = polynomial_from_series(hs)
    for d in range(4, 9):
        assert hp.evaluate(d) == hs.dimension(d)


# ---------------------------------------------------------- reduced polynomial


def test_reduced_polynomial_of_double_structure_sheaf():
    hp = reduced_hilbert_polynomial(free_module(plane(2), 1))
    assert hp.coeffs == F(1, 2, 1)


def test_reduced_polynomial_of_zero_module():
    Z = PresMod(plane(2), 0, [], grading=Grading((), 1))
    assert reduced_hilbert_polynomial(Z).coeffs == ()


def test_reduced_polynomial_additivity_on_t_sequence():
    tr = plane(2)
    S2 = free_module(tr, 1)
    t_part = subquotient(S2, [(tr.S.parse("t"),)], [])
    reduced_part = PresMod(tr, 1, [(tr.S.parse("t"),)], grading=Grading((0,), 1))
    total = reduced_hilbert_polynomial(S2)
    left = reduced_hilbert_polynomial(t_part)
    right = reduced_hilbert_polynomial(reduced_part)
    assert left.coeffs == F(0, "1/2", "1/2")
    assert right.coeffs == F(1, "3/2", "1/2")
    width = max(len(total.coeffs), len(left.coeffs), len(right.coeffs))

    def pad(p):
        return list(p.coeffs) + [Fraction(0)] * (width - len(p.coeffs))

    assert pad(total) == [a + b for a, b in zip(pad(left), pad(right))]


def test_reduced_polynomial_accepts_explicit_filtration():
    tr = plane(2)
    S2 = free_module(tr, 1)
    full = Submodule(S2, [S2.gen_column(0)])
    middle = Submodule(S2, [(tr.S.parse("t"),)])
    zero = Submodule(S2, [])
    chain = [full, middle, zero]
    assert_filtration(S2, chain)
    assert filtration_layer_sum(S2, chain) == reduced_hilbert_polynomial(S2)
    assert reduced_hilbert_polynomial(S2).coeffs == F(1, 2, 1)


def test_reduced_polynomial_rejects_coarse_filtration():
    tr = plane(2)
    S2 = free_module(tr, 1)
    full = Submodule(S2, [S2.gen_column(0)])
    zero = Submodule(S2, [])
    chain = [full, zero]
    assert_filtration(S2, chain)
    # the single quotient is the whole module, on which t acts nontrivially
    with pytest.raises(HilbertError):
        filtration_layer_sum(S2, chain)


def test_reduced_polynomial_with_trivial_t_weight_matches_plain():
    tr = TruncRing(("x0", "x1", "x2"), 2)
    M = free_module(tr, 1, t_weight=0)
    hp = reduced_hilbert_polynomial(M)
    plain = hilbert_polynomial(free_module(plane(), 2))
    assert hp.coeffs == plain.coeffs


# ------------------------------------------------------------- rank and degree


def test_rank_of_double_structure_sheaf():
    rd = rank_degree_reduced(reduced_hilbert_polynomial(free_module(plane(2), 1)))
    assert rd.support_dimension == 2
    assert rd.rank_coefficient == 2


def test_rank_of_plane_is_one():
    rd = rank_degree_reduced(reduced_hilbert_polynomial(free_module(plane(), 1)))
    assert rd.support_dimension == 2
    assert rd.rank_coefficient == 1
    assert rd.degree_coefficient == Fraction(3, 2)


def test_rank_of_finite_length_module_is_zero():
    tr = plane()
    S = tr.S
    fin = PresMod(
        tr,
        1,
        [(S.parse("x0"),), (S.parse("x1"),), (S.parse("x2"),)],
        grading=Grading((0,), 1),
    )
    rd = rank_degree_reduced(reduced_hilbert_polynomial(fin))
    assert rd.support_dimension == -1
    assert rd.rank_coefficient == 0


# ------------------------------------------------------------------ enumeration


def test_weighted_monomial_enumeration():
    assert monomials_of_degree(2, 3) == [
        (0, 3),
        (1, 2),
        (2, 1),
        (3, 0),
    ]


def test_monomial_order_and_edge_cases():
    # first exponent ascending, the rest in the same order recursively
    assert monomials_of_degree(3, 2) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 2) == []
    assert monomials_of_degree(1, 0) == [(0,)]
    assert monomials_of_degree(1, 4) == [(4,)]
    for nvars in range(4):
        assert monomials_of_degree(nvars, -1) == []


def test_dimension_by_enumeration_counts_and_needs_homogeneous_columns():
    R = PolyRing(("x", "y"))
    one = Fraction(1)
    # (R ⊕ R(-1)) / (x e_0) in degree 2: 3 + 2 monomials, x^2 e_0 and x*y e_0 vanish
    assert dimension_by_enumeration(R, [{(0, (1, 0)): one}], (0, 1), 2) == 3
    # the empty column and a degree with no monomials
    assert dimension_by_enumeration(R, [{}], (0,), 2) == 3
    assert dimension_by_enumeration(R, [{(0, (1, 0)): one}], (0,), -1) == 0
    # x + 1 is not homogeneous
    with pytest.raises(HilbertError, match="homogeneous columns"):
        dimension_by_enumeration(R, [{(0, (1, 0)): one, (0, (0, 0)): one}], (0,), 2)


def test_enumeration_of_graded_free_module():
    tr = plane(2)
    assert presmod_dimension_by_enumeration(free_module(tr, 1), 3) == 16


def test_series_requires_grading():
    tr = TruncRing(("x", "y"), 2)
    M = PresMod(tr, 1, [(tr.S.parse("x + t"),)])
    with pytest.raises(HilbertError):
        hilbert_series_presmod(M)
