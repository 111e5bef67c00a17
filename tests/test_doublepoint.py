"""Ideals of embedded double points on a doubled plane, their invariants,
chart changes, the homological checks, and extension modules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from module_oracles import ModMap, assert_exact, extension_maps
from truncmod.arith import ArithError
from truncmod.doublepoint import (
    ChartChange,
    DoublePointError,
    LocalDoubleRing,
    PointIdeal,
    TauClass,
    affine_difference,
    change_chart,
    ext_complex_check,
    extension_module,
    ideals_equal,
    is_balanced_extension,
    lambda_coord,
    recover_ideal,
    tau,
    verify_maximal_ideal_resolution,
)
from truncmod.fpmod import Grading, PresMod, Submodule, free_module, is_balanced
from truncmod.groebner import SpanGB, vec_from_polys
from truncmod.hilbert import monomials_of_degree
from truncmod.regseq import ideal_presentation, is_regular_sequence


def the_ring():
    return LocalDoubleRing()


def point_ideal(ring, a, b):
    """The point ideal (x + a*t, y + b*t), a and b given as text."""
    return PointIdeal(ring, ring.base.parse(a), ring.base.parse(b))


def chart(ring, alpha="1", beta="0", gamma="0", delta="1", u="0", v="0"):
    """A chart change with its entries given as text."""
    return ChartChange(*(ring.base.parse(p) for p in (alpha, beta, gamma, delta, u, v)))


# ----------------------------------------------------------------- invariants


def test_tau_examples():
    ring = the_ring()
    assert tau(point_ideal(ring, "0", "0")).as_pair() == (0, 0)
    assert tau(point_ideal(ring, "1", "0")).as_pair() == (0, -1)
    assert tau(point_ideal(ring, "y^2", "0")).as_pair() == (0, 0)
    assert tau(point_ideal(ring, "0", "1")).as_pair() == (1, 0)


def test_tau_ignores_higher_order_representatives():
    ring = the_ring()
    rng = random.Random(31)
    pool = ["x", "y", "x*y", "x^2", "y^2", "x - y"]
    for _ in range(6):
        a0, b0 = rng.randrange(-3, 4), rng.randrange(-3, 4)
        h = rng.choice(pool)
        k = rng.choice(pool)
        J = point_ideal(ring, str(a0), str(b0))
        Jp = point_ideal(ring, f"{a0} + {h}", f"{b0} + {k}")
        assert tau(J).as_pair() == tau(Jp).as_pair()
        assert ideals_equal(J, Jp)


def test_ideal_equality_examples():
    ring = the_ring()
    J0 = point_ideal(ring, "0", "0")
    J1 = point_ideal(ring, "1", "0")
    J2 = point_ideal(ring, "y^2", "0")
    assert not ideals_equal(J1, J0)
    assert ideals_equal(J2, J0)
    assert ideals_equal(J1, J1)


# higher terms of a or b: monomials of degree 1 to 3 with small coefficients
HIGHER = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 1 <= sum(e) <= 3),
    st.integers(-2, 2).filter(bool), max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.tuples(st.sampled_from([0, 0, 0, 1, -1]), st.sampled_from([0, 0, 0, 1, -1])),
       HIGHER, HIGHER, HIGHER, HIGHER)
def test_ideal_equality_matches_the_spans_with_jets_adjoined(
        constants, shifts, ja, jb, ka, kb):
    """The verdict on the two generators equals that of both spans with
    every base monomial of degree 6 adjoined: the jets lie in every point
    ideal.  Most pairs share their constants and differ in higher terms;
    the rest differ in one constant or both."""
    ring = the_ring()
    B, S = ring.base, ring.S

    def ideal(a0, b0, a_high, b_high):
        return PointIdeal(ring, B.from_terms({**a_high, (0, 0): a0}),
                          B.from_terms({**b_high, (0, 0): b0}))

    (a0, b0), (da, db) = constants, shifts
    J = ideal(a0, b0, ja, jb)
    K = ideal(a0 + da, b0 + db, ka, kb)
    F = free_module(ring.trunc, 1)
    jets = [(S.from_terms({(i, j, 0): 1}),) for i, j in monomials_of_degree(2, 6)]
    with_jets = [Submodule(F, [(I.gen_x,), (I.gen_y,)] + jets) for I in (J, K)]
    assert ideals_equal(J, K) == with_jets[0].equals(with_jets[1])


def test_point_ideal_contains_square_of_maximal_ideal():
    ring = the_ring()
    S = ring.S
    J = point_ideal(ring, "3", "y")
    ideal = Submodule(free_module(ring.trunc, 1), [(J.gen_x,), (J.gen_y,)])
    for text in ("x^2", "x*y", "y^2", "x*t", "y*t", "t^2"):
        assert ideal.contains((S.parse(text),))
    assert not ideal.contains((S.parse("1"),))
    assert not ideal.contains((S.parse("t"),))


def test_point_ideal_rejects_t_in_coefficients():
    # the twist coefficients live in the base plane ring, which has no t
    ring = the_ring()
    with pytest.raises(ArithError):
        point_ideal(ring, "t", "0")
    with pytest.raises(ArithError):
        PointIdeal(ring, ring.t, ring.base.parse("0"))


def test_quotient_by_point_ideal_has_rank_two():
    ring = the_ring()
    S = ring.S
    for a, b in (("0", "0"), ("1", "0"), ("2", "y"), ("1 + x", "y^2")):
        J = point_ideal(ring, a, b)
        span = SpanGB(
            S, 1, [vec_from_polys((J.gen_x,)), vec_from_polys((J.gen_y,)),
                   # t^2 is no product in R[2], so it enters as a term
                   vec_from_polys((S.from_terms({(0, 0, 2): 1}),))]
        )
        seen = set()
        for i in range(4):
            for j in range(4 - i):
                for k in range(2):
                    mono = S.parse("x") ** i * S.parse("y") ** j * S.parse("t") ** k
                    nf = span.normal_form(vec_from_polys((mono,)))
                    # every residue lives in the plane spanned by 1 and t
                    assert all(
                        exps in ((0, 0, 0), (0, 0, 1)) for (_, exps) in nf
                    )
                    seen.update(exps for (_, exps) in nf)
        assert seen == {(0, 0, 0), (0, 0, 1)}


def test_point_ideals_are_balanced_modules():
    ring = the_ring()
    tr = ring.trunc
    for a, b in (("0", "0"), ("1", "0"), ("y", "x")):
        seq = [tr.parse(f"x + ({a})*t"), tr.parse(f"y + ({b})*t")]
        assert is_regular_sequence(tr, seq).regular
        assert is_balanced(ideal_presentation(tr, seq)).balanced


# ----------------------------------------------------------- the coordinate map


def test_lambda_examples_and_roundtrip():
    ring = the_ring()
    assert lambda_coord(point_ideal(ring, "0", "0")).coords == (0, 0)
    assert lambda_coord(point_ideal(ring, "1", "0")).coords == (-1, 0)
    # constant representatives a = -lambda_x, b = -lambda_y give back the
    # requested coordinates
    for coords in (("-1", "0"), ("2", "5"), ("0", "-3")):
        expected = tuple(Fraction(c) for c in coords)
        J = PointIdeal(ring, *(ring.base.const(-c) for c in expected))
        assert lambda_coord(J).coords == expected


def test_lambda_separates_ideals():
    ring = the_ring()
    seen = {}
    for a in ("-1", "0", "2"):
        for b in ("0", "1"):
            J = point_ideal(ring, a, b)
            coords = lambda_coord(J).coords
            for other, prev in seen.items():
                assert (coords == prev) == ideals_equal(J, other)
            seen[J] = coords


# --------------------------------------------------------------- chart changes


def test_identity_chart_is_neutral():
    ring = the_ring()
    J = point_ideal(ring, "4", "-7")
    ch = chart(ring)
    assert change_chart(J, ch).coords == lambda_coord(J).coords


def test_swap_chart_swaps_and_negates():
    ring = the_ring()
    J = point_ideal(ring, "1", "0")
    sw = chart(ring, alpha="0", beta="1", gamma="1", delta="0")
    assert change_chart(J, sw).coords == (0, -1)


def test_general_linear_chart_frozen_value():
    ring = the_ring()
    J = point_ideal(ring, "5", "11")
    ch = chart(ring, alpha="1", beta="2", gamma="3", delta="7")
    assert change_chart(J, ch).coords == (-27, -92)


def test_chart_with_shift_terms_agrees_both_routes():
    # the direct recomputation and the transformation law are compared
    # inside change_chart; a disagreement raises
    ring = the_ring()
    J = point_ideal(ring, "2", "-1")
    ch = chart(ring, alpha="1", beta="0", gamma="1", delta="1", u="x", v="y")
    coords = change_chart(J, ch).coords
    assert all(isinstance(c, Fraction) for c in coords)


def test_singular_chart_rejected():
    ring = the_ring()
    J = point_ideal(ring, "1", "0")
    ch = chart(ring, alpha="1", beta="2", gamma="2", delta="4")
    with pytest.raises(DoublePointError):
        change_chart(J, ch)


def test_nonvanishing_shift_rejected():
    ring = the_ring()
    J = point_ideal(ring, "1", "0")
    ch = chart(ring, u="1")
    with pytest.raises(DoublePointError):
        change_chart(J, ch)


def test_affine_difference_is_chart_independent():
    ring = the_ring()
    J1 = point_ideal(ring, "1", "0")
    J2 = point_ideal(ring, "0", "0")
    charts = (
        chart(ring, alpha="0", beta="1", gamma="1", delta="0"),
        chart(ring, alpha="1", beta="2", gamma="3", delta="7"),
        chart(ring, alpha="2", beta="0", gamma="0", delta="1", u="x", v="0"),
    )
    diff = affine_difference(J1, J2, charts=charts)
    assert diff == (-1, 0)


# ------------------------------------------------------- homological evidence


def test_maximal_ideal_resolution_table():
    ring = the_ring()
    rep = verify_maximal_ideal_resolution(ring, 4)
    assert rep.ok
    assert rep.failures == []
    assert rep.dimension_table == [
        (2, 3, 3, 0, 0),
        (3, 6, 6, 3, 3),
        (4, 9, 9, 6, 6),
    ]


def test_resolution_negative_control():
    ring = the_ring()
    P = ring.S.parse
    broken = [(P("y"), P("-x")), (P("t"), P("0")), (P("0"), P("x"))]
    rep = verify_maximal_ideal_resolution(ring, 3, phi1_cols=broken)
    assert not rep.ok
    assert rep.failures


def test_ext_complex_table():
    ring = the_ring()
    rep = ext_complex_check(ring, 4)
    assert rep.ok
    assert rep.failures == []
    assert rep.dimension_table == [
        (2, 3, 0, 3, 3),
        (3, 5, 3, 2, 2),
        (4, 7, 4, 3, 3),
    ]


def test_ext_complex_negative_control():
    ring = the_ring()
    P = ring.base.parse
    broken = [[P("y"), P("-x")], [P("0"), P("x")], [P("0"), P("0")]]
    rep = ext_complex_check(ring, 3, psi1=broken)
    assert not rep.ok
    assert rep.failures


# ----------------------------------------------------------- extension modules


def test_extension_module_exactness():
    ring = the_ring()
    tr, t, zero = ring.trunc, ring.t, ring.S.zero()
    E = extension_module(ring, TauClass(Fraction(1), Fraction(0)), ring.base.parse("-1"))
    # the conormal part and the maximal ideal share one presentation, on
    # generators of degree 2 and 1
    part_rels = [(ring.y, -ring.x), (t, zero), (zero, t)]
    conormal = PresMod(tr, 2, part_rels, Grading((2, 2), 1))
    maxideal = PresMod(tr, 2, part_rels, Grading((1, 1), 1))
    incl, proj = extension_maps(E, 2, conormal, maxideal)
    assert incl.is_injective()
    assert_exact(incl, proj)


def test_balance_of_extension_grid():
    ring = the_ring()
    grid = {
        "1": True,
        "-1": True,
        "2": True,
        "1 + x": True,
        "0": False,
        "x": False,
        "y^2": False,
    }
    for rho_text, expected in grid.items():
        rho = ring.base.parse(rho_text)
        for tau_pair in ((1, 0), (0, 0)):
            tau_class = TauClass(*map(Fraction, tau_pair))
            module = extension_module(ring, tau_class, rho)
            assert is_balanced_extension(ring, module, rho) == expected


def test_zero_multiplier_extension_is_t_annihilated():
    ring = the_ring()
    tau_class = TauClass(Fraction(1), Fraction(0))
    M = extension_module(ring, tau_class, ring.base.zero())
    assert M.is_t_annihilated()
    # contrast: a unit multiplier leaves t acting nontrivially
    assert not extension_module(ring, tau_class, ring.base.one()).is_t_annihilated()


def test_unit_multiplier_extension_matches_point_ideal():
    ring = the_ring()
    tr = ring.trunc
    S = ring.S
    for a_txt, b_txt in (("2", "3"), ("y", "x"), ("1 + x", "y^2")):
        a = ring.base.parse(a_txt)
        b = ring.base.parse(b_txt)
        J = PointIdeal(ring, a, b)
        M = extension_module(ring, (b, -a), ring.base.parse("-1"))
        F = free_module(tr, 1)
        x, y, t = S.parse("x"), S.parse("y"), S.parse("t")
        cols = [
            (x + tr.inject(a) * t,),
            (y + tr.inject(b) * t,),
            (x * t,),
            (y * t,),
        ]
        phi = ModMap(M, F, cols)
        assert phi.is_injective()
        assert phi.image_submodule().equals(
            Submodule(F, [(J.gen_x,), (J.gen_y,)])
        )


def test_recover_ideal_examples():
    ring = the_ring()
    B = ring.base
    rec = recover_ideal(ring, ring.trunc.parse("-y*t"))
    assert (B.format(rec.a), B.format(rec.b)) == ("1", "0")
    rec2 = recover_ideal(ring, ring.trunc.parse("x*t"))
    assert (B.format(rec2.a), B.format(rec2.b)) == ("0", "1")


def test_recover_inverts_tau():
    ring = the_ring()
    for a, b in (("0", "0"), ("1", "0"), ("-2", "5"), ("3", "3"), ("0", "-1")):
        J = point_ideal(ring, a, b)
        assert ideals_equal(recover_ideal(ring, tau(J)), J)


def test_tau_string_and_pair_inputs_agree():
    ring = the_ring()
    one = ring.base.one()
    via_string = extension_module(ring, ring.trunc.parse("-y*t"), one)
    via_pair = extension_module(ring, (ring.base.zero(), -one), one)
    assert via_string.relations == via_pair.relations
