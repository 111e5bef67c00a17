"""Module Groebner bases, normal forms, syzygies, and span calculus."""

import random

from truncmod.arith import PolyRing, lex
from truncmod.groebner import (
    SpanGB,
    is_groebner,
    kernel_through,
    module_order,
    quotient_by_poly,
    reduced_groebner,
    saturate_by_poly,
    spans_equal,
    vec_from_polys,
    vec_to_polys,
)


def vec(*polys):
    return vec_from_polys(polys)


def fmt_span(ring, rank, vecs):
    return sorted(
        tuple(ring.format(p) for p in vec_to_polys(ring, rank, v)) for v in vecs
    )


def test_lex_groebner_basis_of_plane_pair():
    R = PolyRing(("x", "y"), order=lex())
    x, y = R.gens()
    S = SpanGB(R, 1, [vec(x * x - 1), vec(x * y - 1)])
    assert fmt_span(R, 1, S.gb) == [("x - y",), ("y^2 - 1",)]


def test_normal_form_reduces_membership():
    R = PolyRing(("x", "y"), order=lex())
    x, y = R.gens()
    S = SpanGB(R, 1, [vec(x * x - 1), vec(x * y - 1)])
    assert vec_to_polys(R, 1, S.normal_form(vec(x * x)))[0] == R.one()
    assert S.contains(vec(x - y))
    assert not S.contains(vec(R.one()))


def test_normal_form_is_idempotent():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    S = SpanGB(R, 1, [vec(x * x), vec(x * y), vec(y * y * y)])
    rng = random.Random(3)
    for _ in range(20):
        exps = (rng.randrange(4), rng.randrange(4))
        v = vec(R.from_terms({exps: 1}) + rng.randrange(-3, 4))
        nf = S.normal_form(v)
        assert S.normal_form(nf) == nf


def test_normal_form_vanishes_on_combinations():
    R = PolyRing(("x", "y"), order=lex())
    x, y = R.gens()
    f1, f2 = x * x - 1, x * y - 1
    S = SpanGB(R, 1, [vec(f1), vec(f2)])
    rng = random.Random(11)
    for _ in range(12):
        h1 = R.from_terms({(rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)})
        h2 = R.from_terms({(rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)})
        assert S.contains(vec(h1 * f1 + h2 * f2))


def test_lift_expresses_members():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    S = SpanGB(R, 1, [vec(x * x), vec(x * y)])
    coeffs = S.lift(vec(x * x * y))
    assert coeffs is not None
    recon = coeffs[0] * (x * x) + coeffs[1] * (x * y)
    assert recon == x * x * y
    assert S.lift(vec(y)) is None


def test_syzygies_of_coordinate_pair():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    syz = SpanGB(R, 1, [vec(x), vec(y)]).syzygies()
    assert spans_equal(R, 2, syz, [vec(y, -x)])


def test_syzygies_of_single_nonzerodivisor_vanish():
    R = PolyRing(("x", "y"))
    x, _ = R.gens()
    assert SpanGB(R, 1, [vec(x)]).syzygies() == []


def test_syzygies_with_common_factor():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    syz = SpanGB(R, 1, [vec(x * x), vec(x * y)]).syzygies()
    assert spans_equal(R, 2, syz, [vec(y, -x)])


def test_syzygy_columns_annihilate_generators():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    gens = [x * x - y, x * y, y * y + 1]
    syz = SpanGB(R, 1, [vec(g) for g in gens]).syzygies()
    for v in syz:
        coeffs = vec_to_polys(R, 3, v)
        total = sum((c * g for c, g in zip(coeffs, gens)), R.zero())
        assert total.is_zero()


def test_ideal_quotient_examples():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    q = quotient_by_poly(R, 1, [vec(x * x), vec(x * y)], x)
    assert spans_equal(R, 1, q, [vec(x), vec(y)])
    # quotient of an ideal by a nonmember of its associated primes is itself
    q2 = quotient_by_poly(R, 1, [vec(x)], y)
    assert spans_equal(R, 1, q2, [vec(x)])


def test_saturation_examples():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    sat_x = saturate_by_poly(R, 1, [vec(x * x), vec(x * y)], x)
    assert spans_equal(R, 1, sat_x, [vec(R.one())])
    sat_y = saturate_by_poly(R, 1, [vec(x * x), vec(x * y)], y)
    assert spans_equal(R, 1, sat_y, [vec(x)])


def test_kernel_through_target_relations():
    R = PolyRing(("x", "y"))
    x, _ = R.gens()
    # kernel of R -> R/(x^2) given by multiplication with x
    ker = kernel_through(R, 1, [vec(x)], [vec(x * x)])
    assert spans_equal(R, 1, ker, [vec(x)])


def test_reduced_basis_is_canonical_under_permutation():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    gens = [vec(x * x - y), vec(x * y - 1), vec(y * y * y)]
    morder = module_order(R, 1)
    first = reduced_groebner(list(gens), morder)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        again = reduced_groebner(shuffled, morder)
        assert fmt_span(R, 1, again) == fmt_span(R, 1, first)
    assert is_groebner(first, morder)


def test_spans_equal_is_an_equivalence():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    a = [vec(x), vec(y)]
    b = [vec(x + y), vec(y)]
    c = [vec(x * x), vec(y)]
    assert spans_equal(R, 1, a, b)
    assert spans_equal(R, 1, b, a)
    assert not spans_equal(R, 1, a, c)


def test_lift_leaves_the_plain_basis_unbuilt():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    S = SpanGB(R, 1, [vec(x * x - y), vec(x * y)])
    assert "gb" not in S.__dict__
    coeffs = S.lift(vec(x * x * y))
    assert coeffs is not None and "gb" not in S.__dict__
    assert S.syzygies() and "gb" not in S.__dict__
    assert S.contains(vec(x * x * y)) and "gb" in S.__dict__
