"""Regular sequences in truncated rings and the balanced-ideal connection."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from module_oracles import koszul_h1_vanishes
from truncmod.multiring import TruncRing
from truncmod.fpmod import free_module, is_balanced, quasi_free_type
from truncmod.regseq import (
    SequenceError,
    ideal_presentation,
    is_regular_sequence,
    shadow_membership,
)


def ring(n=2, variables=("x", "y")):
    return TruncRing(variables, n)


def test_coordinate_sequence_is_regular():
    tr = ring()
    rep = is_regular_sequence(tr, [tr.parse("x"), tr.parse("y")])
    assert rep.regular
    assert rep.witness is None


def test_repeated_element_fails_with_witness():
    tr = ring()
    rep = is_regular_sequence(tr, [tr.parse("x"), tr.parse("x")])
    assert not rep.regular
    # positions are reported 1-based
    assert rep.witness_index == 2
    # the witness multiplies the offending element into the earlier ideal
    # without lying in that ideal itself; re-check by membership
    from truncmod.groebner import SpanGB, vec_from_polys

    w = rep.witness
    S = tr.S
    earlier = SpanGB(S, 1, [vec_from_polys((S.parse("x"),))]
                     + free_module(tr, 1).effective_relations())
    assert not earlier.contains(vec_from_polys((w,)))
    assert earlier.contains(vec_from_polys((w * S.parse("x"),)))


def test_perturbed_coordinates_stay_regular():
    tr = ring()
    rep = is_regular_sequence(tr, [tr.parse("x + t"), tr.parse("y + x*t")])
    assert rep.regular
    assert [tr.base.format(r) for r in rep.reductions] == ["x", "y"]


def test_weak_convention_ignores_unit_ideals():
    tr = ring()
    rep = is_regular_sequence(tr, [tr.parse("1 + x")])
    assert rep.regular
    # the colon-ladder criterion is the weak one: once the partial ideal
    # reaches the whole ring every later step passes vacuously
    rep2 = is_regular_sequence(tr, [tr.parse("1 + x"), tr.parse("x")])
    assert rep2.regular


def test_zero_divisor_first_element_fails():
    tr = ring()
    rep = is_regular_sequence(tr, [tr.parse("t"), tr.parse("x")])
    assert not rep.regular
    assert rep.witness_index == 1


def test_shadow_membership_examples():
    tr = ring()
    B = tr.base
    assert shadow_membership(tr, B.parse("x"), [tr.parse("x")])
    assert not shadow_membership(tr, B.parse("1"), [tr.parse("x"), tr.parse("y")])
    assert shadow_membership(tr, B.parse("x^2"), [tr.parse("x + t"), tr.parse("y")])


def test_shadow_membership_linear_cases():
    tr = ring()
    B = tr.base
    seq = [tr.parse("x + t"), tr.parse("y + x*t")]
    assert shadow_membership(tr, B.parse("x"), seq)
    assert shadow_membership(tr, B.parse("y"), seq)
    assert shadow_membership(tr, B.parse("x*y - y^2"), seq)
    assert not shadow_membership(tr, B.parse("1"), seq)
    assert not shadow_membership(tr, B.parse("x + 1"), seq)


def test_shadow_membership_requires_regular_sequence():
    tr = ring()
    with pytest.raises(SequenceError):
        shadow_membership(tr, tr.base.parse("x"), [tr.parse("x"), tr.parse("x")])


def test_empty_sequence_is_refused():
    tr = ring()
    for call in (lambda: is_regular_sequence(tr, []),
                 lambda: shadow_membership(tr, tr.base.parse("x"), []),
                 lambda: ideal_presentation(tr, [])):
        with pytest.raises(SequenceError, match="empty sequence"):
            call()


def test_balanced_ideal_of_coordinates():
    tr = ring()
    seq = [tr.parse("x"), tr.parse("y")]
    assert is_regular_sequence(tr, seq).regular
    I = ideal_presentation(tr, seq)
    assert is_balanced(I).balanced
    assert I.ngens == 2


def test_balanced_ideal_principal_case_is_free():
    tr = ring()
    seq = [tr.parse("x + t")]
    assert is_regular_sequence(tr, seq).regular
    I = ideal_presentation(tr, seq)
    assert is_balanced(I).balanced
    assert quasi_free_type(I).type_vector == (0, 1)


def test_balanced_ideal_for_twisted_generators():
    tr = ring()
    for a, b in (("0", "0"), ("1", "0"), ("y", "x"), ("1 + x", "y^2")):
        seq = [tr.parse(f"x + ({a})*t"), tr.parse(f"y + ({b})*t")]
        assert is_regular_sequence(tr, seq).regular
        assert is_balanced(ideal_presentation(tr, seq)).balanced


def test_regularity_is_permutation_invariant_for_homogeneous_input():
    tr = ring()
    homogeneous_cases = [
        (["x", "y"], True),
        (["x", "x"], False),
        (["x + y", "x - y"], True),
        (["x*t", "y"], False),
    ]
    for texts, expected in homogeneous_cases:
        for perm in itertools.permutations(texts):
            rep = is_regular_sequence(tr, [tr.parse(s) for s in perm])
            assert rep.regular == expected


def test_koszul_cross_check_on_short_sequences():
    tr = ring()
    cases = [
        ["x", "y"],
        ["x", "x"],
        ["x + t", "y + x*t"],
        ["x^2", "y^2", "x*y"],
    ]
    for texts in cases:
        seq = [tr.parse(s) for s in texts]
        assert koszul_h1_vanishes(tr, seq) == is_regular_sequence(tr, seq).regular


def test_monomial_triple_boundary_case():
    # three quadrics in two variables: never a regular sequence, yet the
    # ideal they span is balanced; the implication only runs one way
    tr = ring(2, ("X", "Y"))
    seq = [tr.parse("X^2"), tr.parse("Y^2"), tr.parse("X*Y")]
    rep = is_regular_sequence(tr, seq)
    assert not rep.regular
    I = ideal_presentation(tr, seq)
    assert is_balanced(I).balanced


# The monomials x^i y^j of degree at most 2, the constant first.
QUADRATIC = [(i, j) for i in range(3) for j in range(3 - i)]
coefficients = st.lists(st.integers(-2, 2), min_size=len(QUADRATIC), max_size=len(QUADRATIC))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(h=st.one_of(st.integers(1, 3).map(lambda c: [c] + [0] * (len(QUADRATIC) - 1)),
                   coefficients.filter(any)),
       a=coefficients.filter(any), b=coefficients, n=st.sampled_from([1, 2, 3]))
def test_a_pair_is_regular_exactly_when_its_gcd_is_constant(h, a, b, n):
    """R[n] is free over Q[x, y], so a pair (f, g) of base polynomials with
    f nonzero is regular in R[n] exactly when gcd(f, g) is a constant, for
    every n; sympy computes the gcd.  f = h*a and g = h*b share the factor h,
    which is often a constant."""
    sympy = pytest.importorskip("sympy")
    tr = ring(n)
    x, y = sympy.symbols("x y")

    def both(coeffs):
        return (tr.base.from_terms({e: Fraction(c) for e, c in zip(QUADRATIC, coeffs) if c}),
                sum(c * x ** i * y ** j for (i, j), c in zip(QUADRATIC, coeffs)))

    (h, sh), (a, sa), (b, sb) = both(h), both(a), both(b)
    common = sympy.Poly(sympy.gcd(sympy.expand(sh * sa), sympy.expand(sh * sb)), x, y)
    rep = is_regular_sequence(tr, [tr.inject(h * a), tr.inject(h * b)])
    assert rep.regular == (common.total_degree() == 0)
