"""Truncated polynomial extensions R[x..][t]/(t^n) and their automorphisms."""

import random

import pytest

from truncmod.arith import ArithError
from truncmod.multiring import (
    AutMap,
    TruncRing,
    compose,
    is_zero_divisor,
    verify_cocycle,
    zero_divisor_witness,
)


def ring(n=2):
    return TruncRing(("x", "y"), n)


def test_zero_divisor_examples():
    tr = ring()
    assert is_zero_divisor(tr, tr.parse("t"))
    assert not is_zero_divisor(tr, tr.parse("1 + t"))
    assert not is_zero_divisor(tr, tr.parse("x"))
    assert is_zero_divisor(tr, tr.parse("0"))
    assert not is_zero_divisor(tr, tr.parse("x + t"))
    assert not is_zero_divisor(tr, tr.parse("1 + x*t"))


def test_zero_divisor_witness_annihilates():
    tr = ring()
    u = tr.parse("x*t")
    w = zero_divisor_witness(tr, u)
    assert w is not None and not w.is_zero()
    assert (w * u).is_zero()
    assert zero_divisor_witness(tr, tr.parse("1 + t")) is None
    # over R[1] only 0 is a zero divisor, and 1 annihilates it
    r1 = ring(1)
    assert zero_divisor_witness(r1, r1.parse("0")) == r1.S.one()
    assert zero_divisor_witness(r1, r1.parse("x")) is None


def test_multiplicative_system_is_the_nonzero_bottom_layer_locus():
    # the multiplicative system is the complement of the zero divisors
    tr = ring()
    assert not is_zero_divisor(tr, tr.parse("1 + t"))
    assert not is_zero_divisor(tr, tr.parse("x + 1"))
    assert not is_zero_divisor(tr, tr.parse("x"))
    assert is_zero_divisor(tr, tr.parse("t"))
    assert is_zero_divisor(tr, tr.parse("x*t"))


def test_automorphism_rejects_images_of_names_that_are_not_base_variables():
    tr = ring()
    B = tr.base
    for name in ("t", "q"):
        with pytest.raises(ArithError, match=repr(name)):
            AutMap(tr, {name: tr.S.parse("x")}, tr.t)
    with pytest.raises(ArithError, match="'t'"):
        AutMap.from_deriv(tr, {"t": B.parse("1")}, B.parse("1"))


def test_truncation_and_projection():
    tr = ring()
    # t^2 is no product in S, which drops it as it is formed
    assert tr.S.parse("t^2").is_zero()
    assert tr.truncate(tr.S.from_terms({(0, 0, 2): 1})).is_zero()
    assert tr.drop_t(tr.S.parse("x + y*t")) == tr.base.parse("x")
    assert tr.t_coefficient(tr.S.parse("x + 3*y*t"), 1) == tr.base.parse("3*y")


def test_t_is_zero_at_n_1():
    # no value leaves the ring with a term t^n, t itself included
    assert TruncRing(("x",), 1).t.is_zero()
    assert ring(2).t == ring(2).S.gen("t")


def test_compose_combines_derivations():
    tr = ring()
    B = tr.base
    phi = AutMap.from_deriv(tr, {"x": B.parse("x^2"), "y": B.parse("0")}, B.parse("1"))
    psi = AutMap.from_deriv(tr, {"x": B.parse("y"), "y": B.parse("x")}, B.parse("1"))
    comp = compose(phi, psi)
    assert comp.deriv_coeff("x") == B.parse("x^2 + y")
    assert comp.deriv_coeff("y") == B.parse("x")
    assert comp.alpha() == B.one()


def test_compose_weights_second_derivation_by_first_scale():
    tr = ring()
    B = tr.base
    phi = AutMap.from_deriv(tr, {"x": B.parse("x^2"), "y": B.parse("0")}, B.parse("1"))
    scale2 = AutMap.from_deriv(tr, {"x": B.parse("y"), "y": B.parse("0")}, B.parse("2"))
    comp = compose(scale2, phi)
    assert comp.deriv_coeff("x") == B.parse("y + 2*x^2")
    assert comp.alpha() == B.parse("2")


def test_identity_laws():
    tr = ring()
    B = tr.base
    phi = AutMap.from_deriv(tr, {"x": B.parse("x*y"), "y": B.parse("1")}, B.parse("3"))
    ident = AutMap(tr, {}, tr.t)
    for other in (compose(ident, phi), compose(phi, ident)):
        assert other.var_images == phi.var_images
        assert other.t_image == phi.t_image


def test_apply_respects_t_nilpotence():
    tr = ring()
    B = tr.base
    phi = AutMap.from_deriv(tr, {"x": B.parse("x^2"), "y": B.parse("0")}, B.parse("1"))
    # x maps to x + x^2 t, so x t maps to x t exactly (t^2 dies)
    assert phi.apply(tr.S.parse("x*t + y")) == tr.S.parse("x*t + y")


def test_composition_is_associative_on_elements():
    tr = ring(3)
    B = tr.base
    rng = random.Random(17)

    def rand_aut():
        d = {
            v: B.from_terms(
                {(rng.randrange(2), rng.randrange(2)): rng.randrange(-2, 3)}
            )
            for v in ("x", "y")
        }
        alpha = B.from_terms({(0, 0): rng.choice([1, 2, -1])})
        return AutMap.from_deriv(tr, d, alpha)

    samples = [tr.S.parse(s) for s in ("x", "y", "t", "x*y + t", "x*t^2 - y")]
    for _ in range(10):
        f, g, h = rand_aut(), rand_aut(), rand_aut()
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        for s in samples:
            assert left.apply(s) == right.apply(s)


def test_cocycle_verification():
    tr = ring()
    B = tr.base
    one = B.parse("1")
    ij = AutMap.from_deriv(tr, {"x": B.parse("1"), "y": B.parse("0")}, one)
    jk = AutMap.from_deriv(tr, {"x": B.parse("0"), "y": B.parse("1")}, one)
    good = AutMap.from_deriv(tr, {"x": B.parse("1"), "y": B.parse("1")}, one)
    bad = AutMap.from_deriv(tr, {"x": B.parse("1"), "y": B.parse("0")}, one)
    assert verify_cocycle(ij, jk, good)
    assert not verify_cocycle(ij, jk, bad)


def test_cocycle_matches_composition():
    tr = ring()
    B = tr.base
    rng = random.Random(23)
    for _ in range(8):
        ij = AutMap.from_deriv(
            tr,
            {v: B.from_terms({(1, 0): rng.randrange(-2, 3)}) for v in ("x", "y")},
            B.parse(str(rng.choice([1, 2]))),
        )
        jk = AutMap.from_deriv(
            tr,
            {v: B.from_terms({(0, 1): rng.randrange(-2, 3)}) for v in ("x", "y")},
            B.parse(str(rng.choice([1, 3]))),
        )
        assert verify_cocycle(ij, jk, compose(ij, jk))
