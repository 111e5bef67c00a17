"""Pinned gradings of the modules that infer one: Hom (and the dual), Ext^1,
ideal presentations and both extension constructors, on homogeneous,
inhomogeneous and zero-element inputs, plus the shared rule
``fpmod.infer_grading`` itself."""

from fractions import Fraction

import pytest

from truncmod.doublepoint import LocalDoubleRing, TauClass, extension_module
from truncmod.dualtor import dual
from truncmod.fpmod import (
    Grading,
    ext1_module,
    extension_R_by_Ri,
    free_module,
    hom_module,
    infer_grading,
    truncated_free,
)
from truncmod.hilbert import hilbert_series_presmod
from truncmod.multiring import TruncRing
from truncmod.regseq import ideal_presentation

TR = TruncRing(("x", "y"), 2)


def ideal(*gens):
    return ideal_presentation(TR, [TR.parse(g) for g in gens])


def grading_of(M):
    return None if M.grading is None else (M.grading.gen_degrees, M.grading.t_weight)


@pytest.mark.parametrize("gens, expected", [
    (("x", "y^2"), ((1, 2), 1)),
    (("x", "t"), ((1, 1), 1)),
    (("x*y", "x^2 + t*y"), ((2, 2), 1)),
    (("x + y^2",), None),
    (("x", "0"), None),
])
def test_ideal_presentation_grading(gens, expected):
    assert grading_of(ideal(*gens)) == expected


@pytest.mark.parametrize("make, expected", [
    # a kernel hands out no generator that is zero in R[n]^k: the dual of
    # (x, y^2) has one generator, and the dual of (x, t) has two
    (lambda: dual(ideal("x", "y^2")), ((0,), 1)),
    (lambda: dual(ideal("x", "t")), ((0, 0), 1)),
    (lambda: dual(ideal("x + y^2")), None),
    (lambda: dual(ideal("x", "0")), None),
    (lambda: hom_module(free_module(TR, 2, (0, 1)),
                        truncated_free(TR, 1, 2)), ((2, 1), 1)),
    (lambda: hom_module(truncated_free(TR, 1, 1),
                        free_module(TR, 2, (0, 3))), ((0, 3), 1)),
    (lambda: hom_module(free_module(TR, 1, (0,), 2),
                        free_module(TR, 1, (0,), 1)), None),
])
def test_hom_grading(make, expected):
    assert grading_of(make()) == expected


@pytest.mark.parametrize("make, expected", [
    (lambda: ext1_module(ideal("x", "y^2"), free_module(TR, 1)), ((0,), 1)),
    (lambda: ext1_module(truncated_free(TR, 1, 1), free_module(TR, 2, (0, 2))),
     ((1, 3), 1)),
    (lambda: ext1_module(ideal("x", "t"), truncated_free(TR, 1)), ((1, 0), 1)),
    (lambda: ext1_module(ideal("x + y^2", "y"), free_module(TR, 1)), None),
])
def test_ext1_grading(make, expected):
    assert grading_of(make()) == expected


@pytest.mark.parametrize("make, numerator", [
    (lambda: dual(ideal("x", "y^2")), ((0, 1), (2, -1))),
    (lambda: dual(ideal("x", "t")), ((0, 2), (1, -2))),
    (lambda: ext1_module(ideal("x", "t"), truncated_free(TR, 1)), ((0, 1), (1, -2), (2, 1))),
])
def test_series_of_modules_whose_generating_sets_moved(make, numerator):
    """The three modules above whose kernels lost generators that are zero
    in R[n]^k keep the Hilbert series they had with those generators."""
    series = hilbert_series_presmod(make())
    assert (series.numerator_coeffs, series.nvars) == (numerator, 3)


@pytest.mark.parametrize("sigma, expected", [
    ("1", ((1, 0), 1)),
    ("x", ((0, 0), 1)),
    ("x + t", ((0, 0), 1)),
    ("0", ((0, 0), 1)),
    ("x + 1", None),
    ("x^2 + y", None),
])
def test_extension_R_by_Ri_grading(sigma, expected):
    assert grading_of(extension_R_by_Ri(TR, TR.S.parse(sigma), 1)) == expected


DOUBLE = LocalDoubleRing()


def tau_class(c_x, c_y):
    return TauClass(Fraction(c_x), Fraction(c_y))


@pytest.mark.parametrize("tau, rho, expected", [
    (tau_class(1, 0), "-1", ((1, 1, 2, 2), 1)),
    (tau_class(0, 0), "0", ((1, 1, 2, 2), 1)),
    (tau_class(2, -3), "5", ((1, 1, 2, 2), 1)),
    (tau_class(1, 0), "x + 1", None),
    ((DOUBLE.base.parse("x"), DOUBLE.base.zero()), "1", None),
    pytest.param(DOUBLE.trunc.parse("x^2*t"), "1", None, id="x^2*t-1-None"),
])
def test_extension_module_grading(tau, rho, expected):
    M = extension_module(DOUBLE, tau, DOUBLE.base.parse(rho))
    assert grading_of(M) == expected


def test_infer_grading_rule():
    x, zero = TR.S.gen("x"), TR.S.zero()
    xt = x * TR.t
    # slot 0 weighs 5, slot 1 weighs 2; t weighs 3
    slots = (5, 2)
    homogeneous = (x, x ** 4 + xt)
    mixed = (x + xt, zero)
    assert infer_grading(TR, [homogeneous, (zero, zero)], 3, slots.__getitem__) \
        == Grading((6, 0), 3)
    assert infer_grading(TR, [homogeneous, mixed], 3, slots.__getitem__) is None
    assert infer_grading(TR, [], 1, slots.__getitem__) == Grading((), 1)
