"""Duality and torsion over truncated rings, and the double-dual oracle
``module_oracles.natural_map`` whose kernel the torsion must be."""

from module_oracles import (
    ModMap,
    cokernel_presentation,
    hom_matrices,
    natural_map,
    quotient_by_submodule,
)
from truncmod.multiring import TruncRing
from truncmod.fpmod import (
    Grading,
    PresMod,
    direct_sum,
    ext1_module,
    free_module,
    quasi_free_type,
    second_canonical_filtration,
    truncated_free,
)
from truncmod.dualtor import (
    annihilator_ideal,
    dual,
    torsion,
)
from truncmod.hilbert import hilbert_series_presmod
from truncmod.regseq import ideal_presentation


def ring(n=2, variables=("x", "y")):
    return TruncRing(variables, n)


def dims(M, through=5):
    return hilbert_series_presmod(M).dimensions(through)


def line_with_twist(n=2):
    tr = ring(n, ("x",))
    return tr, PresMod(tr, 1, [(tr.S.parse("x*t"),)], grading=Grading((0,), 1))


def sample_modules():
    tr = ring(2, ("X", "Y"))
    trx = ring(2, ("x",))
    return [
        free_module(tr, 1),
        free_module(tr, 2),
        truncated_free(tr, 1),
        direct_sum(free_module(tr, 1), truncated_free(tr, 1)),
        ideal_presentation(tr, [tr.parse("X^2"), tr.parse("Y^2"), tr.parse("X*Y")]),
        ideal_presentation(tr, [tr.parse("X^2"), tr.parse("Y^2 + t"), tr.parse("X*Y")]),
        PresMod(trx, 1, [(trx.S.parse("x*t"),)], grading=Grading((0,), 1)),
        PresMod(trx, 1, [(trx.S.parse("x"),)], grading=Grading((0,), 1)),
    ]


# ----------------------------------------------------------------------- dual


def test_dual_of_layer_is_abstract_layer():
    tr = ring(2)
    D = dual(truncated_free(tr, 1))
    assert quasi_free_type(D).type_vector == (1, 0)
    # graded, the image generator is t, so dimensions shift by one
    assert dims(D) == [0, 1, 2, 3, 4, 5]


def test_dual_of_torsion_module_vanishes():
    tr = ring(2, ("x",))
    T = PresMod(tr, 1, [(tr.S.parse("x"),)], grading=Grading((0,), 1))
    assert dual(T).is_zero_module()


def test_dual_of_free_module_is_free_of_same_rank():
    tr = ring(2)
    F = free_module(tr, 2)
    D = dual(F)
    assert dims(D) == dims(F)
    assert quasi_free_type(D).type_vector == (0, 2)


# --------------------------------------------------------------- natural map


def test_natural_map_of_free_module_is_isomorphism():
    tr = ring(2)
    nm = natural_map(free_module(tr, 2))
    assert nm.is_injective()
    assert nm.is_surjective()


def test_natural_map_of_torsion_module_has_zero_target():
    tr = ring(2, ("x",))
    T = PresMod(tr, 1, [(tr.S.parse("x"),)], grading=Grading((0,), 1))
    nm = natural_map(T)
    assert nm.target.is_zero_module()


def test_natural_map_kernel_of_twisted_line():
    tr, M = line_with_twist()
    nm = natural_map(M)
    kernel = nm.kernel_gens()
    from truncmod.fpmod import Submodule

    ker_sub = Submodule(M, kernel)
    assert ker_sub.contains((tr.S.parse("t"),))
    assert not ker_sub.contains((tr.S.parse("1"),))


# -------------------------------------------------------------------- torsion


def test_torsion_of_base_quotient_is_everything():
    tr = ring(2, ("x",))
    T = PresMod(tr, 1, [(tr.S.parse("x"),)], grading=Grading((0,), 1))
    rep = torsion(T)
    assert not rep.is_torsion_free
    assert rep.submodule.contains((tr.S.parse("1"),))


def test_torsion_of_free_module_vanishes():
    tr = ring(2)
    F = free_module(tr, 2)
    rep = torsion(F)
    assert rep.is_torsion_free
    assert F.zero_submodule().contains_submodule(rep.submodule)


def test_torsion_of_twisted_line_with_witness():
    tr, M = line_with_twist()
    rep = torsion(M)
    assert not rep.is_torsion_free
    assert rep.submodule.contains((tr.S.parse("t"),))
    assert rep.witnesses
    for gen, scalar in rep.witnesses:
        # the scalar kills the generator yet survives setting t to zero
        product = tuple(scalar * p for p in gen)
        assert M.zero_submodule().contains(product)
        assert not tr.drop_t(scalar).is_zero()


def test_annihilator_of_twisted_generator():
    tr, M = line_with_twist()
    ann = annihilator_ideal(M, (tr.S.parse("t"),))
    formatted = sorted(tr.S.format(p) for p in ann)
    assert formatted == ["t", "x"]


# --------------------------------------------------------- structural theorems


def test_ext_into_free_is_torsion():
    tr = ring(2, ("X", "Y"))
    F = free_module(tr, 1)
    for M in sample_modules()[:6]:
        if M.ring is not tr:
            continue
        E = ext1_module(M, F)
        if E.is_zero_module():
            continue
        rep = torsion(E)
        # the whole Ext module is torsion: every generator lies in T
        for j in range(E.ngens):
            assert rep.submodule.contains(E.gen_column(j))


def test_torsion_free_iff_first_upper_layer_is():
    for M in sample_modules():
        upper = second_canonical_filtration(M)
        sub_gens = upper[1].gens
        from truncmod.fpmod import subquotient

        M1 = subquotient(M, sub_gens, [])
        assert torsion(M).is_torsion_free == torsion(M1).is_torsion_free


def test_cokernel_of_natural_map_is_torsion():
    for M in sample_modules():
        nm = natural_map(M)
        C = cokernel_presentation(nm)
        if C.is_zero_module():
            continue
        rep = torsion(C)
        for j in range(C.ngens):
            assert rep.submodule.contains(C.gen_column(j))


def test_quotient_by_torsion_is_torsion_free():
    for M in sample_modules():
        Q = quotient_by_submodule(M, torsion(M).submodule.gens)
        assert torsion(Q).is_torsion_free


def test_torsion_free_modules_embed_in_free():
    # m goes to the values of all dual generators at m; the map into the
    # free module is injective exactly when M has no torsion
    for M in sample_modules():
        funcs = hom_matrices(M, free_module(M.ring, 1))
        cols = [tuple(mat[i][0] for mat in funcs) for i in range(M.ngens)]
        emb = ModMap(M, free_module(M.ring, len(funcs)), cols)
        assert emb.is_injective() == torsion(M).is_torsion_free
