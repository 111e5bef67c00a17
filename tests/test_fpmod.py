"""Finitely presented modules over truncated rings: filtrations, balance,
quasi-freeness, extensions, Hom and Ext."""

import contextlib
import io
import json

import pytest

from module_oracles import (
    ModMap,
    assert_exact,
    assert_filtration,
    comparison_maps,
    extension_maps,
    hom_matrices,
    intersection_gens,
    lift,
    quotient_by_submodule,
    refine_chains,
    transformed_presentation,
)
from truncmod.multiring import TruncRing
from truncmod.fpmod import (
    Grading,
    ModuleError,
    PresMod,
    Submodule,
    annihilator_kernel,
    build_extension,
    direct_sum,
    ext1_module,
    extension_R_by_Ri,
    first_canonical_filtration,
    free_module,
    generic_type,
    hom_module,
    is_balanced,
    layer_quotients,
    quasi_free_type,
    refine_filtrations,
    second_canonical_filtration,
    subquotient,
    truncated_free,
    vanishes_locally,
)
from truncmod.groebner import vec_from_polys, vec_to_polys
from truncmod.hilbert import hilbert_series_presmod
from truncmod.regseq import ideal_presentation


def ring(n=2, variables=("x", "y")):
    return TruncRing(variables, n)


def dims(M, through=5):
    return hilbert_series_presmod(M).dimensions(through)


def flag_ideal(tr, texts):
    return ideal_presentation(tr, [tr.parse(s) for s in texts])


# ---------------------------------------------------------------- filtrations


def test_lower_filtration_of_free_module():
    tr = ring(3)
    F = free_module(tr, 2)
    chain = first_canonical_filtration(F)
    assert len(chain) == 4
    base = dims(free_module(ring(1), 2), 4)
    # layer k is a base-free module of the same rank, shifted k degrees by t
    for k, quot in enumerate(layer_quotients(F, chain)):
        assert dims(quot, 4) == ([0] * k + base)[: len(base)]
    assert F.zero_submodule().contains_submodule(chain[3])


def test_lower_filtration_of_base_line_module():
    tr = ring(2)
    R_as_module = PresMod(tr, 1, [(tr.S.parse("t"),)])
    chain = first_canonical_filtration(R_as_module)
    assert R_as_module.zero_submodule().contains_submodule(chain[1])


def test_lower_filtration_with_twisted_relation():
    tr = ring(2, ("x",))
    S = tr.S
    M = PresMod(tr, 1, [(S.parse("x*t"),)], grading=Grading((0,), 1))
    chain = first_canonical_filtration(M)
    m1 = chain[1]
    assert m1.contains((S.parse("t"),))
    assert not m1.contains((S.parse("1"),))
    # the top layer is one copy of the base line modulo (x), sitting in degree 1
    G1 = list(layer_quotients(M, chain))[1]
    assert dims(G1, 4) == [0, 1, 0, 0, 0]


def test_upper_filtration_of_mixed_sum():
    tr = ring(2)
    S = tr.S
    # generator 0 spans a copy of the base ring, generator 1 a full free layer
    M = PresMod(tr, 2, [(S.parse("t"), S.parse("0"))])
    chain = second_canonical_filtration(M)
    up1 = chain[1]
    assert up1.contains((S.parse("1"), S.parse("0")))
    assert up1.contains((S.parse("0"), S.parse("t")))
    assert not up1.contains((S.parse("0"), S.parse("1")))


def test_upper_filtration_detects_hidden_annihilated_element():
    tr = ring(2, ("X", "Y"))
    S = tr.S
    J = flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y"))
    chain = second_canonical_filtration(J)
    up1 = chain[1]
    # X*(Y^2 + t) - Y*(X*Y) = X*t is annihilated by t
    assert up1.contains((S.parse("0"), S.parse("X"), S.parse("-Y")))


def test_lower_always_inside_upper():
    tr = ring(2, ("X", "Y"))
    for M in (
        free_module(tr, 2),
        flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y")),
        flag_ideal(tr, ("X^2", "Y^2", "X*Y")),
        PresMod(tr, 1, [(tr.S.parse("X*t"),)]),
    ):
        lower = first_canonical_filtration(M)
        upper = second_canonical_filtration(M)
        for i in range(tr.n + 1):
            assert upper[i].contains_submodule(lower[i])


# ----------------------------------------------------------- comparison maps


def test_comparison_maps_of_free_module_are_isomorphisms():
    tr = ring(2)
    data = comparison_maps(free_module(tr, 1))
    assert all(l.is_surjective() for l in data.lambdas)
    assert all(m.is_injective() for m in data.mus)
    assert all(g.is_zero_module() for g in data.gamma_ker)
    assert all(g.is_zero_module() for g in data.gamma_coker)


def test_comparison_maps_vanish_for_balanced_ideal():
    tr = ring(2, ("X", "Y"))
    I = flag_ideal(tr, ("X^2", "Y^2", "X*Y"))
    data = comparison_maps(I)
    assert all(g.is_zero_module() for g in data.gamma_ker)
    assert all(g.is_zero_module() for g in data.gamma_coker)


def test_comparison_maps_witness_defect():
    tr = ring(2, ("X", "Y"))
    J = flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y"))
    data = comparison_maps(J)
    assert not all(g.is_zero_module() for g in data.gamma_ker)
    assert not all(g.is_zero_module() for g in data.gamma_coker)
    assert not all(l.is_surjective() for l in data.lambdas)
    assert not all(m.is_injective() for m in data.mus)


# -------------------------------------------------------------------- balance


def test_balanced_flag_examples():
    tr = ring(2, ("X", "Y"))
    S = tr.S
    assert is_balanced(free_module(tr, 2)).balanced
    assert is_balanced(flag_ideal(tr, ("X^2", "Y^2", "X*Y"))).balanced
    rep = is_balanced(flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y")))
    assert not rep.balanced
    assert rep.witness_level == 1
    # the witness names an element of the defect: its value in the ideal is X*t
    gens = [S.parse("X^2"), S.parse("Y^2 + t"), S.parse("X*Y")]
    value = sum((c * g for c, g in zip(rep.witness, gens)), S.zero())
    assert tr.truncate(value) == S.parse("X*t")


def test_balance_routes_agree_on_variety_of_modules():
    tr = ring(2, ("X", "Y"))
    mods = [
        free_module(tr, 1),
        truncated_free(tr, 1),
        flag_ideal(tr, ("X^2", "Y^2", "X*Y")),
        flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y")),
        PresMod(tr, 1, [(tr.S.parse("X*t"),)]),
        direct_sum(free_module(tr, 1), truncated_free(tr, 1)),
    ]
    # is_balanced raises when its series and inclusion routes disagree on a
    # graded module; the comparison-map oracle is an independent route
    verdicts = []
    for M in mods:
        data = comparison_maps(M)
        vanish = all(g.is_zero_module() for g in data.gamma_ker + data.gamma_coker)
        assert is_balanced(M).balanced == vanish
        verdicts.append(vanish)
    assert any(verdicts) and not all(verdicts)


def test_balanced_iff_filtrations_coincide():
    # balance is read at level 1 alone: every level then holds by induction,
    # and filtrations that differ at all differ at level 1 first
    verdicts = []
    for n in (2, 3, 4):
        tr = ring(n, ("X", "Y"))
        for M in (
            flag_ideal(tr, ("X^2", "Y^2", "X*Y")),
            flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y")),
            free_module(tr, 2),
            truncated_free(tr, n - 1),
            PresMod(tr, 1, [(tr.S.parse("X*t^2"),)]),
            PresMod(tr, 1, [(tr.S.parse("X*t"),)]),
            direct_sum(free_module(tr, 1), truncated_free(tr, 1)),
        ):
            lower = first_canonical_filtration(M)
            upper = second_canonical_filtration(M)
            differ = [i for i in range(tr.n + 1) if not lower[i].equals(upper[i])]
            rep = is_balanced(M)
            assert rep.balanced == (not differ)
            assert rep.witness_level == (differ[0] if differ else None)
            verdicts.append(rep.balanced)
    assert verdicts.count(True) == 7 and verdicts.count(False) == 14


# --------------------------------------------------------- quasi-free layers


def test_quasi_free_type_of_mixed_sum():
    tr = ring(2)
    M = direct_sum(free_module(tr, 1), truncated_free(tr, 1))
    rep = quasi_free_type(M)
    assert rep.type_vector == (1, 1)
    assert rep.layer_ranks == [2, 1]


def test_quasi_free_type_absent_for_nonfree_layer():
    tr1 = ring(1)
    maximal = flag_ideal(tr1, ("x", "y"))
    rep = quasi_free_type(maximal)
    assert rep.type_vector is None
    assert rep.first_nonfree == 0


def test_quasi_free_type_survives_presentation_obfuscation():
    tr = ring(3)
    M = direct_sum(
        free_module(tr, 1), truncated_free(tr, 1), truncated_free(tr, 2)
    )
    expected = quasi_free_type(M).type_vector
    assert expected == (1, 1, 1)
    for seed in (1, 2, 5, 9):
        scrambled = transformed_presentation(M, seed)
        assert quasi_free_type(scrambled).type_vector == expected


def test_generic_type_examples():
    tr = ring(2)
    assert generic_type(free_module(tr, 2)) == (0, 2)
    trx = ring(2, ("x",))
    # x becomes invertible generically, killing one t-layer
    assert generic_type(PresMod(trx, 1, [(trx.S.parse("x*t"),)])) == (1, 0)
    # torsion modules vanish generically
    assert generic_type(PresMod(trx, 1, [(trx.S.parse("x"),)])) == (0, 0)


# ------------------------------------------------------------------ extensions


def test_extension_with_zero_cocycle_splits():
    tr = ring(2)
    N = truncated_free(tr, 1)
    F = free_module(tr, 1)
    E = build_extension(N, F, [])
    assert dims(E) == dims(direct_sum(N, F))
    assert quasi_free_type(E).type_vector == (1, 1)


def test_extension_of_line_by_layer_unit_case():
    tr = ring(2)
    E = extension_R_by_Ri(tr, tr.parse("1"), 1)
    assert quasi_free_type(E).type_vector == (0, 1)


def test_extension_of_line_by_layer_zero_case():
    tr = ring(2)
    E = extension_R_by_Ri(tr, tr.parse("0"), 1)
    assert quasi_free_type(E).type_vector == (2, 0)


def test_extension_of_line_by_layer_degenerate_case():
    tr = ring(2)
    E = extension_R_by_Ri(tr, tr.parse("x"), 1)
    rep = quasi_free_type(E)
    assert rep.type_vector is None


def test_an_extension_whose_map_does_not_descend_fails_injectivity():
    """The relation t of R[1] has the syzygy t over R[2], and t * 1 is not
    zero in R[2]: the map does not descend, so the included copy of R[2]
    meets the relations and the inclusion is not injective."""
    tr = ring(2)
    with pytest.raises(ModuleError, match="injectivity"):
        build_extension(free_module(tr, 1), truncated_free(tr, 1), [(tr.S.one(),)])


def test_maps_respect_relations_and_compose_through_one_module():
    tr = ring(2)
    F, T = free_module(tr, 1), truncated_free(tr, 1)
    # 1 -> 1 sends the relation t of R[1] to t, which is not zero in R[2]
    with pytest.raises(ModuleError, match="respect a source relation"):
        ModMap(T, F, [(tr.S.one(),)])
    times_t = ModMap(T, F, [(tr.t,)])
    onto = ModMap(F, T, [(tr.S.one(),)])
    # onto after times_t: each image column of times_t carried through onto
    assert all(T.zero_submodule().contains(onto.apply_cover(c)) for c in times_t.columns)


def test_extension_maps_form_exact_sequence():
    tr = ring(3)
    E = extension_R_by_Ri(tr, tr.parse("1"), 2)
    incl, proj = extension_maps(E, 0, truncated_free(tr, 2), truncated_free(tr, 1))
    assert incl.is_injective()
    assert_exact(incl, proj)


# ------------------------------------------------------------------- Hom, Ext


def test_hom_from_free_module_recovers_target():
    tr = ring(2)
    N = truncated_free(tr, 1)
    H = hom_module(free_module(tr, 1), N)
    assert dims(H) == dims(N)


def test_hom_dual_of_layer_is_shifted_layer():
    tr = ring(2)
    H = hom_module(truncated_free(tr, 1), free_module(tr, 1))
    assert dims(H) == [0, 1, 2, 3, 4, 5]
    assert quasi_free_type(H).type_vector == (1, 0)


def test_hom_from_torsion_into_free_vanishes():
    tr = ring(2, ("x",))
    T = PresMod(tr, 1, [(tr.S.parse("x"),)], grading=Grading((0,), 1))
    H = hom_module(T, free_module(tr, 1))
    assert H.is_zero_module()


def test_hom_evaluation_gives_module_maps():
    # every Hom generator's matrix respects the source relations, which
    # ModMap checks on construction
    tr = ring(2)
    pairs = [
        (free_module(tr, 1), truncated_free(tr, 1)),
        (truncated_free(tr, 1), free_module(tr, 1)),
        (truncated_free(tr, 1), truncated_free(tr, 1)),
        (ideal_presentation(tr, [tr.parse("x"), tr.parse("y")]), free_module(tr, 2)),
    ]
    for M, N in pairs:
        mats = hom_matrices(M, N)
        assert len(mats) == hom_module(M, N).ngens > 0
        for mat in mats:
            phi = ModMap(M, N, mat)
            assert phi.source.ngens == M.ngens and phi.target.ngens == N.ngens


def test_ext_from_free_vanishes():
    tr = ring(2)
    assert ext1_module(free_module(tr, 2), truncated_free(tr, 1)).is_zero_module()


def test_ext_of_line_by_layer_is_a_line():
    tr = ring(2)
    R_line = truncated_free(tr, 1)
    E = ext1_module(R_line, R_line)
    assert dims(E, 4) == [1, 2, 3, 4, 5]


def test_ext_of_line_by_full_ring_vanishes():
    tr = ring(2)
    E = ext1_module(truncated_free(tr, 1), free_module(tr, 1))
    assert E.is_zero_module()


# --------------------------------------------------- surjectivity restriction


def test_surjectivity_detected_on_restriction():
    # t is nilpotent, so a map onto N/tN is onto N
    def onto_mod_t(phi):
        N = phi.target
        t_cols = [N.gen_column(j, N.ring.t) for j in range(N.ngens)]
        image_mod_t = Submodule(N, list(phi.columns) + t_cols)
        return all(image_mod_t.contains(N.gen_column(j)) for j in range(N.ngens))

    tr = ring(2)
    S = tr.S
    F1 = free_module(tr, 1)
    F2 = free_module(tr, 2)
    for phi, onto in ((ModMap(F1, F1, [(S.parse("1"),)]), True),
                      (ModMap(F1, F1, [(S.parse("t"),)]), False),
                      (ModMap(F2, F1, [(S.parse("1"),), (S.parse("t"),)]), True)):
        assert phi.is_surjective() == onto_mod_t(phi) == onto


# ----------------------------------------------------------------- refinement


def test_refining_a_chain_against_itself_is_stable():
    tr = ring(2)
    M = free_module(tr, 1)
    chain = first_canonical_filtration(M)
    D, F, pairs = refine_chains(M, chain, chain)
    assert len(D) == len(chain)
    assert len(F) == len(chain)


def test_refinement_of_crossing_chains_matches_series():
    tr = ring(2)
    S = tr.S
    F = free_module(tr, 1)
    full = Submodule(F, [F.gen_column(0)])
    zero = Submodule(F, [])
    chainA = [full, Submodule(F, [(S.parse("x"),)]), zero]
    chainB = [full, Submodule(F, [(S.parse("y"),)]), zero]
    for chain in (chainA, chainB):
        assert_filtration(F, chain)
    DA, FB, _ = refine_chains(F, chainA, chainB)
    freqA = sorted(tuple(dims(q)) for q in layer_quotients(F, DA))
    freqB = sorted(tuple(dims(q)) for q in layer_quotients(F, FB))
    assert freqA == freqB


def test_refinement_requires_grading():
    tr = ring(2)
    M = PresMod(tr, 1, [(tr.S.parse("x + t"),)])
    with pytest.raises(ModuleError):
        refine_filtrations(M)


def test_canonical_chains_of_balanced_module_coincide():
    tr = ring(2, ("X", "Y"))
    I = flag_ideal(tr, ("X^2", "Y^2", "X*Y"))
    lower = first_canonical_filtration(I)
    upper = second_canonical_filtration(I)
    D, F, _ = refine_filtrations(I)
    assert len(D) == len(lower)
    assert all(
        D[i].equals(lower[i]) for i in range(len(D))
    )


# ------------------------------------------------------------------ plumbing


def test_effective_relations_shape():
    tr = ring(3)
    S = tr.S
    M = PresMod(tr, 2, [(S.parse("x"), S.parse("y"))])
    # the relation column, then one relation t^n * e_i per free position
    assert M.effective_relations() == [vec_from_polys((S.parse("x"), S.parse("y"))),
                                       {(0, (0, 0, 3)): 1}, {(1, (0, 0, 3)): 1}]


def test_zero_submodule_is_made_once_and_spans_the_relations():
    tr = ring(2)
    S = tr.S
    M = PresMod(tr, 1, [(S.parse("x"),)])
    zero = M.zero_submodule()
    assert zero is M.zero_submodule() and zero.gens == []
    assert zero.contains((S.parse("x*y + t^2"),))
    assert not zero.contains((S.parse("y"),))


def test_presentation_rejects_inhomogeneous_grading():
    tr = ring(2)
    with pytest.raises(ModuleError):
        PresMod(tr, 1, [(tr.S.parse("x + x^2"),)], grading=Grading((0,), 1))


def test_local_vanishing_inverts_units():
    tr = ring(2)
    S = tr.S
    assert vanishes_locally(PresMod(tr, 1, [(S.parse("1 + x"),)]))
    assert not vanishes_locally(PresMod(tr, 1, [(S.parse("x"),)]))
    assert not vanishes_locally(free_module(tr, 1))


def test_annihilator_kernel_of_flag_ideal():
    tr = ring(2, ("X", "Y"))
    S = tr.S
    J = flag_ideal(tr, ("X^2", "Y^2 + t", "X*Y"))
    ann = annihilator_kernel(J, 1)
    sub = Submodule(J, ann)
    assert sub.contains((S.parse("0"), S.parse("X"), S.parse("-Y")))


def test_membership_coefficients_reconstruct_element():
    tr = ring(2)
    S = tr.S
    F = free_module(tr, 1)
    coeffs = lift(Submodule(F, [(S.parse("x"),), (S.parse("y"),)]), (S.parse("x*y"),))
    assert coeffs is not None
    value = coeffs[0] * S.parse("x") + coeffs[1] * S.parse("y")
    assert value == S.parse("x*y")
    assert lift(Submodule(F, [(S.parse("x"),)]), (S.parse("1"),)) is None


def test_comparison_maps_build_each_lifted_through_span_once(monkeypatch):
    import groebner_oracle

    lifted = {}
    oracle_lift = groebner_oracle.lift

    def counted(span, v):
        lifted[span] = (span.rank, tuple(tuple(sorted(w.items())) for w in span.vecs))
        return oracle_lift(span, v)

    monkeypatch.setattr(groebner_oracle, "lift", counted)
    tr = ring(3)
    comparison_maps(flag_ideal(tr, ("x", "y")))
    keys = list(lifted.values())
    assert keys
    assert len(keys) == len(set(keys))


def test_balance_reads_one_annihilator_kernel(monkeypatch):
    from truncmod import fpmod

    subquotients, levels = [], []
    subquotient_, annihilator_kernel_ = fpmod.subquotient, fpmod.annihilator_kernel

    def counted_subquotient(*args):
        subquotients.append(args)
        return subquotient_(*args)

    def counted_kernel(M, i):
        levels.append(i)
        return annihilator_kernel_(M, i)

    monkeypatch.setattr(fpmod, "subquotient", counted_subquotient)
    monkeypatch.setattr(fpmod, "annihilator_kernel", counted_kernel)
    for n in (2, 3, 4):
        subquotients.clear()
        levels.clear()
        rep = is_balanced(flag_ideal(ring(n), ("x^2", "y^2", "x*y")))
        assert rep.balanced and rep.witness_level is None
        # ann(t^(n-1)) and nothing else of the annihilator filtration, and
        # no layer presented
        assert subquotients == [] and levels == [n - 1]


def test_refinement_intersects_only_inner_members(monkeypatch):
    """The chain refinement of any two filtrations meets only inner members:
    the first and last member of each chain are the whole module and zero."""
    import module_oracles

    calls = []
    inner = module_oracles.intersection_gens

    def counted(A, B):
        calls.append(B)
        return inner(A, B)

    monkeypatch.setattr(module_oracles, "intersection_gens", counted)
    tr = ring(3)
    I = flag_ideal(tr, ("x^2", "y^2", "x*y"))
    F = free_module(tr, 1)
    line = [Submodule(F, [F.gen_column(0)]),
            Submodule(F, [(tr.S.parse("x"),)]),
            Submodule(F, [])]
    assert_filtration(F, line)
    counts = []
    for M, D, E in ((I, first_canonical_filtration(I), second_canonical_filtration(I)),
                    (F, line, first_canonical_filtration(F))):
        before = len(calls)
        refine_chains(M, D, E)
        counts.append(len(calls) - before)
        a, b = len(D), len(E)
        assert counts[-1] == (a - 1) * (b - 2) + (b - 1) * (a - 2)
    assert counts == [12, 7]


# a graded presentation of rank 4 over R[2]
RANK_FOUR = {"generators": 4, "degrees": [1, 1, 2, 2], "t_weight": 1,
             "relations": [["y", "-x", "1", "0"], ["t", "0", "1", "0"], ["0", "t", "0", "1"],
                           ["0", "0", "y", "-x"], ["0", "0", "t", "0"], ["0", "0", "0", "t"]]}


def test_refine_forms_no_product_with_a_zero_operand(monkeypatch):
    """Generator columns times a power of t are built in place, and an
    annihilator's columns are moved by t^i entry by entry, skipping zero
    entries, so a ``module.refine`` job multiplies no polynomial by zero."""
    from truncmod import arith
    from truncmod.cli import main

    calls = []
    times = arith.Poly.times

    def counted(self, other):
        calls.append(not self.terms or not other.terms)
        return times(self, other)

    for name in ("times", "__mul__"):
        monkeypatch.setattr(arith.Poly, name, counted)
    # at n = 2 every intersection is an annihilator or a t-image, and no
    # product is formed; at n = 3 the annihilators are moved by t
    for n in (2, 3):
        doc = {"ring": {"variables": ["x", "y"], "n": n},
               "payload": {"presentation": RANK_FOUR}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["module.refine"]) == 0
        assert json.loads(out.getvalue())["matched_layers"]
    assert calls and sum(calls) == 0


def rank_four(n):
    tr = ring(n)
    return PresMod(tr, 4, [tuple(tr.S.parse(p) for p in col) for col in RANK_FOUR["relations"]],
                   Grading(tuple(RANK_FOUR["degrees"]), 1))


def count_calls(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.<name>`` in ``calls[name]``."""
    inner = getattr(owner, name)
    calls[name] = 0

    def wrapper(*args):
        calls[name] += 1
        return inner(*args)
    monkeypatch.setattr(owner, name, wrapper)


def test_refine_presents_no_layer_and_builds_a_graph_basis_per_intersection(monkeypatch):
    """The chain refinement reads each crosswise layer's series off two
    quotients of the module, which take plain bases: it presents no layer,
    and its only graph bases (lifts and kernels) are those of its
    intersections."""
    import module_oracles
    from truncmod import fpmod, groebner

    M = rank_four(2)
    D, F = first_canonical_filtration(M), second_canonical_filtration(M)
    calls: dict = {}
    for owner, name in ((fpmod, "subquotient"), (groebner, "_graph_basis"),
                        (module_oracles, "intersection_gens")):
        count_calls(monkeypatch, calls, owner, name)
    Dr, Fr, pairs = refine_chains(M, D, F)
    assert pairs and len(Dr) == len(Fr) == len(pairs) + 1
    assert calls["subquotient"] == 0
    assert calls["_graph_basis"] == calls["intersection_gens"] > 0


def test_refine_builds_only_the_inner_annihilators_and_generic_type_no_kernel(monkeypatch):
    """Refinement meets t^i M and ann(t^k) in closed form, t^i·ann(t^(i+k)),
    so a ``module.refine`` job at n = 3 builds the graph bases of the n - 1
    inner annihilators and no other; ``module.generictype`` reads its layer
    ranks off quotient ranks and builds none.  Neither presents a layer."""
    from truncmod import fpmod, groebner
    from truncmod.cli import main

    n = 3
    doc = {"ring": {"variables": ["x", "y"], "n": n}, "payload": {"presentation": RANK_FOUR}}
    calls: dict = {}
    for owner, name in ((fpmod, "subquotient"), (groebner, "_graph_basis")):
        count_calls(monkeypatch, calls, owner, name)
    answers = {}
    for command in ("module.refine", "module.generictype"):
        calls.update(subquotient=0, _graph_basis=0)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([command]) == 0
        answers[command] = (json.loads(out.getvalue()), dict(calls))
    refine, refine_calls = answers["module.refine"]
    assert refine["matched_layers"]
    assert (refine["first_refined_members"] == refine["second_refined_members"]
            == len(refine["matched_layers"]) + 1)
    assert refine_calls == {"subquotient": 0, "_graph_basis": n - 1}
    generic, generic_calls = answers["module.generictype"]
    assert len(generic["type"]) == n
    assert generic_calls == {"subquotient": 0, "_graph_basis": 0}


def test_canonical_ends_take_no_syzygy_and_refinement_no_end_quotient(monkeypatch):
    """Both canonical filtrations run from the unit columns to
    ``M.zero_submodule()``, so only the n - 1 inner annihilators take a
    syzygy computation; refinement knows HS(M/M) = 0 and HS(M/0) = HS(M),
    so of the n^2 + 1 members of each threaded chain it presents only the
    n^2 - 1 inner ones as quotients of M."""
    from truncmod import fpmod

    n = 3
    M = rank_four(n)
    calls: dict = {}
    for name in ("annihilator_kernel", "quotient_by_submodule"):
        count_calls(monkeypatch, calls, fpmod, name)
    D, F = first_canonical_filtration(M), second_canonical_filtration(M)
    assert calls["annihilator_kernel"] == n - 1
    assert D[-1] is M.zero_submodule() and F[-1] is M.zero_submodule()
    refine_filtrations(M)
    assert calls["quotient_by_submodule"] == 2 * (n * n - 1)


def test_intersection_of_principal_spans():
    tr = ring(2)
    S = tr.S
    F = free_module(tr, 1)
    met = intersection_gens(Submodule(F, [(S.parse("x"),)]), Submodule(F, [(S.parse("y"),)]))
    assert Submodule(F, met).equals(Submodule(F, [(S.parse("x*y"),)]))


def test_intersection_modulo_ambient_relations():
    tr = ring(2)
    S = tr.S
    x, y, t, one, zero = (S.parse(v) for v in ("x", "y", "t", "1", "0"))
    M = PresMod(tr, 2, [(x, y), (t, zero)])
    A = Submodule(M, [(x, zero), (zero, t)])
    B = Submodule(M, [(y, zero), (t, x)])
    met = intersection_gens(A, B)
    assert all(A.contains(g) and B.contains(g) for g in met)
    both = Submodule(M, met)
    in_both = 0
    monomials = [one, x, y, t, x * y, x * t, y * t, x * x, y * y]
    for a in monomials:
        for b in monomials:
            probe = (a, b)
            if A.contains(probe) and B.contains(probe):
                assert both.contains(probe)
                in_both += not M.zero_submodule().contains(probe)
    assert in_both


def test_saturation_takes_colons_until_nothing_new_appears():
    tr = ring(2)
    S = tr.S
    x, y, t, one, zero = (S.parse(v) for v in ("x", "y", "t", "1", "0"))
    F = free_module(tr, 1)
    I = Submodule(F, [(x * x * y,), (x * t,)])
    once = Submodule(F, I.kernel_through([(x,)]))
    # (I : x) = (x*y, t) falls short of (I : x^2) = (y, t), so the loop runs twice
    assert once.equals(Submodule(F, [(x * y,), (t,)]))
    assert I.saturation(x).equals(Submodule(F, [(y,), (t,)]))
    # in M, x^2*e_0 = 0 and t*e_1 = -x*y*e_0, so e_0 and t*e_1 die under x^2
    M = PresMod(tr, 2, [(x * x, zero), (x * y, t)])
    sat = M.zero_submodule().saturation(x)
    assert sat.equals(Submodule(M, [(one, zero), (zero, t)]))
    assert all(M.zero_submodule().contains(tuple(x * x * p for p in g)) for g in sat.gens)


def test_normal_form_and_basis_read_the_span():
    tr = ring(2)
    S = tr.S
    x, y, t, one, zero = (S.parse(v) for v in ("x", "y", "t", "1", "0"))
    M = PresMod(tr, 2, [(x, y)])
    sub = Submodule(M, [(y * y, zero), (t, x)])
    basis = sub.basis()
    assert basis == [vec_to_polys(S, 2, v) for v in sub.span().gb]
    # the reduced basis is unique, so the span of the basis has the same one
    assert Submodule(M, basis).basis() == basis
    assert Submodule(M, basis).equals(sub)
    monomials = [one, x, y, t, x * y, y * y, y * t, x * x * y]
    for a in monomials:
        for b in monomials:
            probe = (a, b)
            nf = sub.normal_form(probe)
            assert nf == vec_to_polys(S, 2, sub.span().normal_form(vec_from_polys(probe)))
            assert sub.contains(probe) == (not any(nf))
            assert sub.contains(tuple(p - q for p, q in zip(probe, nf)))
            assert sub.normal_form(nf) == nf


def test_quotient_and_subquotient_shapes():
    tr = ring(2)
    S = tr.S
    F = free_module(tr, 1)
    Q = quotient_by_submodule(F, [(S.parse("x"),), (S.parse("t"),)])
    assert dims(Q, 3) == [1, 1, 1, 1]
    sq = subquotient(F, [(S.parse("x"),), (S.parse("t"),)], [(S.parse("t"),)])
    assert sq.ngens == 2
    assert not sq.is_zero_module()
