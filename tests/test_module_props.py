"""Property tests for the t-power filtrations of small graded modules.

Random presentations over R[2] and R[3] (one or two generators, one to
three relations whose entries are homogeneous of degree 1 or 2 in x, y, t,
with t weighing 1 unless a test says otherwise) are checked against answers
that do not depend on the generating set.  No relation holds a unit, so a
drawn module is free only when truncation kills every relation:

* a presentation of the same module from ``transformed_presentation`` gives
  the same balance verdict and witness level, and the same refined member
  counts and matched layers;
* both canonical chains and both refined chains are filtrations (they pass
  ``assert_filtration``), each refined chain has one member more than the
  matched layers and no two equal neighbours, and the matched layers add up
  to the Hilbert series of the module;
* at t-weights 1 and 2, the series ``refine_filtrations`` reads off two
  quotients of the module, HS(A/B) = HS(M/B) - HS(M/A), equal the series of
  the refined chains' layers counted on their own ``subquotient``
  presentations (``presented_layer_series``), for both chains;
* at t-weights 1 and 2 and n = 2 and n = 3, ``refine_filtrations``, which
  meets t^i M and ann(t^k) as t^i·ann(t^(i+k)), gives the member counts,
  the matched layers with their series and the members (``Submodule.equals``)
  of ``refine_chains``, the general refinement by kernel intersections;
* the generic type, read off the ranks of the quotients M/t^k M, is the one
  read off the presented layers of the image filtration
  (``layer_generic_type``), on graded draws and on the same relations with
  no grading;
* at n = 2 and n = 3 and t-weights 1 and 2, ``is_balanced``, which tests
  the one inclusion ann(t^(n-1)) ⊆ tM and, on graded input, the Hilbert
  series of M/tM, M and M/t^(n-1) M, agrees with the definition: every
  kernel and cokernel of ``comparison_maps``, built from every layer of
  both filtrations, vanishes (at weight 1, 32 of the 40 draws at n = 2
  are balanced and 19 at n = 3; at weight 2, 30 and 30; only the weight-2
  draws tell the series shift (n-1)w from (n-1)); the same module with no
  grading gets the same verdict, witness level and witness from the
  inclusion alone;
* the quasi-free type (with its layer ranks and first non-free layer), the
  generic type and the reduced Hilbert polynomial do not change under
  ``transformed_presentation``;
* a quasi-free type, where one exists, is the generic type;
* the reduced Hilbert polynomial is additive on direct sums;
* the annihilator kernels of t^n and t^0 are the whole module and zero,
  the ends both canonical filtrations take without a syzygy computation;
* ``build_extension`` succeeds exactly when its map descends
  (``descends``), and refuses every other map for failed injectivity; what
  it builds is exact at E and M under the oracle maps of
  ``extension_maps``: the projection is well defined and onto, the
  composite is zero and the projection's kernel lies in N's image;
* the torsion submodule, read off evaluation at the dual's generators, is
  the kernel of the map into the double dual (``natural_map``);
* ``Submodule.kernel_through`` hands out nonzero columns of R[n]^k with no
  term of t-degree n or more, each in the kernel, and their span holds
  every truncated generator of the kernel over S that ``SpanGB`` gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from module_oracles import (
    assert_exact,
    assert_filtration,
    comparison_maps,
    descends,
    extension_maps,
    layer_generic_type,
    natural_map,
    presented_layer_series,
    refine_chains,
    slice_kernel_dimension,
    span_dimension,
    transformed_presentation,
)
from truncmod.dualtor import torsion
from truncmod.fpmod import (
    Grading,
    ModuleError,
    PresMod,
    Submodule,
    annihilator_kernel,
    build_extension,
    direct_sum,
    first_canonical_filtration,
    free_module,
    generic_type,
    is_balanced,
    quasi_free_type,
    refine_filtrations,
    second_canonical_filtration,
)
from truncmod.groebner import SpanGB, vec_from_polys, vec_to_polys
from truncmod.hilbert import hilbert_series_presmod, reduced_hilbert_polynomial
from truncmod.multiring import TruncRing

RINGS = {n: TruncRing(("x", "y"), n) for n in (2, 3)}
# the monomials of each degree, by the weight of t; t-multiples first: a
# relation in t is what makes a module unbalanced
MONOMIALS = {1: {0: ("1",), 1: ("t", "x", "y"),
                 2: ("x*t", "t^2", "y*t", "x^2", "x*y", "y^2")},
             2: {0: ("1",), 1: ("x", "y"), 2: ("t", "x^2", "x*y", "y^2")}}
THROUGH = 6


def homogeneous_column(draw, tr, degrees, column_degree, t_weight=1):
    """A column whose entry in slot j is homogeneous of degree
    ``column_degree - degrees[j]`` (0, 1 or 2), with a term in one drawn
    slot."""
    lead = draw(st.sampled_from(range(len(degrees))))
    column = []
    for slot, d in enumerate(degrees):
        terms = draw(st.lists(st.tuples(st.integers(-2, 2).filter(bool),
                                        st.sampled_from(MONOMIALS[t_weight][column_degree - d])),
                              min_size=int(slot == lead), max_size=2,
                              unique_by=lambda term: term[1]))
        column.append(tr.S.parse(" + ".join(f"({c})*{m}" for c, m in terms) or "0"))
    return tuple(column)


@st.composite
def presentations(draw, n=None, t_weight=1):
    tr = RINGS[draw(st.sampled_from([2, 3])) if n is None else n]
    degrees = draw(st.sampled_from([(0,), (1,), (0, 0), (0, 1)]))
    # every entry is homogeneous of degree 1 or 2, so no relation holds a
    # unit, and a drawn slot holds a term: the presentation is minimal, and
    # the module is free only when truncation kills every relation
    relations = [homogeneous_column(draw, tr, degrees,
                                    draw(st.integers(max(degrees) + 1, min(degrees) + 2)),
                                    t_weight)
                 for _ in range(draw(st.integers(1, 3)))]
    return PresMod(tr, len(degrees), relations, Grading(degrees, t_weight))


def canonical(M):
    return first_canonical_filtration(M), second_canonical_filtration(M)


def refined(M):
    return refine_filtrations(M)


def balance(M):
    rep = is_balanced(M)
    return rep.balanced, rep.witness_level


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations(), seed=st.integers(0, 2 ** 16))
def test_another_presentation_gives_the_same_answers(M, seed):
    N = transformed_presentation(M, seed)
    assert balance(N) == balance(M)
    D, F, pairs = refined(M)
    D2, F2, pairs2 = refined(N)
    assert (len(D2), len(F2)) == (len(D), len(F))
    assert [p[0] for p in pairs2] == [p[0] for p in pairs]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations())
def test_refined_chains_are_filtrations_whose_layers_add_up(M):
    first, second = canonical(M)
    D, F, pairs = refine_filtrations(M)
    for chain in (first, second, D, F):
        assert_filtration(M, chain)
    # one member more than nonzero layers: no refined layer is zero
    assert len(D) == len(F) == len(pairs) + 1
    for chain in (D, F):
        assert not any(a.equals(b) for a, b in zip(chain, chain[1:]))
    total = [0] * (THROUGH + 1)
    for _, series in pairs:
        total = [a + b for a, b in zip(total, series.dimensions(THROUGH))]
    assert total == hilbert_series_presmod(M).dimensions(THROUGH)


@pytest.mark.parametrize("t_weight", [1, 2])
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_pairing_series_are_the_series_of_the_presented_layers(t_weight, data):
    M = data.draw(presentations(t_weight=t_weight))
    D, F, pairs = refined(M)
    assert presented_layer_series(M, D) == [series for _, series in pairs]
    # F's members follow the second filtration: layer (i, j) in order of (j, i)
    assert presented_layer_series(M, F) == [
        series for _, series in sorted(pairs, key=lambda p: p[0][::-1])]


@pytest.mark.parametrize("n, t_weight", [(2, 1), (3, 1), (2, 2), (3, 2)])
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_refinement_in_closed_form_is_the_refinement_by_kernels(n, t_weight, data):
    M = data.draw(presentations(n=n, t_weight=t_weight))
    D, F, pairs = refine_filtrations(M)
    D2, F2, pairs2 = refine_chains(M, *canonical(M))
    assert (len(D), len(F)) == (len(D2), len(F2))
    assert pairs == pairs2
    for chain, oracle in ((D, D2), (F, F2)):
        assert all(a.equals(b) for a, b in zip(chain, oracle))


@pytest.mark.parametrize("graded", [True, False], ids=["graded", "ungraded"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations())
def test_generic_type_from_quotient_ranks_is_the_type_of_the_layers(graded, M):
    if not graded:
        M = PresMod(M.ring, M.ngens, M.relations)
    assert generic_type(M) == layer_generic_type(M)


# the weight-1 ids stay the plain n, so records that name them still match
@pytest.mark.parametrize("n, t_weight", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["2", "3", "2-weight2", "3-weight2"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_balance_is_the_vanishing_of_every_comparison_kernel(n, t_weight, data):
    M = data.draw(presentations(n=n, t_weight=t_weight))
    maps = comparison_maps(M)
    vanish = all(G.is_zero_module() for G in maps.gamma_ker + maps.gamma_coker)
    rep = is_balanced(M)
    assert rep.balanced == vanish
    # without its grading the module keeps the inclusion route alone
    plain = is_balanced(PresMod(M.ring, M.ngens, M.relations))
    assert (plain.balanced, plain.witness_level, plain.witness) == (
        rep.balanced, rep.witness_level, rep.witness)


def types(M):
    rep = quasi_free_type(M)
    return (rep.type_vector, rep.layer_ranks, rep.first_nonfree, generic_type(M),
            reduced_hilbert_polynomial(M))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations(), seed=st.integers(0, 2 ** 16))
def test_types_and_reduced_hilbert_polynomial_ignore_the_presentation(M, seed):
    assert types(transformed_presentation(M, seed)) == types(M)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations())
def test_a_quasi_free_type_is_the_generic_type(M):
    mvec = quasi_free_type(M).type_vector
    if mvec is not None:
        assert generic_type(M) == mvec


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(pair=st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(presentations(n=n), presentations(n=n))))
def test_reduced_hilbert_polynomial_is_additive_on_direct_sums(pair):
    M, N = pair
    assert (reduced_hilbert_polynomial(direct_sum(M, N))
            == reduced_hilbert_polynomial(M) + reduced_hilbert_polynomial(N))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations())
def test_the_outer_annihilator_kernels_are_the_whole_module_and_zero(M):
    whole = Submodule(M, [M.gen_column(j) for j in range(M.ngens)])
    assert Submodule(M, annihilator_kernel(M, M.ring.n)).equals(whole)
    assert Submodule(M, annihilator_kernel(M, 0)).equals(M.zero_submodule())
    for chain in canonical(M):
        assert chain[0].equals(whole) and chain[-1] is M.zero_submodule()


# images of relation columns: units and t-multiples, so that some maps kill
# every relation syzygy and some do not
IMAGES = ("0", "1", "t", "x", "y - t", "x*t", "t^2")


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_an_extension_is_built_exactly_when_its_map_descends(data):
    n = data.draw(st.sampled_from([2, 3]))
    N = data.draw(presentations(n=n))
    M = data.draw(presentations(n=n).filter(lambda M: M.relations))
    f1 = [tuple(RINGS[n].S.parse(data.draw(st.sampled_from(IMAGES))) for _ in range(N.ngens))
          for _ in M.relations]
    try:
        E = build_extension(N, M, f1)
    except ModuleError as exc:
        assert "injectivity" in str(exc)
        built = False
    else:
        built = True
        # what the library does not check: E -> M is well defined and
        # onto, N -> E -> M is zero, and ker(E -> M) lies in N's image
        assert_exact(*extension_maps(E, 0, N, M))
    assert built == descends(N, M, f1)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(M=presentations())
def test_torsion_is_the_kernel_of_the_map_into_the_double_dual(M):
    found = torsion(M).submodule
    kernel = Submodule(M, natural_map(M).kernel_gens())
    assert found.contains_submodule(kernel)
    assert kernel.contains_submodule(found)


def kernel_case(data):
    """A drawn module M, a submodule of it on zero to two homogeneous
    columns, and one to three homogeneous columns with their degrees."""
    M = data.draw(presentations())
    gen_degrees = M.grading.gen_degrees

    def columns(count):
        degrees = [data.draw(st.integers(max(gen_degrees), min(gen_degrees) + 2))
                   for _ in range(count)]
        return [homogeneous_column(data.draw, M.ring, gen_degrees, d) for d in degrees], degrees

    target_gens, _ = columns(data.draw(st.integers(0, 2)))
    cols, degrees = columns(data.draw(st.integers(1, 3)))
    return M, Submodule(M, target_gens), cols, degrees


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_kernel_through_is_the_kernel_on_every_low_degree_slice(data):
    M, target, cols, degrees = kernel_case(data)
    answer = target.kernel_through(cols)
    S = M.ring.S
    for a in answer:
        combination = tuple(sum((a_i * c[j] for a_i, c in zip(a, cols)), S.zero())
                            for j in range(M.ngens))
        assert target.contains(combination)
    for d in range(4):
        assert span_dimension(M.ring, answer, degrees, d) == \
            slice_kernel_dimension(target, cols, degrees, d)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_kernel_through_hands_out_the_kernel_in_R_n(data):
    """Every column a kernel hands out is a nonzero vector of R[n]^k with no
    term of t-degree n or more, and lies in the kernel; every generator of
    the kernel over S, truncated mod t^n, lies in the span of the answer."""
    M, target, cols, _ = kernel_case(data)
    ring = M.ring
    answer = target.kernel_through(cols)
    ti = ring.S.variables.index("t")
    for a in answer:
        assert any(a)
        assert all(e[ti] < ring.n for p in a for e in p.terms)
        assert target.contains(tuple(sum((a_i * c[j] for a_i, c in zip(a, cols)), ring.S.zero())
                                     for j in range(M.ngens)))
    raw = SpanGB(ring.S, M.ngens, [vec_from_polys(c) for c in cols + target.gens]
                 + M.effective_relations()).syzygies(len(cols))
    span = Submodule(free_module(ring, len(cols)), answer)
    for v in raw:
        assert span.contains(tuple(map(ring.truncate, vec_to_polys(ring.S, len(cols), v))))
