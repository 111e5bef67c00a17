"""Oracles for the module tests.

``transformed_presentation`` gives another presentation of the same module,
so an answer that must not depend on the generating set can be compared
across the two.  ``koszul_h1_vanishes`` decides regularity of a short
sequence by first Koszul homology, a route independent of
``regseq``'s colon ladders.  ``assert_filtration`` checks that a list of
submodules is a filtration, and ``filtration_layer_sum`` adds up the reduced
Hilbert polynomials of its layers, and ``presented_layer_series`` reads the
series of each layer off its own presentation.  ``descends`` decides whether
a map from a presentation's relation cover passes to the image of the
relations, the condition ``build_extension`` needs.  ``lift`` writes an
element of a submodule as a combination of its generators, through
``groebner_oracle.lift``; the library computes no lifts.
``annihilator_side`` presents every layer of the annihilator filtration
and lifts each t-image onto the next member's generators, giving the
injections between consecutive layers; ``comparison_maps`` adds the
surjections between the image layers, with the kernels and cokernels of
both, as a reading of balance independent of ``is_balanced``'s inclusion
ann(t^(n-1)) ⊆ tM and its Hilbert series.  ``hom_matrices`` lists Hom generators as
matrices of images, and ``natural_map`` builds the comparison map into the
double dual, whose kernel is the torsion ``dualtor.torsion`` reads off
evaluation at the dual's generators.  ``ModMap`` is the maps' type; the
library builds no map.  ``extension_maps`` gives an extension's inclusion
and projection, and ``assert_exact`` checks the exactness the extension
constructors hold by construction.  ``slice_kernel_dimension`` counts a
kernel through graded columns degree by degree with ``arith.matrix_rank``,
for comparison with ``span_dimension`` of ``Submodule.kernel_through``'s
answer.  ``intersection_gens`` meets two submodules through a kernel, and
``refine_chains`` threads any two filtrations through each other by those
intersections, the general route that ``fpmod.refine_filtrations`` takes
in closed form for the canonical pair.  ``layer_generic_type`` reads the
generic type off each presented layer of the image filtration, the route
``fpmod.generic_type`` takes through quotient ranks instead."""

import random
from dataclasses import dataclass
from fractions import Fraction

import groebner_oracle
from truncmod.arith import Poly, agree, matrix_rank
from truncmod.fpmod import (
    Column,
    Grading,
    ModuleError,
    PresMod,
    Submodule,
    base_relation_matrix,
    column_degree,
    first_canonical_filtration,
    free_module,
    generic_rank,
    hom_module,
    layer_quotients,
    maps_into,
    quotient_by_submodule,
    second_canonical_filtration,
    subquotient,
)
from truncmod.dualtor import _rank_one_target
from truncmod.groebner import vec_from_polys
from truncmod.hilbert import (
    HilbertError,
    HilbertPolynomial,
    HilbertSeries,
    hilbert_series_presmod,
    layer_base_series,
    monomials_of_degree,
    polynomial_from_series,
)


def _combine(ring, coeffs: Column, columns: list[Column], width: int) -> Column:
    """sum(coeffs[i] * columns[i]) in R[n], for columns of ``width`` entries."""
    out = [ring.S.zero()] * width
    for coeff, col in zip(coeffs, columns):
        if coeff.is_zero():
            continue
        for j, p in enumerate(col):
            if p:
                out[j] = out[j] + coeff * p
    return tuple(out)


class ModMap:
    """A homomorphism between presented modules, as images of generators.

    Columns live in the target's free cover; construction verifies that
    every source relation maps into the target's relation span.
    """

    def __init__(self, source: PresMod, target: PresMod, columns: list[Column]):
        if len(columns) != source.ngens:
            raise ModuleError(f"{len(columns)} image columns for {source.ngens} generators")
        self.source = source
        self.target = target
        self.columns = [tuple(target.ring.truncate(p) for p in c) for c in columns]
        for rel in source.relations:
            if not target.zero_submodule().contains(self.apply_cover(rel)):
                raise ModuleError("images do not respect a source relation")

    def apply_cover(self, vec: Column) -> Column:
        """Image of an element given in source free-cover coordinates."""
        return _combine(self.target.ring, vec, self.columns, self.target.ngens)

    def kernel_gens(self) -> list[Column]:
        return self.target.zero_submodule().kernel_through(self.columns)

    def is_injective(self) -> bool:
        return all(self.source.zero_submodule().contains(g) for g in self.kernel_gens())

    def image_submodule(self) -> Submodule:
        return Submodule(self.target, list(self.columns))

    def is_surjective(self) -> bool:
        image = self.image_submodule()
        return all(image.contains(self.target.gen_column(j))
                   for j in range(self.target.ngens))


def transformed_presentation(M: PresMod, seed: int, steps: int = 12) -> PresMod:
    """An equivalent presentation of M produced by random invertible row and
    column operations (degree-compatible when M is graded), plus redundant
    relation columns; the presented module is unchanged."""
    rng = random.Random(seed)
    ring = M.ring
    g = M.ngens
    rows = [[col[j] for col in M.relations] for j in range(g)]
    degs = list(M.grading.gen_degrees) if M.grading else [0] * g
    tw = M.grading.t_weight if M.grading else 1

    def random_homog(target_deg: int) -> Poly | None:
        if target_deg < 0:
            return None
        if target_deg == 0:
            return ring.S.const(rng.choice([1, -1, 2]))
        # monomial x^a * t^k of weighted degree target_deg with k < n
        for _ in range(8):
            k = rng.randrange(0, ring.n) if tw else 0
            if tw and k * tw > target_deg:
                continue
            rest = target_deg - k * tw
            exps = [0] * ring.base.nvars
            for _ in range(rest):
                exps[rng.randrange(ring.base.nvars)] += 1
            e = tuple(exps) + (k,)
            return Poly(ring.S, {e: Fraction(rng.choice([1, -1, 2]))})
        return None

    ncols = lambda: len(rows[0]) if rows and rows[0] else 0

    for _ in range(steps):
        op = rng.choice(["row_add", "col_add", "row_scale", "col_scale",
                         "row_swap", "col_swap", "redundant"])
        nc = ncols()
        if op == "row_add" and g >= 2:
            i, j = rng.sample(range(g), 2)
            q = random_homog(degs[i] - degs[j]) if M.grading else random_homog(rng.randrange(3))
            if q is None:
                continue
            for c in range(nc):
                rows[j][c] = rows[j][c] + q * rows[i][c]
        elif op == "col_add" and nc >= 2:
            a, b = rng.sample(range(nc), 2)
            if M.grading:
                da = column_degree(ring, tuple(rows[r][a] for r in range(g)),
                                   Grading(tuple(degs), tw))
                db = column_degree(ring, tuple(rows[r][b] for r in range(g)),
                                   Grading(tuple(degs), tw))
                if da is None or db is None:
                    continue
                q = random_homog(db - da)
            else:
                q = random_homog(rng.randrange(3))
            if q is None:
                continue
            for r in range(g):
                rows[r][b] = rows[r][b] + q * rows[r][a]
        elif op == "row_scale" and g >= 1:
            i = rng.randrange(g)
            c = ring.S.const(rng.choice([1, -1, 2, 3]))
            for cc in range(nc):
                rows[i][cc] = rows[i][cc] * c
        elif op == "col_scale" and nc >= 1:
            a = rng.randrange(nc)
            c = ring.S.const(rng.choice([1, -1, 2, 3]))
            for r in range(g):
                rows[r][a] = rows[r][a] * c
        elif op == "row_swap" and g >= 2:
            i, j = rng.sample(range(g), 2)
            for cc in range(nc):
                rows[i][cc], rows[j][cc] = rows[j][cc], rows[i][cc]
            degs[i], degs[j] = degs[j], degs[i]
        elif op == "col_swap" and nc >= 2:
            a, b = rng.sample(range(nc), 2)
            for r in range(g):
                rows[r][a], rows[r][b] = rows[r][b], rows[r][a]
        elif op == "redundant" and nc >= 1:
            a = rng.randrange(nc)
            q = random_homog(tw) or ring.S.one()
            for r in range(g):
                rows[r].append(q * rows[r][a])

    cols = [tuple(rows[r][c] for r in range(g)) for c in range(ncols())]
    grading = Grading(tuple(degs), tw) if M.grading else None
    # row scaling by constants keeps homogeneity; row_add was degree-matched
    return PresMod(ring, g, cols, grading)


def assert_filtration(M, members) -> None:
    """Assert that ``members`` is a filtration of M: it starts at M, ends at
    zero and descends."""
    full = Submodule(M, [M.gen_column(i) for i in range(M.ngens)])
    assert members and members[0].equals(full), "the chain does not start at M"
    assert M.zero_submodule().contains_submodule(members[-1]), "the chain does not end at zero"
    for k, (a, b) in enumerate(zip(members, members[1:])):
        assert a.contains_submodule(b), f"member {k + 1} is not inside member {k}"


def koszul_h1_vanishes(ring, seq) -> bool:
    """Whether the first homology of the length-one Koszul layer vanishes:
    every coefficient vector killing the sequence is generated by the
    trivial pairwise relations.  Agrees with regularity for homogeneous
    sequences in the irrelevant ideal; a cross-check for short sequences
    over one ring."""
    p = len(seq)
    cycles = free_module(ring, 1).zero_submodule().kernel_through([(u,) for u in seq])
    zero = ring.S.zero()
    boundaries = Submodule(free_module(ring, p), [
        tuple(seq[i] if k == j else -seq[j] if k == i else zero for k in range(p))
        for i in range(p) for j in range(i + 1, p)])
    return all(boundaries.contains(z) for z in cycles)


def filtration_layer_sum(M, members) -> HilbertPolynomial:
    """The sum of the base-ring Hilbert polynomials of the layers of the
    filtration ``members`` of M; raises ``HilbertError`` when t does not
    annihilate a layer.  For every such filtration the sum is the reduced
    Hilbert polynomial of M."""
    total = HilbertPolynomial.make([])
    for k, layer in enumerate(layer_quotients(M, members)):
        if not layer.is_t_annihilated():
            raise HilbertError(f"filtration quotient {k} is not annihilated by t")
        total = total + polynomial_from_series(layer_base_series(layer))
    return total


def presented_layer_series(M, chain) -> list:
    """The Hilbert series of each layer chain[k]/chain[k+1] of a chain in
    the graded module M, counted on the layer's ``subquotient``
    presentation."""
    return [hilbert_series_presmod(subquotient(M, a.gens, b.gens))
            for a, b in zip(chain, chain[1:])]


def descends(N: PresMod, M: PresMod, f1_columns) -> bool:
    """Whether the images ``f1_columns`` in N of M's relation columns kill
    every syzygy among those columns over R[n], so that the map from the
    relation cover descends to the span of the relations."""
    if not M.relations:
        return True
    syzygies = free_module(M.ring, M.ngens).zero_submodule().kernel_through(M.relations)
    f1 = ModMap(free_module(M.ring, len(M.relations)), N, list(f1_columns))
    return all(N.zero_submodule().contains(f1.apply_cover(s)) for s in syzygies)


def extension_maps(E: PresMod, first: int, N: PresMod, M: PresMod) -> tuple[ModMap, ModMap]:
    """The inclusion N -> E onto E's generators ``first`` .. ``first +
    N.ngens - 1`` and the projection E -> M that kills those generators and
    sends the others, in order, to M's; each map checks on construction
    that it respects its source's relations."""
    block = range(first, first + N.ngens)
    rest = iter(range(M.ngens))
    zero = tuple(M.ring.S.zero() for _ in range(M.ngens))
    incl = ModMap(N, E, [E.gen_column(k) for k in block])
    proj = ModMap(E, M, [zero if k in block else M.gen_column(next(rest))
                         for k in range(E.ngens)])
    return incl, proj


def assert_exact(incl: ModMap, proj: ModMap) -> None:
    """Assert that ``0 -> N -> E -> M -> 0`` is exact at E and M for the
    inclusion ``incl: N -> E`` and the projection ``proj: E -> M``: the
    projection is onto, the composite is zero, and the projection's kernel
    lies in the inclusion's image (the zero composite gives the other
    inclusion).  Injectivity is the library's own check."""
    assert proj.is_surjective(), "the projection is not onto"
    assert all(proj.target.zero_submodule().contains(proj.apply_cover(c))
               for c in incl.columns), "the composite is not zero"
    image = incl.image_submodule()
    assert all(image.contains(g) for g in proj.kernel_gens()), \
        "the projection's kernel exceeds the included copy"


def _slice(ring, columns, degrees, d: int) -> list[dict]:
    """The products m * c, truncated at t^n, of each column c of degree
    ``degrees[i]`` with each monomial m of degree d - degrees[i] that is not
    zero in R[n], t weighing 1: sparse vectors keyed by (slot, exponent).
    One vector for each such pair, so for unit columns the count is the
    degree-d dimension of R[n]^len(columns)."""
    out = []
    for col, degree in zip(columns, degrees):
        for m in monomials_of_degree(ring.base.nvars + 1, d - degree):
            if m[-1] >= ring.n:
                continue
            vec = {}
            for slot, p in enumerate(col):
                for e, c in p.terms.items():
                    f = tuple(a + b for a, b in zip(e, m))
                    if f[-1] < ring.n:
                        vec[(slot, f)] = c
            out.append(vec)
    return out


def slice_kernel_dimension(target: Submodule, columns, degrees, d: int) -> int:
    """The dimension over Q of the degree-d part of the kernel {a in R[n]^k :
    sum(a_i columns_i) lies in ``target``}, for columns of degrees
    ``degrees`` in a graded ambient module with t weighing 1, counted by
    ``arith.matrix_rank`` on the degree slices: the degree-d multiples of
    the columns, against those of the target's generators and the ambient
    relations."""
    M = target.ambient
    held = [g for g in target.gens + M.relations if any(g)]
    held_slice = _slice(M.ring, held, [column_degree(M.ring, g, M.grading) for g in held], d)
    images = _slice(M.ring, columns, degrees, d)
    return len(images) - (matrix_rank(held_slice + images) - matrix_rank(held_slice))


def span_dimension(ring, gens, gen_degrees, d: int) -> int:
    """The degree-d dimension over Q of the span of ``gens`` in R[n]^k with
    generator degrees ``gen_degrees`` and t weighing 1; every generator must
    be homogeneous once truncated."""
    truncated = [tuple(ring.truncate(p) for p in g) for g in gens]
    gens = [g for g in truncated if any(g)]
    grading = Grading(tuple(gen_degrees), 1)
    return matrix_rank(_slice(ring, gens, [column_degree(ring, g, grading) for g in gens], d))


def hom_matrices(M: PresMod, N: PresMod) -> list[list[tuple]]:
    """The generators of Hom(M, N), generator k of ``hom_module(M, N)``
    first: each as the list of images in N of M's generators."""
    p = N.ngens
    return [[f[i * p:(i + 1) * p] for i in range(M.ngens)]
            for f in maps_into(N, M.ngens, M.relations)]


def lift(sub: Submodule, col):
    """Coefficients writing ``col`` as a combination of ``sub``'s generators
    modulo the ambient relations, truncated; None when ``col`` is not in
    ``sub``."""
    lifted = groebner_oracle.lift(sub.span(), vec_from_polys(col))
    if lifted is None:
        return None
    return tuple(sub.ambient.ring.truncate(p) for p in lifted[: len(sub.gens)])


def natural_map(M: PresMod) -> ModMap:
    """The comparison map M -> M** sending m to evaluation at m, with the
    double dual presented by ``hom_module``: each evaluation functional on
    the dual's generators is lifted onto the double dual's generators."""
    target = _rank_one_target(M)
    D = hom_module(M, target)
    # functionals on D, each by its values on D's generators
    functionals = Submodule(free_module(M.ring, D.ngens), maps_into(target, D.ngens, D.relations))
    funcs = maps_into(target, M.ngens, M.relations)
    cols = []
    for i in range(M.ngens):
        # evaluation at generator i
        lifted = lift(functionals, tuple(f[i] for f in funcs))
        if lifted is None:
            raise ModuleError("evaluation functional escaped the double dual")
        cols.append(lifted)
    return ModMap(M, hom_module(D, target), cols)


def kernel_presentation(f: ModMap) -> PresMod:
    return subquotient(f.source, f.kernel_gens(), [])


def cokernel_presentation(f: ModMap) -> PresMod:
    return quotient_by_submodule(f.target, list(f.columns))


@dataclass
class ComparisonData:
    """Members and comparison maps of both t-power filtrations; the layers
    are the maps' sources and targets.

    lambdas[i] is the injection layer^(i+2) -> layer^(i+1) of the annihilator
    filtration (multiplication by t), mus[i] the surjection layer_i ->
    layer_(i+1) of the image filtration, gamma_ker[i] = ker(mus[i]) and
    gamma_coker[i] = coker(lambdas[i]); all lists run over i = 0..n-2.
    """

    lower_members: list   # M_i, i = 0..n
    upper_members: list   # ann(t^i), i = 0..n
    lambdas: list
    mus: list
    gamma_ker: list
    gamma_coker: list


def annihilator_side(M: PresMod) -> tuple[list, list]:
    """The annihilator filtration read ascending: the members ann(t^i)
    (i = 0..n) and the injections lambdas, each checked injective; the
    layers G^(i) are the lambdas' sources and targets."""
    second = second_canonical_filtration(M)
    members = second[::-1]                           # index i = ann(t^i)
    layers = list(layer_quotients(M, second))[::-1]  # index i = layer^(i+1)
    t = M.ring.t
    lambdas = []
    for i in range(1, M.ring.n):
        cols = []
        for g in members[i + 1].gens:
            lifted = lift(members[i], tuple(t * p if p else p for p in g))
            if lifted is None:
                raise ModuleError("t-image escaped the next annihilator (presentation bug)")
            cols.append(lifted)
        lam = ModMap(layers[i], layers[i - 1], cols)
        if not lam.is_injective():
            raise ModuleError("annihilator layer map failed injectivity")
        lambdas.append(lam)
    return members, lambdas


def comparison_maps(M: PresMod) -> ComparisonData:
    upper_members, lambdas = annihilator_side(M)
    first = first_canonical_filtration(M)
    lower_layers = list(layer_quotients(M, first))

    mus = []
    for src, tgt in zip(lower_layers, lower_layers[1:]):
        mu = ModMap(src, tgt, [tgt.gen_column(j) for j in range(tgt.ngens)])
        if not mu.is_surjective():
            raise ModuleError("image layer map failed surjectivity")
        mus.append(mu)

    return ComparisonData(
        lower_members=first,
        upper_members=upper_members,
        lambdas=lambdas,
        mus=mus,
        gamma_ker=[kernel_presentation(mu) for mu in mus],
        gamma_coker=[cokernel_presentation(lam) for lam in lambdas],
    )


def intersection_gens(A: Submodule, B: Submodule) -> list[Column]:
    """Generators of A ∩ B: the combinations of A's generators that lie in
    B, one for each column of the kernel of A's generators through B."""
    ring, width = A.ambient.ring, A.ambient.ngens
    met = [_combine(ring, c, A.gens, width) for c in B.kernel_through(A.gens)]
    return [g for g in met if any(g)]


def refine_chains(M: PresMod, D: list, F: list) -> tuple[list, list, list]:
    """Common-refinement chains of any two filtrations D and F of a graded
    M, each descending from M to zero, by kernel intersections, with the
    answer shape of ``fpmod.refine_filtrations``: member (i, j) of the
    first chain is D_(i+1) + (D_i ∩ F_j) and member (j, i) of the second
    F_(j+1) + (F_j ∩ D_i); crosswise layers are matched by Hilbert series,
    HS(A/B) = HS(M/B) - HS(M/A), and each returned chain keeps its first
    member and each member that ends a nonzero layer."""
    if M.grading is None:
        raise ModuleError("refinement requires a graded ambient module")
    whole = hilbert_series_presmod(M)
    zero = HilbertSeries.make({}, whole.nvars)

    def thread(outer, inner):
        # member (i, j) sits at index i*m + j, for m = len(inner) - 1
        chain = []
        for i in range(len(outer) - 1):
            chain.append(outer[i])
            for j in range(1, len(inner) - 1):
                chain.append(Submodule(M, list(outer[i + 1].gens)
                                       + intersection_gens(outer[i], inner[j])))
        chain.append(outer[-1])
        return chain

    def layer_series(chain):
        quotients = ([zero]
                     + [hilbert_series_presmod(quotient_by_submodule(M, X.gens))
                        for X in chain[1:-1]]
                     + [whole])
        return [below - above for above, below in zip(quotients, quotients[1:])]

    d_chain, f_chain = thread(D, F), thread(F, D)
    d_series, f_series = layer_series(d_chain), layer_series(f_chain)
    m_d, m_f = len(D) - 1, len(F) - 1
    pairing, d_ends, f_ends = [], [], []
    for i in range(m_d):
        for j in range(m_f):
            k, l = i * m_f + j, j * m_d + i
            hs = agree(ModuleError, f"series of crosswise layer ({i},{j})",
                       first_chain=d_series[k], second_chain=f_series[l])
            if hs.numerator_coeffs:
                pairing.append(((i, j), hs))
                d_ends.append(k + 1)
                f_ends.append(l + 1)
    return ([d_chain[0]] + [d_chain[k] for k in d_ends],
            [f_chain[0]] + [f_chain[l] for l in sorted(f_ends)], pairing)


def layer_generic_type(M: PresMod) -> tuple:
    """The generic type of M read off each layer t^i M/t^(i+1) M of the
    image filtration, presented by ``subquotient``: its rank over the
    fraction field of the base ring is its generator count less the
    ``generic_rank`` of its relations with t killed."""
    n = M.ring.n
    ranks = [layer.ngens - generic_rank(base_relation_matrix(layer))
             for layer in layer_quotients(M, first_canonical_filtration(M))]
    ranks.append(0)
    return tuple(ranks[i - 1] - ranks[i] for i in range(1, n + 1))
