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
evaluation at the dual's generators."""

import random
from dataclasses import dataclass
from fractions import Fraction

import groebner_oracle
from truncmod.arith import Poly
from truncmod.fpmod import (
    Grading,
    ModMap,
    ModuleError,
    PresMod,
    Submodule,
    column_degree,
    first_canonical_filtration,
    free_module,
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
    hilbert_series_presmod,
    layer_base_series,
    polynomial_from_series,
)


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
                rows[j][c] = ring.truncate(rows[j][c] + q * rows[i][c])
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
                rows[r][b] = ring.truncate(rows[r][b] + q * rows[r][a])
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
                rows[r].append(ring.truncate(q * rows[r][a]))

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
