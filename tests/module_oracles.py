"""Oracles for the module tests.

``transformed_presentation`` gives another presentation of the same module,
so an answer that must not depend on the generating set can be compared
across the two.  ``koszul_h1_vanishes`` decides regularity of a short
sequence by first Koszul homology, a route independent of
``regseq``'s colon ladders.  ``assert_filtration`` checks that a list of
submodules is a filtration."""

import random
from fractions import Fraction

from truncmod.arith import Poly
from truncmod.fpmod import Grading, PresMod, Submodule, column_degree, free_module


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
            c = Fraction(rng.choice([1, -1, 2, 3]))
            for cc in range(nc):
                rows[i][cc] = rows[i][cc] * c
        elif op == "col_scale" and nc >= 1:
            a = rng.randrange(nc)
            c = Fraction(rng.choice([1, -1, 2, 3]))
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
    assert members[-1].is_zero(), "the chain does not end at zero"
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
