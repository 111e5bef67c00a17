"""Regular sequences over R[n] = Q[x..][t]/(t^n) and the ideals they generate.

A sequence is regular when each entry is a non zero divisor modulo its
predecessors.  The verdict is computed twice: by running the colon-ideal
ladder directly in R[n], and by reducing every entry mod t and running the
same ladder in R[1] = R[n]/(t), the base ring; ``Submodule`` supplies t^n
or t.  The two runs must agree; a failure comes with a witness element that
multiplies into the partial ideal without belonging to it.

The test is global: every colon is taken in R[n] itself, exactly over the
polynomial ring, not in a localisation at the origin.

Every function takes the ``TruncRing`` and the sequence as ``Poly``s of its
``S``, reduced mod t^n as ``TruncRing.parse`` returns them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import ArithError, Poly, agree
from .fpmod import PresMod, Submodule, free_module, graded_or_plain, infer_grading
from .multiring import TruncRing


class SequenceError(ArithError):
    """Bad sequence input, or two regularity routes that disagree."""


@dataclass
class SequenceReport:
    """Outcome of a regularity test.

    ``witness_index`` is the 1-based position k of the first failure and
    ``witness`` an element a with a*x_k in (x_1..x_{k-1}) but a itself not;
    both are None for a regular sequence.
    """

    elements: list[Poly]
    reductions: list[Poly]
    regular: bool
    witness_index: int | None = None
    witness: Poly | None = None


def _ladder(ring: TruncRing, gens: list[Poly]) -> tuple[int | None, Poly | None]:
    """First failure of the colon ladder in ``ring``: smallest 0-based k
    such that ((x_1..x_k) : x_{k+1}) exceeds the ideal, with an offending
    colon generator; (None, None) when every step passes.  The ``gens`` are
    elements of ``ring``."""
    free = free_module(ring, 1)
    prior = []
    for k, f in enumerate(gens):
        ideal = Submodule(free, prior)
        for c in ideal.kernel_through([(f,)]):
            if not ideal.contains(c):
                return k, c[0]
        prior.append((f,))
    return None, None


def is_regular_sequence(ring: TruncRing, seq: list[Poly]) -> SequenceReport:
    """Two-route regularity test; raises SequenceError when the direct R[n]
    ladder and the reduced base-ring ladder disagree."""
    if not seq:
        raise SequenceError("empty sequence")
    reductions = [ring.drop_t(u) for u in seq]

    # the reductions run in R[1] = R[n]/(t), the base ring
    r1 = TruncRing(ring.base.variables, 1, ring.base.order)
    k_base, _ = _ladder(r1, [r1.inject(u) for u in reductions])
    k_direct, witness = _ladder(ring, seq)

    # the verdicts must agree; the failure positions may differ
    regular = agree(SequenceError, "is the sequence regular",
                    base_ladder=k_base is None, direct_ladder=k_direct is None)
    if regular:
        return SequenceReport(list(seq), reductions, True)

    # re-verify the witness by explicit membership
    prior = Submodule(free_module(ring, 1), [(u,) for u in seq[:k_direct]])
    if prior.contains((witness,)) or not prior.contains((witness * seq[k_direct],)):
        raise SequenceError("failure witness does not verify")
    return SequenceReport(list(seq), reductions, False, k_direct + 1, witness)


def shadow_membership(ring: TruncRing, y: Poly, seq: list[Poly]) -> bool:
    """Whether t^(n-1)*y lands in the sequence ideal; equivalently (for a
    regular sequence, and checked both ways) whether y lies in the ideal of
    the t = 0 reductions."""
    if y.ring != ring.base:
        raise SequenceError("shadow element must live in the base ring")
    report = is_regular_sequence(ring, seq)
    if not report.regular:
        raise SequenceError("shadow test requires a regular sequence")

    ideal = Submodule(free_module(ring, 1), [(u,) for u in seq])
    probe = ring.t ** (ring.n - 1) * ring.inject(y)
    in_ideal = ideal.contains((probe,))

    r1 = TruncRing(ring.base.variables, 1, ring.base.order)
    reduced_ideal = Submodule(free_module(r1, 1),
                              [(r1.inject(p),) for p in report.reductions])
    return agree(SequenceError, "is t^(n-1)*y in the sequence ideal",
                 t_power_membership=in_ideal,
                 reduction_membership=reduced_ideal.contains((r1.inject(y),)))


def ideal_presentation(ring: TruncRing, seq: list[Poly]) -> PresMod:
    """The ideal generated by the sequence, as a module: one generator per
    element, relations the complete syzygy module over R[n]."""
    if not seq:
        raise SequenceError("empty sequence")
    cols = [(u,) for u in seq]
    relations = free_module(ring, 1).zero_submodule().kernel_through(cols)

    # a zero element leaves the ideal ungraded
    grading = (infer_grading(ring, cols, 1, lambda pos: 0)
               if all(seq) else None)
    return graded_or_plain(ring, len(seq), relations, grading)
