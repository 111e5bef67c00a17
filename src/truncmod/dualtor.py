"""Duality and torsion for presented modules over R[n] = Q[x..][t]/(t^n).

Dual means Hom(-, R[n]).  The torsion submodule, the elements killed by
something with nonzero t-free part, is the kernel of evaluation at the
dual's generators: m goes to (f_1(m), .., f_h(m)) in R[n]^h.  That is the
kernel of the comparison map into the double dual, since evaluation at m
vanishes exactly when every generator f_a of the dual does, so neither the
double dual nor the dual's relations are built.  The kernel is checked by
different machinery (annihilator ideals and saturation), so each route
serves as a check on the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Poly
from .fpmod import (
    Column,
    ModuleError,
    PresMod,
    Submodule,
    free_module,
    hom_module,
    maps_into,
)


def _rank_one_target(M: PresMod) -> PresMod:
    tw = M.grading.t_weight if M.grading is not None else 1
    return free_module(M.ring, 1, t_weight=tw)


def dual(M: PresMod) -> PresMod:
    """The dual module Hom(M, R[n])."""
    return hom_module(M, _rank_one_target(M))


@dataclass
class TorsionReport:
    """Torsion content of a module.

    ``witnesses`` pairs each torsion generator (in free-cover coordinates)
    with an explicit annihilating element whose t-free part is nonzero.
    """

    submodule: Submodule
    witnesses: list[tuple[Column, Poly]]
    is_torsion_free: bool


def annihilator_ideal(M: PresMod, g: Column) -> list[Poly]:
    """Generators of {s : s*g = 0 in M}, by a syzygy computation."""
    return [c[0] for c in M.zero_submodule().kernel_through([g])]


def torsion(M: PresMod) -> TorsionReport:
    """The torsion submodule, as the kernel of evaluation at the dual's
    generators, with an independent certificate per generator and a
    saturation cross-check.

    For each kernel generator the annihilator ideal must contain an element
    with nonzero t-free part (the witness); the relation span saturated by
    the product of all witnesses must then equal the span of the kernel.
    Failure of either check is a ModuleError, not a verdict.
    """
    ring = M.ring
    funcs = maps_into(_rank_one_target(M), M.ngens, M.relations)
    evaluation = [tuple(f[i] for f in funcs) for i in range(M.ngens)]
    ker = [g for g in free_module(ring, len(funcs)).zero_submodule().kernel_through(evaluation)
           if not M.zero_submodule().contains(g)]

    witnesses: list[tuple[Column, Poly]] = []
    for g in ker:
        s = next((a for a in annihilator_ideal(M, g) if ring.drop_t(a).terms),
                 None)
        if s is None:
            raise ModuleError(
                "evaluation kernel element has no annihilator outside (t)")
        if not M.zero_submodule().contains(tuple(s * p for p in g)):
            raise ModuleError("annihilator witness fails to kill its generator")
        witnesses.append((g, s))

    s_star = ring.S.one()
    for _g, s in witnesses:
        s_star = s_star * s
    submodule = Submodule(M, ker)
    if not submodule.equals(M.zero_submodule().saturation(s_star)):
        raise ModuleError("saturation oracle disagrees with the evaluation kernel")

    return TorsionReport(submodule, witnesses, not ker)
