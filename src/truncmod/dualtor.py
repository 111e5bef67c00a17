"""Duality and torsion for presented modules over R[n] = Q[x..][t]/(t^n).

Dual means Hom(-, R[n]).  Every module carries a comparison map into its
double dual sending a generator to evaluation at that generator; its kernel
is exactly the torsion submodule: the elements killed by something with
nonzero t-free part.  Kernel and torsion are computed by different machinery
(Hom presentations on one side, annihilator ideals and saturation on the
other), so each route serves as a check on the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Poly
from .fpmod import (
    Column,
    HomModule,
    ModMap,
    ModuleError,
    PresMod,
    Submodule,
    free_module,
    hom_module,
)


def _rank_one_target(M: PresMod) -> PresMod:
    tw = M.grading.t_weight if M.grading is not None else 1
    return free_module(M.ring, 1, t_weight=tw)


def dual_hom(M: PresMod) -> HomModule:
    """Hom(M, R[n]) together with its generator matrices; each generator is
    a functional recorded by its values on M's generators."""
    return hom_module(M, _rank_one_target(M))


def dual(M: PresMod) -> PresMod:
    """The dual module Hom(M, R[n])."""
    return dual_hom(M).presentation


def natural_map(M: PresMod) -> ModMap:
    """The comparison map M -> dual(dual(M)) sending m to evaluation at m."""
    dh = dual_hom(M)
    D = dh.presentation
    ddh = hom_module(D, _rank_one_target(M))
    h = D.ngens
    # the double dual's generators as functionals on D, in flat coordinates
    functionals = Submodule(free_module(M.ring, h),
                            [tuple(mat[a][0] for a in range(h)) for mat in ddh.gen_matrices])
    cols: list[Column] = []
    for i in range(M.ngens):
        # evaluation at generator i
        lifted = functionals.lift(tuple(dh.gen_matrices[a][i][0] for a in range(h)))
        if lifted is None:
            raise ModuleError("evaluation functional escaped the double dual")
        cols.append(lifted)
    return ModMap(M, ddh.presentation, cols)


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
    """The torsion submodule, as the kernel of the double-dual map, with an
    independent certificate per generator and a saturation cross-check.

    For each kernel generator the annihilator ideal must contain an element
    with nonzero t-free part (the witness); the relation span saturated by
    the product of all witnesses must then equal the span of the kernel.
    Failure of either check is a ModuleError, not a verdict.
    """
    ring = M.ring
    tmap = natural_map(M)
    ker = [g for g in tmap.kernel_gens() if not M.zero_submodule().contains(g)]

    witnesses: list[tuple[Column, Poly]] = []
    for g in ker:
        s = next((a for a in annihilator_ideal(M, g) if ring.drop_t(a).terms),
                 None)
        if s is None:
            raise ModuleError(
                "double-dual kernel element has no annihilator outside (t)")
        s = ring.truncate(s)
        if not M.zero_submodule().contains(tuple(s * p for p in g)):
            raise ModuleError("annihilator witness fails to kill its generator")
        witnesses.append((g, s))

    s_star = ring.S.one()
    for _g, s in witnesses:
        s_star = ring.truncate(s_star * s)
    submodule = Submodule(M, ker)
    if not submodule.equals(M.zero_submodule().saturation(s_star)):
        raise ModuleError("saturation oracle disagrees with the double-dual kernel")

    return TorsionReport(submodule, witnesses, not ker)
