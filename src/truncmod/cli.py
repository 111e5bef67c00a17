"""JSON command-line front end.

One job document in (stdin or a file), one result document out (stdout).
The document carries a ring description, a payload, and options; the
subcommand on the command line picks the operation.  Polynomials travel as
strings in the canonical grammar, so any result can be fed back in.

Exit codes: 0 when the computation completed (a false verdict is still 0),
2 for schema or parse problems, 3 for computation errors, 4
(``EXIT_INTERNAL``) for a fault of the program rather than of its input.
Errors are reported as a JSON document with an "error" object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .arith import ArithError, MonomialOrder, Poly, grevlex, lex
from .doublepoint import (
    ChartChange,
    LocalDoubleRing,
    PointIdeal,
    TauClass,
    ext_complex_check,
    extension_module,
    is_balanced_extension,
    recover_ideal,
    verify_maximal_ideal_resolution,
)
from .doublepoint import (
    affine_difference,
    change_chart,
    ideals_equal,
    lambda_coord,
    tau,
)
from .dualtor import dual, torsion
from .fpmod import (
    Grading,
    PresMod,
    Submodule,
    extension_R_by_Ri,
    ext1_module,
    first_canonical_filtration,
    free_module,
    generic_type,
    is_balanced,
    layer_quotients,
    quasi_free_type,
    refine_filtrations,
    second_canonical_filtration,
    truncated_free,
)
from .hilbert import (
    hilbert_polynomial,
    presmod_dimension_by_enumeration,
    rank_degree_reduced,
    reduced_hilbert_polynomial,
)
from .multiring import (
    AutMap,
    TruncRing,
    compose,
    is_zero_divisor,
    verify_cocycle,
    zero_divisor_witness,
)
from .regseq import ideal_presentation, is_regular_sequence, shadow_membership

# Exit code of a job that hit a fault of the program rather than of its input.
EXIT_INTERNAL = 4


class SchemaError(Exception):
    """Bad job document: missing fields, wrong shapes, unparsable strings."""


# -- document plumbing ------------------------------------------------------
#
# Every value read from a job document goes through these readers, so a
# value of the wrong JSON shape is a schema error naming its field.

_ABSENT = object()


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


def _require(doc, key: str, where: str, default=_ABSENT):
    """``doc[key]`` of the object ``doc``, or ``default`` when the key is
    absent and a default is given."""
    value = _object(doc, where).get(key, default)
    if value is _ABSENT:
        raise SchemaError(f"{where}: missing field {key!r}")
    return value


def _list(value, where: str, length: int | None = None,
          nonempty: bool = False) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list")
    if length is not None and len(value) != length:
        raise SchemaError(f"{where} must have {length} entries, got {len(value)}")
    if nonempty and not value:
        raise SchemaError(f"{where} must be a nonempty list")
    return value


def _rows(value, where: str, count: int | None, width: int, ring) -> list[tuple]:
    """A list of ``count`` rows (any number when None), each a list of
    ``width`` polynomial strings parsed in ``ring``."""
    return [tuple(_parse_poly(ring, p, where)
                  for p in _list(row, f"{where}[{i}]", width))
            for i, row in enumerate(_list(value, where, count))]


def _parse_poly(ring, text, where: str) -> Poly:
    if not isinstance(text, str):
        raise SchemaError(f"{where}: expected a polynomial string, got {text!r}")
    try:
        return ring.parse(text)
    except ArithError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_frac(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{where}: expected an integer or 'p/q' string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not,
    although Python's ``bool`` subclasses ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_int(value, where: str) -> int:
    """``int(value)``, with what ``int`` rejects, a JSON boolean and a number
    with a fractional part reported as a schema error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: expected an integer, got {value!r}") from exc


def _parse_degree(value, where: str) -> int:
    """A generator degree or a ``t_weight``: an integer of magnitude at most
    ``MAX_DEGREE``."""
    degree = _parse_int(value, where)
    if abs(degree) > MAX_DEGREE:
        raise SchemaError(f"{where} must lie in -{MAX_DEGREE}..{MAX_DEGREE}, got {degree}")
    return degree


def _ser_frac(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ser_col(col) -> list[str]:
    return [str(p) for p in col]


def _ser_presmod(P: PresMod) -> dict:
    return {
        "generators": P.ngens,
        "relations": [_ser_col(c) for c in P.relations],
        "degrees": list(P.grading.gen_degrees) if P.grading else None,
        "t_weight": P.grading.t_weight if P.grading else None,
    }


def _order(options: dict) -> MonomialOrder:
    return lex() if options.get("order") == "lex" else grevlex()


def _build_ring(job: dict, options: dict) -> TruncRing:
    ring_doc = _require(job, "ring", "job")
    variables = _require(ring_doc, "variables", "ring")
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) for v in variables)):
        raise SchemaError("ring.variables must be a nonempty list of names")
    if len(variables) > MAX_VARIABLES:
        raise SchemaError(f"ring.variables must name at most {MAX_VARIABLES} "
                          f"variables, got {len(variables)}")
    n = _require(ring_doc, "n", "ring", 1)
    if not _is_integer(n) or not 1 <= n <= MAX_RING_N:
        raise SchemaError(f"ring.n must be an integer in 1..{MAX_RING_N}, got {n!r}")
    try:
        return TruncRing(tuple(variables), n, _order(options))
    except ArithError as exc:
        raise SchemaError(f"ring: {exc}") from exc


def _option(options: dict, key: str, default: int) -> int:
    """``options[key]``, or ``default`` when it is absent or null; an
    explicit 0 is kept."""
    value = options.get(key)
    return default if value is None else value


def _double_ring(job: dict, options: dict) -> LocalDoubleRing:
    ring_doc = job.get("ring")
    if ring_doc is not None:
        if _require(ring_doc, "variables", "ring", None) not in (None, ["x", "y"]):
            raise SchemaError("point-ideal commands fix the ring Q[x,y][t]/(t^2)")
        if _require(ring_doc, "n", "ring", None) not in (None, 2):
            raise SchemaError("point-ideal commands require n = 2")
    return LocalDoubleRing(_order(options))


def _parse_span(tr: TruncRing, payload: dict) -> tuple[int, list]:
    """Rank and columns of a span: either 'generators' (rank 1 strings) or
    'vectors' (lists of strings, one entry per component).  The rank, given
    or read off the first vector, lies in 0..``MAX_RANK``."""
    if "generators" in payload:
        return 1, [(_parse_poly(tr, g, "payload.generators"),)
                   for g in _list(payload["generators"], "payload.generators")]
    vectors = _list(_require(payload, "vectors", "payload"), "payload.vectors",
                    nonempty=True)
    rank = _require(payload, "rank", "payload", None)
    rank = (len(_list(vectors[0], "payload.vectors[0]")) if rank is None
            else _parse_int(rank, "payload.rank"))
    if not 0 <= rank <= MAX_RANK:
        raise SchemaError(f"payload.rank (given or the width of payload.vectors[0]) "
                          f"must lie in 0..{MAX_RANK}, got {rank}")
    return rank, _rows(vectors, "payload.vectors", None, rank, tr)


def _ideal_gens(tr: TruncRing, payload: dict, where: str) -> list[Poly]:
    """The parsed generators of an ``ideal`` payload."""
    return [_parse_poly(tr, g, f"{where}.ideal")
            for g in _list(payload["ideal"], f"{where}.ideal", nonempty=True)]


def _parse_presmod(tr: TruncRing, payload: dict, where: str = "payload") -> PresMod:
    """A module from one of the accepted shapes: an ideal (syzygy
    presentation built here), an explicit presentation, a free module, or a
    truncated free module."""
    _object(payload, where)
    if "ideal" in payload:
        return ideal_presentation(tr, _ideal_gens(tr, payload, where))
    if "presentation" in payload:
        pres, where = payload["presentation"], f"{where}.presentation"
        ngens = _require(pres, "generators", where)
        if not _is_integer(ngens) or not 0 <= ngens <= MAX_RANK:
            raise SchemaError(
                f"{where}.generators must be an integer in 0..{MAX_RANK}, got {ngens!r}")
        rels = _rows(_require(pres, "relations", where, []), f"{where}.relations",
                     None, ngens, tr)
        degrees = _require(pres, "degrees", where, None)
        grading = None if degrees is None else Grading(
            tuple(_parse_degree(d, f"{where}.degrees")
                  for d in _list(degrees, f"{where}.degrees", ngens)),
            _parse_degree(pres.get("t_weight", 1), f"{where}.t_weight"))
        try:
            return PresMod(tr, ngens, rels, grading)
        except ArithError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if "free" in payload:
        shape, where = payload["free"], f"{where}.free"
        rank = _parse_int(_require(shape, "rank", where), f"{where}.rank")
        if not 0 <= rank <= MAX_RANK:
            raise SchemaError(f"{where}.rank must lie in 0..{MAX_RANK}, got {rank}")
        # an empty or missing list means every degree is 0
        degrees = shape.get("degrees")
        return free_module(
            tr, rank,
            tuple(_parse_degree(d, f"{where}.degrees")
                  for d in _list(degrees, f"{where}.degrees", rank)) if degrees else None,
            _parse_degree(shape.get("t_weight", 1), f"{where}.t_weight"))
    if "truncated_free" in payload:
        shape, where = payload["truncated_free"], f"{where}.truncated_free"
        level = _require(shape, "level", where)
        return truncated_free(
            tr, _parse_int(level, f"{where}.level"),
            _parse_degree(shape.get("degree", 0), f"{where}.degree"),
            _parse_degree(shape.get("t_weight", 1), f"{where}.t_weight"))
    raise SchemaError(
        f"{where}: expected one of 'ideal', 'presentation', 'free', "
        "'truncated_free'")


def _parse_aut(tr: TruncRing, doc, where: str) -> AutMap:
    deriv = _require(doc, "deriv", where, None)
    try:
        if deriv is not None:
            return AutMap.from_deriv(
                tr, {v: _parse_poly(tr.base, p, f"{where}.deriv")
                     for v, p in _object(deriv, f"{where}.deriv").items()},
                _parse_poly(tr.base, doc.get("alpha", "1"), f"{where}.alpha"))
        images = _object(_require(doc, "images", where), f"{where}.images")
        return AutMap(tr, {v: _parse_poly(tr, p, f"{where}.images")
                           for v, p in images.items()},
                      _parse_poly(tr, _require(doc, "t_image", where), f"{where}.t_image"))
    except ArithError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _ser_aut(a: AutMap) -> dict:
    out = {
        "images": {v: str(p) for v, p in sorted(a.var_images.items())},
        "t_image": str(a.t_image),
    }
    if a.ring.n == 2:
        out["deriv"] = {v: str(a.deriv_coeff(v)) for v in a.ring.base.variables}
        out["alpha"] = str(a.alpha())
    return out


def _parse_tau(ring: LocalDoubleRing, data, where: str):
    if isinstance(data, str):
        return _parse_poly(ring.trunc, data, where)
    if isinstance(data, list) and len(data) == 2:
        if all(isinstance(v, str) for v in data):
            return (_parse_poly(ring.base, data[0], where),
                    _parse_poly(ring.base, data[1], where))
        return TauClass(_parse_frac(data[0], where), _parse_frac(data[1], where))
    raise SchemaError(f"{where}: expected a class element string or a pair")


def _parse_chart(ring: LocalDoubleRing, doc) -> ChartChange:
    return ChartChange(*(
        _parse_poly(ring.base, _require(doc, name, "payload.chart", default),
                    f"payload.chart.{name}")
        for name, default in (("alpha", "1"), ("beta", "0"), ("gamma", "0"),
                              ("delta", "1"), ("u", "0"), ("v", "0"))))


def _point_ideal(ring: LocalDoubleRing, doc, where: str) -> PointIdeal:
    a = _parse_poly(ring.base, _require(doc, "a", where), f"{where}.a")
    b = _parse_poly(ring.base, _require(doc, "b", where), f"{where}.b")
    return PointIdeal(ring, a, b)


def _sequence(tr: TruncRing, payload: dict) -> list:
    seq = _list(_require(payload, "sequence", "payload"), "payload.sequence",
                nonempty=True)
    return [_parse_poly(tr, s, "payload.sequence") for s in seq]


# -- command handlers -------------------------------------------------------
#
# Each takes the ring ``_run`` built for the job, the payload object and
# the options.


def _cmd_gb(ring, payload, options):
    rank, cols = _parse_span(ring, payload)
    basis = Submodule(free_module(ring, rank), cols).basis()
    return {"basis": [_ser_col(c) for c in basis], "rank": rank}


def _cmd_nf(ring, payload, options):
    rank, cols = _parse_span(ring, payload)
    elem = payload.get("element")
    if isinstance(elem, str):
        elem = [elem]
    col = tuple(_parse_poly(ring, p, "payload.element")
                for p in _list(elem, "payload.element", rank))
    nf = Submodule(free_module(ring, rank), cols).normal_form(col)
    return {"normal_form": _ser_col(nf), "member": not any(nf)}


def _cmd_syz(ring, payload, options):
    rank, cols = _parse_span(ring, payload)
    syz = free_module(ring, rank).zero_submodule().kernel_through(cols)
    return {"syzygies": [_ser_col(c) for c in syz]}


def _cmd_zerodivisor(ring, payload, options):
    u = _parse_poly(ring, _require(payload, "element", "payload"), "element")
    witness = zero_divisor_witness(ring, u)
    return {"zerodivisor": is_zero_divisor(ring, u),
            "witness": str(witness) if witness is not None else None}


def _cmd_aut_compose(ring, payload, options):
    first = _parse_aut(ring, _require(payload, "first", "payload"), "first")
    second = _parse_aut(ring, _require(payload, "second", "payload"), "second")
    return {"composite": _ser_aut(compose(first, second))}


def _cmd_aut_cocycle(ring, payload, options):
    ij = _parse_aut(ring, _require(payload, "ij", "payload"), "ij")
    jk = _parse_aut(ring, _require(payload, "jk", "payload"), "jk")
    ik = _parse_aut(ring, _require(payload, "ik", "payload"), "ik")
    return {"consistent": verify_cocycle(ij, jk, ik)}


def _cmd_filtration(ring, payload, options):
    M = _parse_presmod(ring, payload)

    def chain_doc(members):
        layers = []
        for Q in layer_quotients(M, members):
            layers.append({
                "generators": Q.ngens,
                "relations": len(Q.relations),
                "t_annihilated": Q.is_t_annihilated(),
                "zero": Q.is_zero_module(),
            })
        return {"members": len(members), "layers": layers}

    return {"first": chain_doc(first_canonical_filtration(M)),
            "second": chain_doc(second_canonical_filtration(M))}


def _cmd_balanced(ring, payload, options):
    # an ideal's witness is written through its generators, parsed once
    _object(payload, "payload")
    gens = _ideal_gens(ring, payload, "payload") if "ideal" in payload else None
    M = _parse_presmod(ring, payload) if gens is None else ideal_presentation(ring, gens)
    rep = is_balanced(M)
    witness = None
    if rep.witness is not None:
        if gens is not None:
            elem = ring.S.zero()
            for c, g in zip(rep.witness, gens):
                elem = elem + c * g
            witness = str(elem)
        else:
            witness = _ser_col(rep.witness)
    # both route keys stay for the answer format, and each equals the verdict
    return {"balanced": rep.balanced, "by_composite": rep.balanced,
            "by_filtration": rep.balanced, "witness": witness,
            "witness_level": rep.witness_level, "note": rep.note}


def _cmd_quasifree(ring, payload, options):
    rep = quasi_free_type(_parse_presmod(ring, payload))
    return {"quasi_free": rep.type_vector is not None,
            "type": list(rep.type_vector) if rep.type_vector else None,
            "layer_ranks": rep.layer_ranks, "first_nonfree": rep.first_nonfree,
            "note": rep.note}


def _cmd_generictype(ring, payload, options):
    return {"type": list(generic_type(_parse_presmod(ring, payload)))}


def _cmd_torsion(ring, payload, options):
    rep = torsion(_parse_presmod(ring, payload))
    return {
        "torsion_free": rep.is_torsion_free,
        "generators": [_ser_col(g) for g in rep.submodule.gens],
        "witnesses": [{"element": _ser_col(g), "annihilator": str(s)}
                      for g, s in rep.witnesses],
    }


def _cmd_dual(ring, payload, options):
    return {"dual": _ser_presmod(dual(_parse_presmod(ring, payload)))}


def _cmd_ext1(ring, payload, options):
    M = _parse_presmod(ring, _require(payload, "source", "payload"), "source")
    N = _parse_presmod(ring, _require(payload, "target", "payload"), "target")
    E = ext1_module(M, N)
    out = {"ext1": _ser_presmod(E)}
    bound = options.get("degree_bound")
    if bound is not None and E.grading is not None:
        out["dimensions"] = [presmod_dimension_by_enumeration(E, d)
                             for d in range(bound + 1)]
    return out


def _cmd_extend(ring, payload, options):
    sigma = _parse_poly(ring, _require(payload, "sigma", "payload"), "sigma")
    level = _require(payload, "level", "payload")
    if not _is_integer(level):
        raise SchemaError("payload.level must be an integer")
    E = extension_R_by_Ri(ring, sigma, level)
    return {"module": _ser_presmod(E), "generic_type": list(generic_type(E))}


def _cmd_refine(ring, payload, options):
    M = _parse_presmod(ring, payload)
    Dr, Fr, pairs = refine_filtrations(M)
    return {"first_refined_members": len(Dr),
            "second_refined_members": len(Fr),
            "matched_layers": [list(p[0]) for p in pairs]}


def _cmd_regseq_check(ring, payload, options):
    rep = is_regular_sequence(ring, _sequence(ring, payload))
    return {"regular": rep.regular,
            "witness_index": rep.witness_index,
            "witness": str(rep.witness) if rep.witness is not None else None,
            "reductions": [str(p) for p in rep.reductions]}


def _cmd_regseq_shadow(ring, payload, options):
    y = _parse_poly(ring.base, _require(payload, "element", "payload"), "element")
    member = shadow_membership(ring, y, _sequence(ring, payload))
    return {"member": member}


def _cmd_tau(ring, payload, options):
    cls = tau(_point_ideal(ring, payload, "payload"))
    return {"tau": [_ser_frac(cls.c_x), _ser_frac(cls.c_y)]}


def _cmd_ideal_eq(ring, payload, options):
    J = _point_ideal(ring, _require(payload, "first", "payload"), "first")
    K = _point_ideal(ring, _require(payload, "second", "payload"), "second")
    return {"equal": ideals_equal(J, K)}


def _cmd_lambda(ring, payload, options):
    lam = lambda_coord(_point_ideal(ring, payload, "payload"))
    return {"lambda": [_ser_frac(c) for c in lam.coords], "chart": lam.chart}


def _cmd_chart(ring, payload, options):
    J = _point_ideal(ring, payload, "payload")
    ch = _parse_chart(ring, _require(payload, "chart", "payload"))
    if "difference_with" in payload:
        K = _point_ideal(ring, payload["difference_with"], "difference_with")
        diff = affine_difference(J, K, charts=(ch,))
        return {"difference": [_ser_frac(c) for c in diff]}
    lam = change_chart(J, ch)
    return {"lambda": [_ser_frac(c) for c in lam.coords], "chart": lam.chart}


def _cmd_resolution(ring, payload, options):
    overrides = {f"{key}_cols": _rows(payload[key], f"payload.{key}", 3, width,
                                      ring.trunc)
                 for key, width in (("phi1", 2), ("phi2", 3)) if key in payload}
    rep = verify_maximal_ideal_resolution(
        ring, _option(options, "degree_bound", 4), **overrides)
    return {"ok": rep.ok, "failures": rep.failures,
            "table": [list(r) for r in rep.dimension_table]}


def _cmd_extcheck(ring, payload, options):
    overrides = {key: _rows(payload[key], f"payload.{key}", 3, width, ring.base)
                 for key, width in (("psi1", 2), ("psi2", 3)) if key in payload}
    rep = ext_complex_check(ring, _option(options, "degree_bound", 4), **overrides)
    return {"ok": rep.ok, "failures": rep.failures,
            "table": [list(r) for r in rep.dimension_table]}


def _cmd_ideal_extend(ring, payload, options):
    tau_data = _parse_tau(ring, _require(payload, "tau", "payload"), "tau")
    rho = _parse_poly(ring.base, _require(payload, "rho", "payload"), "rho")
    M = extension_module(ring, tau_data, rho)
    return {"module": _ser_presmod(M), "balanced": is_balanced_extension(ring, M, rho)}


def _cmd_recover(ring, payload, options):
    tau_data = _parse_tau(ring, _require(payload, "tau", "payload"), "tau")
    J = recover_ideal(ring, tau_data)
    return {"a": str(J.a), "b": str(J.b),
            "generators": [str(J.gen_x), str(J.gen_y)]}


def _cmd_hilbert_poly(ring, payload, options):
    p = hilbert_polynomial(_parse_presmod(ring, payload))
    return {"coefficients": [_ser_frac(c) for c in p.coeffs],
            "degree": p.degree()}


def _cmd_hilbert_pred(ring, payload, options):
    p = reduced_hilbert_polynomial(_parse_presmod(ring, payload))
    rd = rank_degree_reduced(p)
    return {"coefficients": [_ser_frac(c) for c in p.coeffs],
            "degree": p.degree(),
            "support_dimension": rd.support_dimension,
            "rank_coefficient": _ser_frac(rd.rank_coefficient),
            "degree_coefficient": _ser_frac(rd.degree_coefficient)}


_HANDLERS = {
    "gb": _cmd_gb,
    "nf": _cmd_nf,
    "syz": _cmd_syz,
    "ring.zerodivisor": _cmd_zerodivisor,
    "aut.compose": _cmd_aut_compose,
    "aut.cocycle": _cmd_aut_cocycle,
    "module.filtration": _cmd_filtration,
    "module.balanced": _cmd_balanced,
    "module.quasifree": _cmd_quasifree,
    "module.generictype": _cmd_generictype,
    "module.torsion": _cmd_torsion,
    "module.dual": _cmd_dual,
    "module.ext1": _cmd_ext1,
    "module.extend": _cmd_extend,
    "module.refine": _cmd_refine,
    "regseq.check": _cmd_regseq_check,
    "regseq.shadow": _cmd_regseq_shadow,
    "ideal.tau": _cmd_tau,
    "ideal.eq": _cmd_ideal_eq,
    "ideal.lambda": _cmd_lambda,
    "ideal.chart": _cmd_chart,
    "ideal.resolution": _cmd_resolution,
    "ideal.extcheck": _cmd_extcheck,
    "ideal.extend": _cmd_ideal_extend,
    "ideal.recover": _cmd_recover,
    "hilbert.poly": _cmd_hilbert_poly,
    "hilbert.pred": _cmd_hilbert_pred,
}

COMMANDS = tuple(_HANDLERS)

# Largest ``options.degree_bound`` accepted.  The work grows steeply with
# it: ``module.ext1`` enumerates a dimension for every degree up to the
# bound, so without a limit one job runs without bound.  The largest value
# any test or benchmark job uses is 5.
MAX_OPTION_BOUND = 16

# Largest ``free.rank``, ``presentation.generators`` and span rank (the
# ``payload.rank`` of ``gb``, ``nf`` and ``syz``, given or read off the first
# vector) accepted.  Every filtration and refinement builds bases over that
# many generators, and a span's work grows with the square of its rank, so
# without a limit one job runs without bound; ``module.refine`` on 64 free
# generators at n = 2 takes about a second.  The largest value any
# benchmark job uses is 4.
MAX_RANK = 64

# Largest magnitude accepted for a generator degree (a ``degrees`` entry or
# ``truncated_free.degree``) and for a ``t_weight``.  ``hilbert.poly``
# checks its answer on every degree up to the spread of the generator
# degrees, so without a limit one job runs without bound.  The largest
# value any test or benchmark job uses is 2.
MAX_DEGREE = 64

# Largest number of ``ring.variables`` accepted.  Every basis and every
# dimension count grows with the number of variables: ``hilbert.poly`` on
# the ideal (x0, x1) at n = 2 takes about 0.3 s over 16 variables and 24 s
# over 40.  The most any test or benchmark job uses is 5.
MAX_VARIABLES = 16

# Largest ``ring.n`` accepted.  Module questions walk every power of t up to
# n, so without a limit one job runs without bound.  The largest value any
# test or benchmark job uses is 3.
MAX_RING_N = 16


def _emit(doc: dict) -> None:
    # Serialised in full before anything is written, so a document that
    # fails to serialise leaves no partial output.
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# Built once per process: parsing reads it and leaves it as it was.
_PARSER = argparse.ArgumentParser(
    prog="truncmod",
    description="Decision procedures for modules over Q[x..][t]/(t^n); "
                "one JSON job in, one JSON result out.")
_PARSER.add_argument("command", choices=COMMANDS, metavar="command",
                     help="one of: " + ", ".join(COMMANDS))
_PARSER.add_argument("input", nargs="?", default="-",
                     help="job document path, '-' for stdin (default)")
_PARSER.add_argument("--order", choices=("grevlex", "lex"), default=None,
                     help="monomial order for all rings")
_PARSER.add_argument("--degree-bound", type=int, default=None,
                     help="bound for degree-by-degree checks")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # noqa: BLE001 - a fault of the program, reported as one
        # imported here, not at startup, which it would slow by milliseconds
        import traceback

        # the innermost frame locates the fault without printing a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        _emit({"error": {"kind": "internal",
                         "message": f"{type(exc).__name__}: {exc} ({where})"}})
        return EXIT_INTERNAL


def _run(args: argparse.Namespace) -> int:
    """Read, answer and emit one job; the exit code of ``main``."""
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        job = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        # json.loads raises RecursionError on documents nested too deeply
        # and ValueError on an integer literal longer than int() converts;
        # a file that is not UTF-8 raises UnicodeDecodeError, a ValueError
        _emit({"error": {"kind": "schema", "message": f"cannot read job: {exc}"}})
        return 2

    started = time.perf_counter()
    try:
        if not isinstance(job, dict):
            raise SchemaError("job document must be a JSON object")
        declared = job.get("command")
        if declared is not None and declared != args.command:
            raise SchemaError(
                f"document says command {declared!r}, invoked as {args.command!r}")
        options = job.get("options")
        options = {} if options is None else dict(_object(options, "options"))
        for key in sorted(options.keys() - {"order", "degree_bound"}):
            raise SchemaError(f"options.{key} is not an option")
        for key, value in (("order", args.order), ("degree_bound", args.degree_bound)):
            if value is not None:
                options[key] = value
        if options.get("order") not in (None, "grevlex", "lex"):
            raise SchemaError("options.order must be 'grevlex' or 'lex'")
        bound = options.get("degree_bound")
        if bound is not None:
            if not _is_integer(bound):
                raise SchemaError(f"options.degree_bound must be an integer, got {bound!r}")
            if not 0 <= bound <= MAX_OPTION_BOUND:
                raise SchemaError(
                    f"options.degree_bound must lie in 0..{MAX_OPTION_BOUND}, got {bound}")
        payload = _object(job.get("payload"), "payload")
        # the point-ideal commands are exactly the ideal.* ones
        build = _double_ring if args.command.startswith("ideal.") else _build_ring
        result = _HANDLERS[args.command](build(job, options), payload, options)
    except SchemaError as exc:
        _emit({"error": {"kind": "schema", "message": str(exc)}})
        return 2
    except ArithError as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}})
        return 3

    result["meta"] = {
        "command": args.command,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
