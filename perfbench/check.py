"""Answer checking for benchmark jobs.

An answer must match the expected answer in its canonical form (through a
digest) and pass the property checks.  ``meta`` and free-text ``note``
fields are ignored.

Reduced bases, normal forms, verdicts, witness levels, invariants, types,
Hilbert coefficients and tables are canonical as returned.  Syzygies,
presentations and torsion generators are not: another correct program may
return other generators.  The canonical form replaces each of them with an
invariant of what it generates or presents, which any correct answer shares:

- syzygies: the reduced Groebner basis of the module they span together
  with the trivial syzygies ``t^n e_i``, so a missing syzygy shows;
- torsion generators: the reduced basis of their span together with the
  relations of the module, i.e. of the torsion submodule's preimage;
- presentations: the Fitting ideals of the presented module over
  ``Q[x..][t]/(t^n)``, each as a reduced basis, up to the first unit ideal.

Witnesses (zero divisor, balance, torsion, regular sequence failure) are
left out of the canonical form and checked by the property that defines
them.  Everything here uses the polynomial parser and arithmetic of
``truncmod.arith`` and a small Groebner basis routine of its own, never
truncmod's ``groebner``, so that a fault in the code being measured cannot
pass its own check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

_IGNORED = ("meta", "note")
# command -> answer fields that are witnesses, checked by property only
_WITNESS_FIELDS = {
    "ring.zerodivisor": ("witness",),
    "module.balanced": ("witness",),
    "module.torsion": ("witnesses",),
    "regseq.check": ("witness",),
}
# command -> answer field holding a presentation
_PRESENTATION_FIELD = {"module.dual": "dual", "module.ext1": "ext1",
                       "module.extend": "module", "ideal.extend": "module"}
# the fixed ring of the point-ideal commands, whose documents carry no ring
_DOUBLE_POINT_RING = {"variables": ["x", "y"], "n": 2}


# -- Groebner bases of submodules of S^r -------------------------------------
#
# A vector is a dict {(position, exponents): Fraction}.  Terms compare by
# degree reverse lexicographic order on the exponents, ties broken toward
# earlier positions.  Reduced bases in this fixed order are unique, so they
# can be compared through their digests.


def _key(term):
    pos, exps = term
    return sum(exps), tuple(-e for e in reversed(exps)), -pos


def _lead(v):
    return max(v, key=_key)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub_scaled(v, w, mono, coeff):
    """v - coeff * x^mono * w."""
    out = dict(v)
    for (pos, exps), c in w.items():
        term = (pos, tuple(x + y for x, y in zip(exps, mono)))
        value = out.get(term, 0) - coeff * c
        if value:
            out[term] = value
        else:
            out.pop(term, None)
    return out


def _reduce(v, basis, leads):
    """Full normal form of v modulo basis (whose leads are given)."""
    remainder, work = {}, dict(v)
    while work:
        term = _lead(work)
        for g, (pos, exps) in zip(basis, leads):
            if pos == term[0] and _divides(exps, term[1]):
                mono = tuple(x - y for x, y in zip(term[1], exps))
                work = _sub_scaled(work, g, mono, work[term] / g[(pos, exps)])
                break
        else:
            remainder[term] = work.pop(term)
    return remainder


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reduced_basis(vecs):
    """The reduced Groebner basis of the span of ``vecs``: Buchberger's
    algorithm with the chain criterion, then interreduction."""
    basis, leads, pairs = [], [], set()

    def add(v):
        new, lead = len(basis), _lead(v)
        pairs.update((i, new) for i, l in enumerate(leads) if l[0] == lead[0])
        basis.append(v)
        leads.append(lead)

    for v in vecs:
        r = _reduce(v, basis, leads)
        if r:
            add(r)
    while pairs:
        i, j = min(pairs, key=lambda p: (sum(_lcm(leads[p[0]][1], leads[p[1]][1])), p))
        pairs.discard((i, j))
        pos, lcm = leads[i][0], _lcm(leads[i][1], leads[j][1])
        if any(k not in (i, j) and leads[k][0] == pos and _divides(leads[k][1], lcm)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        s = {}
        for g, l, sign in ((basis[i], leads[i], 1), (basis[j], leads[j], -1)):
            mono = tuple(x - y for x, y in zip(lcm, l[1]))
            s = _sub_scaled(s, g, mono, Fraction(-sign) / g[l])
        r = _reduce(s, basis, leads)
        if r:
            add(r)
    kept = []
    for v in sorted(basis, key=lambda v: _key(_lead(v))):
        lead = _lead(v)
        if not any(l[0] == lead[0] and _divides(l[1], lead[1]) for l in map(_lead, kept)):
            kept.append(v)
    out = []
    for i, v in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        lead = _lead(v)
        r = _reduce(v, others, [_lead(g) for g in others])
        out.append({t: c / r[lead] for t, c in r.items()})
    return sorted(out, key=lambda v: _key(_lead(v)), reverse=True)


def _times_poly(v, p):
    out: dict = {}
    for (pos, exps), c in v.items():
        for e, d in p.terms.items():
            term = (pos, tuple(x + y for x, y in zip(exps, e)))
            out[term] = out.get(term, 0) + c * d
    return {t: c for t, c in out.items() if c}


def _member(v, basis) -> bool:
    return not _reduce(v, basis, [_lead(g) for g in basis])


def _serial(basis):
    return [[[pos, list(exps), str(c)]
             for (pos, exps), c in sorted(v.items(), key=lambda tc: _key(tc[0]),
                                          reverse=True)]
            for v in basis]


# -- modules given in a job ----------------------------------------------------


class _Module:
    """A module from a job payload, inside its ambient free module S^r:
    ``embed`` maps a coordinate column (or, for an ideal, an element) to its
    vector, ``relations`` span the zero submodule (t^n included) and
    ``generators`` are the vectors of the module's generators."""

    def __init__(self, S, n, payload):
        self.S = S
        if "ideal" in payload:
            self.ideal = [S.parse(g) for g in payload["ideal"]]
            self.rank, rels = 1, []
            self.generators = [self._vec([g]) for g in self.ideal]
        elif "presentation" in payload:
            pres = payload["presentation"]
            self.ideal, self.rank = None, pres["generators"]
            rels = [[S.parse(p) for p in row] for row in pres["relations"]]
        elif "free" in payload:
            self.ideal, self.rank, rels = None, payload["free"]["rank"], []
        else:
            level = payload["truncated_free"]["level"]
            self.ideal, self.rank, rels = None, 1, [[S.parse(f"t^{level}")]]
        if self.ideal is None:
            self.generators = [self._vec(self._unit(i)) for i in range(self.rank)]
        t_n = S.parse(f"t^{n}")
        self.relations = [self._vec(r) for r in rels] + [
            self._vec([t_n * p for p in self._unit(i)]) for i in range(self.rank)]

    def _unit(self, i):
        return [self.S.parse("1" if j == i else "0") for j in range(self.rank)]

    @staticmethod
    def _vec(polys):
        return {(pos, e): c for pos, p in enumerate(polys) for e, c in p.terms.items()}

    def embed(self, column):
        """The vector of a coordinate column, or of an element of an ideal
        given as one string."""
        if isinstance(column, str):
            return self._vec([self.S.parse(column)])
        polys = [self.S.parse(c) for c in column]
        if self.ideal is None:
            return self._vec(polys)
        total = self.S.zero()
        for c, g in zip(polys, self.ideal):
            total = total + c * g
        return self._vec([total])

    @staticmethod
    def times_t(v, power):
        return {(pos, e[:-1] + (e[-1] + power,)): c for (pos, e), c in v.items()}


class AnswerChecker:
    """Canonical forms and property checks of answers."""

    def __init__(self, arith):
        self.arith = arith

    def _ring(self, doc):
        ring = doc.get("ring", _DOUBLE_POINT_RING)
        return self.arith.PolyRing(list(ring["variables"]) + ["t"]), ring.get("n", 1)

    @staticmethod
    def _mod_t(p, n):
        return {e: c for e, c in p.terms.items() if e[-1] < n}

    # -- canonical form --------------------------------------------------------

    def canonical_digest(self, command: str, doc: dict, answer: dict) -> str:
        skip = _WITNESS_FIELDS.get(command, ()) + _IGNORED
        part = {k: v for k, v in answer.items() if k not in skip}
        if command == "syz":
            part["syzygies"] = self._syzygy_module(doc, answer["syzygies"])
        elif command == "module.torsion":
            part["generators"] = self._torsion_span(doc, answer["generators"])
        elif command in _PRESENTATION_FIELD:
            field = _PRESENTATION_FIELD[command]
            part[field] = self._fitting_ideals(doc, answer[field])
        text = json.dumps(part, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    def _syzygy_module(self, doc, rows):
        S, n = self._ring(doc)
        k = len(doc["payload"]["generators"])
        free = _Module(S, n, {"free": {"rank": k}})
        return _serial(reduced_basis([free.embed(r) for r in rows] + free.relations))

    def _torsion_span(self, doc, generators):
        S, n = self._ring(doc)
        module = _Module(S, n, doc["payload"])
        return _serial(reduced_basis([module.embed(g) for g in generators]
                                     + module.relations))

    def _fitting_ideals(self, doc, pres):
        """Fitting ideals F_0, F_1, ... of the presented module over
        S/(t^n), up to the first unit ideal."""
        S, n = self._ring(doc)
        rows = [[S.parse(p) for p in row] for row in pres["relations"]]
        k, t_n = pres["generators"], {(0, (0,) * (S.nvars - 1) + (n,)): Fraction(1)}
        dets: dict = {}

        def det(rs, cs):
            if not rs:
                return S.parse("1")
            if (rs, cs) not in dets:
                total = S.zero()
                for j, c in enumerate(cs):
                    term = rows[rs[0]][c] * det(rs[1:], cs[:j] + cs[j + 1:])
                    total = total - term if j % 2 else total + term
                dets[(rs, cs)] = total
            return dets[(rs, cs)]

        out = []
        for size in range(k, 0, -1):
            minors = [det(rs, cs) for rs in itertools.combinations(range(len(rows)), size)
                      for cs in itertools.combinations(range(k), size)]
            basis = reduced_basis([_Module._vec([m]) for m in minors] + [t_n])
            if basis == [{(0, (0,) * S.nvars): Fraction(1)}]:
                break
            out.append(_serial(basis))
        return out

    # -- properties ------------------------------------------------------------

    def check(self, command: str, doc: dict, answer: dict) -> str | None:
        """None when the properties of the answer hold, else what failed."""
        method = getattr(self, "_" + command.replace(".", "_"), None)
        return method(doc, answer) if method else None

    def _syz(self, doc, answer):
        S, n = self._ring(doc)
        gens = [S.parse(g) for g in doc["payload"]["generators"]]
        for row in answer["syzygies"]:
            if len(row) != len(gens):
                return "syzygy of the wrong length"
            total = S.zero()
            for c, g in zip(row, gens):
                total = total + S.parse(c) * g
            if self._mod_t(total, n):
                return f"syzygy {row} does not vanish mod t^{n}"
        return None

    def _ring_zerodivisor(self, doc, answer):
        S, n = self._ring(doc)
        witness = answer["witness"]
        if (witness is None) == answer["zerodivisor"]:
            return "witness present exactly when the element is not a zero divisor"
        if witness is None:
            return None
        w = S.parse(witness)
        if not self._mod_t(w, n):
            return "zero-divisor witness vanishes mod t^n"
        if self._mod_t(S.parse(doc["payload"]["element"]) * w, n):
            return "zero-divisor witness does not annihilate the element"
        return None

    def _module_balanced(self, doc, answer):
        """A witness at level i lies in ann(t^(n-i)) but not in t^i M."""
        if (answer["witness"] is None) != answer["balanced"]:
            return "balance witness present exactly when unbalanced"
        if answer["witness"] is None:
            return None
        S, n = self._ring(doc)
        module, level = _Module(S, n, doc["payload"]), answer["witness_level"]
        w = module.embed(answer["witness"])
        zero = reduced_basis(module.relations)
        if module.ideal is not None and not _member(w, reduced_basis(
                module.generators + module.relations)):
            return "balance witness is not in the ideal"
        if not _member(module.times_t(w, n - level), zero):
            return f"balance witness is not killed by t^{n - level}"
        if _member(w, reduced_basis([module.times_t(g, level) for g in module.generators]
                                    + module.relations)):
            return f"balance witness lies in t^{level} M"
        return None

    def _module_torsion(self, doc, answer):
        """Each witness element is nonzero in M and killed by its
        annihilator, which is a non zero divisor (nonzero mod t)."""
        if answer["torsion_free"] != (not answer["witnesses"]):
            return "torsion witnesses present exactly when not torsion free"
        S, n = self._ring(doc)
        module = _Module(S, n, doc["payload"])
        zero = reduced_basis(module.relations)
        for w in answer["witnesses"]:
            s = S.parse(w["annihilator"])
            if not self._mod_t(s, 1):
                return "torsion annihilator is a zero divisor"
            v = module.embed(w["element"])
            if _member(v, zero):
                return "torsion witness is zero in the module"
            if not _member(_times_poly(v, s), zero):
                return "torsion witness is not annihilated"
        return None

    def _presentation_widths(self, pres):
        k = pres["generators"]
        if any(len(r) != k for r in pres["relations"]):
            return "presentation relation of the wrong width"
        if pres["degrees"] is not None and len(pres["degrees"]) != k:
            return "presentation degrees of the wrong length"
        return None

    def _module_dual(self, doc, answer):
        return self._presentation_widths(answer["dual"])

    def _module_ext1(self, doc, answer):
        return self._presentation_widths(answer["ext1"])

    def _module_extend(self, doc, answer):
        return self._presentation_widths(answer["module"])

    def _ideal_extend(self, doc, answer):
        return self._presentation_widths(answer["module"])

    def _regseq_check(self, doc, answer):
        """A failure witness a at position k has a * x_k in (t^n, x_1..x_(k-1))
        and a not in it."""
        if (answer["witness"] is None) != answer["regular"]:
            return "failure witness present exactly when not regular"
        if answer["witness"] is None:
            return None
        S, n = self._ring(doc)
        seq = [S.parse(s) for s in doc["payload"]["sequence"]]
        k, a = answer["witness_index"], S.parse(answer["witness"])
        prior = reduced_basis([_Module._vec([p]) for p in seq[:k - 1]]
                              + [_Module._vec([S.parse(f"t^{n}")])])
        if not _member(_Module._vec([a * seq[k - 1]]), prior):
            return "failure witness does not multiply into the partial ideal"
        if _member(_Module._vec([a]), prior):
            return "failure witness lies in the partial ideal"
        return None


def check_answer(checker: AnswerChecker, expected: dict, key: str, command: str,
                 doc: dict, code: int, text: str) -> str | None:
    """None when the job's answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        answer = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    want = expected.get(key)
    if want is None:
        return "no expected answer for this job"
    try:
        problem = checker.check(command, doc, answer)
        if problem is None and checker.canonical_digest(command, doc, answer) != want:
            return "canonical answer differs from the expected one"
        return problem
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
