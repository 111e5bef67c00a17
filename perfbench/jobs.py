"""Seeded job corpora for the three benchmark workloads.

Every workload is a list of strata.  A stratum is one fixed question (a
command, a ring, a payload shape) and comes in ``VARIANTS`` variants that
differ only by a sign change of the variables, ``x -> -x`` on a pattern of
variables, and, where a job has just the two variables of the double-point
ring, by the swap ``x <-> y``.  module-questions also renames ``x, y`` per
variant, so that payloads without variables differ too.  These are ring
automorphisms, so the variants of a stratum do the same amount of work on
different inputs: a run draws a fresh variant of every stratum in each pass,
so no input repeats inside a run, and the cost of a pass does not depend on
the seed.  The seed chooses the variant order of every stratum and the job
order of every pass.

The strata themselves are fixed here, so that expected answers can be
written once (``expected.py``) and loaded by every run.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

VARIANTS = 8
WORKLOADS = ("gb-systems", "module-questions", "wide-polys")

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# Names that module-questions gives to the base variables x, y in each variant,
# so that even a payload without variables (a free module) differs by variant.
_RENAMES = (("x", "y"), ("a", "b"), ("p", "q"), ("u", "v"), ("x", "z"),
            ("r", "s"), ("m", "w"), ("c", "d"))


class Variant:
    """A sign pattern on the variables, with x and y swapped when a job has
    only those two, and optionally x and y renamed."""

    def __init__(self, variables, index: int, rename: bool = False):
        variables = list(variables)
        wide = len(variables) >= 3
        targets = list(variables)
        if not wide and index & 4:
            targets.reverse()
        names = dict(zip(("x", "y"), _RENAMES[index])) if rename else {}
        self.sub = {}
        for i, (v, w) in enumerate(zip(variables, targets)):
            negate = (index >> (i % 3 if wide else i)) & 1
            w = names.get(w, w)
            self.sub[v] = f"(-{w})" if negate else w
        self.ring_variables = [names.get(v, v) for v in ("x", "y")]

    def __call__(self, text: str) -> str:
        """The image of a polynomial string under the variable substitution."""
        return _NAME.sub(lambda m: self.sub.get(m.group(0), m.group(0)), text)

    def each(self, texts):
        return [self(s) for s in texts]


def job_key(command: str, doc: dict) -> str:
    """Content key of one job, used to look up its expected answer."""
    text = json.dumps([command, doc], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- gb-systems ----------------------------------------------------------------


def katsura(m: int):
    v = [f"u{i}" for i in range(m + 1)]

    def var(i):
        i = abs(i)
        return v[i] if i <= m else None

    polys = [" + ".join([v[0]] + [f"2*{v[i]}" for i in range(1, m + 1)]) + " - 1"]
    for k in range(m):
        terms = [f"{var(l)}*{var(k - l)}" for l in range(-m, m + 1)
                 if var(l) and var(k - l)]
        polys.append(" + ".join(terms) + f" - {v[k]}")
    return v, polys


def cyclic(m: int):
    v = [f"z{i}" for i in range(m)]
    polys = [" + ".join("*".join(v[(i + j) % m] for j in range(k)) for i in range(m))
             for k in range(1, m)]
    polys.append("*".join(v) + " - 1")
    return v, polys


def sparse_random(rng: random.Random, nvars: int):
    """Three generators of two terms plus a constant, each term of degree at
    most two in at most two variables: sparse enough that every basis stays
    small in both orders.  Every variable occurs, so that every sign
    variant is a different input."""
    v = [f"x{i}" for i in range(nvars)]
    polys = []
    while not all(re.search(rf"\b{x}\b", " ".join(polys)) for x in v):
        polys = _sparse_gens(rng, v)
    return v, polys


def _sparse_gens(rng: random.Random, v):
    polys = []
    for _ in range(3):
        terms = []
        for _ in range(2):
            c = rng.choice(["1", "-1", "2", "-3", "1/2", "-2/3"])
            mono = "*".join(f"{x}^{rng.randint(1, 2)}" if rng.random() < 0.4 else x
                            for x in sorted(rng.sample(v, rng.randint(1, 2))))
            terms.append(f"{c}*{mono}")
        terms.append(rng.choice(["1", "-1", "2"]))
        polys.append(" + ".join(terms))
    return polys


def _element(rng: random.Random, variables) -> str:
    """A dense element to reduce: the cube of a random linear form plus t."""
    form = " + ".join(f"{rng.choice([1, -1, 2, 3])}*{x}" for x in variables)
    return f"({form} + t)^3 - {variables[0]}*t"


def _span_job(command, variables, gens, n, order, element):
    def make(var: Variant):
        payload = {"generators": var.each(gens)}
        if command == "nf":
            payload["element"] = var(element)
        return command, {"ring": {"variables": variables, "n": n},
                         "payload": payload, "options": {"order": order}}
    return make


def gb_systems():
    """Katsura and Cyclic systems and sparse random systems.

    Each system is asked exactly one question per (n, order) pair, because
    gb, nf and syz on the same system, n and order build the same span and
    would repeat an input.  Katsura-3 runs in grevlex only (its lex basis
    takes over 15 s); Katsura-4 and Cyclic-5 enter through their leading
    equations, since their full bases take 12-40 s.
    """
    rng = random.Random(1404)
    six = [("gb", 1, "lex"), ("gb", 2, "grevlex"), ("nf", 3, "lex"),
           ("nf", 1, "grevlex"), ("syz", 2, "lex"), ("syz", 3, "grevlex")]
    three = [("gb", 1, "grevlex"), ("nf", 2, "grevlex"), ("syz", 3, "grevlex")]
    k3, k4, c4, c5 = katsura(3), katsura(4), cyclic(4), cyclic(5)
    systems = [
        ("katsura3", k3[0], k3[1], three),
        ("katsura4-lead3", k4[0], k4[1][:3], six),
        ("katsura4-lead4", k4[0], k4[1][:4], [("gb", 1, "grevlex")]),
        ("cyclic4", c4[0], c4[1], six),
        ("cyclic5-lead3", c5[0], c5[1][:3], three),
    ]
    for i in range(81):
        question = six[i % 6]
        # lex bases of random systems in four or more variables can take
        # minutes, so lex questions go to three-variable systems
        nvars = 3 if question[2] == "lex" else 3 + (i // 6) % 3
        v, gens = sparse_random(rng, nvars)
        systems.append((f"random{i}", v, gens, [question]))
    strata = []
    for name, v, gens, questions in systems:
        for command, n, order in questions:
            strata.append((f"{name}/{command}/n{n}/{order}",
                           v + ["t"],
                           _span_job(command, v, gens, n, order, _element(rng, v))))
    return strata


# -- module-questions ----------------------------------------------------------


def _pres(gens: int, rels, degrees=None):
    doc = {"generators": gens, "relations": rels}
    if degrees is not None:
        doc["degrees"] = degrees
        doc["t_weight"] = 1
    return {"presentation": doc}


def _ext_R_by_Ri(sigma: str, level: int, lower_degree: int):
    """The extension of R[1] by R[level] with class sigma, as
    ``fpmod.extension_R_by_Ri`` presents it."""
    return _pres(2, [[f"t^{level}", "0"], [sigma, "t"]], [lower_degree, 0])


def _double_point_ext(a: str, b: str, rho: str, graded: bool):
    """The double-point extension module, as ``doublepoint.extension_module``
    presents it."""
    rels = [["y", "-x", a, b], ["t", "0", rho, "0"], ["0", "t", "0", rho],
            ["0", "0", "y", "-x"], ["0", "0", "t", "0"], ["0", "0", "0", "t"]]
    return _pres(4, rels, [1, 1, 2, 2] if graded else None)


def module_pool():
    """(name, n, module payload, graded) for the module-questions pool, built
    like the acceptance pools: ideals, truncated free modules and sums,
    quotient lines, extensions of R by R[i] and double-point extensions."""
    pool = [
        ("ideal(x2,y2,xy)", 2, {"ideal": ["x^2", "y^2", "x*y"]}, True),
        ("ideal(x2,y2+t,xy)", 2, {"ideal": ["x^2", "y^2 + t", "x*y"]}, False),
        ("ideal(x)", 2, {"ideal": ["x"]}, True),
        ("ideal(x+t)", 2, {"ideal": ["x + t"]}, True),
        ("ideal(xt)", 2, {"ideal": ["x*t"]}, True),
        ("ideal(x2+yt,y2)", 2, {"ideal": ["x^2 + y*t", "y^2"]}, False),
        ("ideal(x2,y2,xy)/n3", 3, {"ideal": ["x^2", "y^2", "x*y"]}, True),
        ("ideal(y,xt2)/n3", 3, {"ideal": ["y", "x*t^2"]}, False),
        ("free2", 2, {"free": {"rank": 2}}, True),
        ("trunc1", 2, {"truncated_free": {"level": 1}}, True),
        ("trunc2/n3", 3, {"truncated_free": {"level": 2}}, True),
        ("trunc1+free1", 2, _pres(2, [["t", "0"]], [0, 0]), True),
        ("trunc1+trunc2/n3", 3, _pres(2, [["t", "0"], ["0", "t^2"]], [0, 0]), True),
        ("line(x,t)", 2, _pres(1, [["x"], ["t"]], [0]), True),
        ("line(xt)", 2, _pres(1, [["x*t"]], [0]), True),
        ("line(xt2)/n3", 3, _pres(1, [["x*t^2"]], [0]), True),
        ("ext(1,1)", 2, _ext_R_by_Ri("1", 1, 1), True),
        ("ext(0,1)", 2, _ext_R_by_Ri("0", 1, 0), True),
        ("ext(x,1)", 2, _ext_R_by_Ri("x", 1, 0), True),
        ("ext(1,2)/n3", 3, _ext_R_by_Ri("1", 2, 1), True),
    ]
    for a, b in (("1", "0"), ("0", "0")):
        for rho in ("1", "0", "x", "1 + x"):
            graded = all(s in ("0", "1") for s in (a, b, rho))
            pool.append((f"dp({a},{b};{rho})", 2, _double_point_ext(a, b, rho, graded),
                         graded))
    return pool


def _payload_job(command, n, payload, ring=True, options=None):
    """A job with the given payload, every polynomial string in it (at any
    depth) mapped through the variant."""
    def make(var: Variant):
        def flip(value):
            if isinstance(value, str):
                return var(value)
            if isinstance(value, list):
                return [flip(x) for x in value]
            if isinstance(value, dict):
                return {k: flip(x) for k, x in value.items()}
            return value
        doc = {"payload": flip(payload)}
        if ring:
            doc["ring"] = {"variables": var.ring_variables, "n": n}
        if options:
            doc["options"] = options
        return command, doc
    return make


def module_questions():
    """Structural questions on a pool of small modules: many small spans,
    with the time in fpmod, dualtor, hilbert, regseq and doublepoint."""
    strata = []
    every = ("module.filtration", "module.balanced", "module.generictype",
             "module.torsion")
    graded_only = ("module.quasifree", "module.refine", "hilbert.poly", "hilbert.pred")
    for name, n, module, graded in module_pool():
        commands = list(every)
        if graded:
            commands += graded_only
        if not name.startswith("dp("):
            commands.append("module.dual")
        for command in commands:
            strata.append((f"{name}/{command}", ["x", "y", "t"],
                           _payload_job(command, n, module)))
    trunc1 = {"truncated_free": {"level": 1}}
    for name, source, target in (
            ("trunc1,trunc1", trunc1, trunc1),
            ("line(xt),free1", _pres(1, [["x*t"]], [0]), {"free": {"rank": 1}}),
            ("ideal(x),trunc1", {"ideal": ["x"]}, trunc1)):
        strata.append((f"{name}/module.ext1", ["x", "y", "t"],
                       _payload_job("module.ext1", 2,
                                    {"source": source, "target": target},
                                    options={"degree_bound": 3})))
    for sigma, level, n in (("1", 1, 2), ("0", 1, 2), ("x", 1, 2), ("1", 1, 3),
                            ("y", 2, 3)):
        strata.append((f"extend({sigma},{level})/n{n}", ["x", "y", "t"],
                       _payload_job("module.extend", n,
                                    {"sigma": sigma, "level": level})))
    sequences = [["x", "y"], ["x + t", "y"], ["x*y", "x + y"], ["x", "x*y"],
                 ["x^2 + t", "y^2"], ["x", "y", "x + y"]]
    for n in (2, 3):
        for seq in sequences:
            strata.append((f"regseq{seq}/n{n}", ["x", "y", "t"],
                           _payload_job("regseq.check", n, {"sequence": seq})))
    for element, seq in (("x*y", ["x", "y"]), ("1", ["x", "y^2"]),
                         ("y^3", ["x + t", "y^2"]), ("x + y", ["x^2", "y"])):
        strata.append((f"shadow({element};{seq})", ["x", "y", "t"],
                       _payload_job("regseq.shadow", 2,
                                    {"element": element, "sequence": seq})))
    # class elements of m*I: (1, 0), zero and (2, -1)
    for tau in ("x*t + y^2*t", "x^2*t + x*y*t", "2*x*t - y*t"):
        for rho in ("1", "-1", "0", "x", "1 + x", "y^2"):
            strata.append((f"ideal.extend({tau};{rho})", ["x", "y"],
                           _payload_job("ideal.extend", 2, {"tau": tau, "rho": rho},
                                        ring=False)))
    for first, second in ((("1", "0"), ("1 + x", "y")), (("x", "1"), ("1", "y")),
                          (("y^2", "1 + x"), ("0", "1 + y")), (("x", "0"), ("0", "x*y"))):
        strata.append((f"ideal.eq({first};{second})", ["x", "y"],
                       _payload_job("ideal.eq", 2,
                                    {"first": {"a": first[0], "b": first[1]},
                                     "second": {"a": second[0], "b": second[1]}},
                                    ring=False)))
    return strata


# -- wide-polys ----------------------------------------------------------------


def _wide(rng: random.Random, variables, power: int) -> str:
    """A long input: a power of a dense linear form times a short factor,
    plus a tail sum."""
    form = " + ".join(f"{rng.choice([1, 2, -1, 3])}*{v}" for v in variables)
    tail = " + ".join(f"{rng.choice([1, -2, 5])}*{v}^{rng.randint(2, 5)}"
                      for v in variables)
    return f"(1 + {form})^{power} * ({variables[0]} - 2) + {tail}"


def _dense(rng: random.Random, degree: int) -> str:
    """Every monomial in x, y of degree at most ``degree``, with random
    coefficients: a long sum of low degree, since composing automorphisms
    expands substitutions and grows steeply with degree."""
    return " + ".join(f"{rng.choice(['1', '-2', '3', '1/2', '-5'])}*x^{i}*y^{j}"
                      for i in range(degree + 1) for j in range(degree + 1 - i))


def wide_polys():
    """Cheap commands on long polynomials: the time goes to parsing, Poly
    multiplication, formatting and JSON, with little Groebner work."""
    rng = random.Random(640)
    strata = []
    trunc = ["x", "y", "t"]
    base = ["x", "y"]
    for i in range(16):
        power = (6, 8, 10, 12)[i % 4]
        strata.append((f"zerodivisor/p{power}/{i}", trunc,
                       _payload_job("ring.zerodivisor", 2 + i % 2,
                                    {"element": _wide(rng, trunc, power)})))
    for i in range(10):
        degree = 3 if i % 4 == 3 else 2
        f = {"deriv": {"x": _dense(rng, degree), "y": _dense(rng, degree)},
             "alpha": f"1 + {_dense(rng, 1)}"}
        g = {"deriv": {"x": _dense(rng, degree), "y": _dense(rng, degree)},
             "alpha": "2 - x*y"}
        strata.append((f"aut.compose/{i}", base,
                       _payload_job("aut.compose", 2, {"first": f, "second": g})))
        ik = {"deriv": {v: f"({f['deriv'][v]}) + ({f['alpha']})*({g['deriv'][v]})"
                        for v in base},
              "alpha": f"({f['alpha']})*({g['alpha']})"}
        if i % 3 == 2:
            ik["alpha"] += " + x^3"
        strata.append((f"aut.cocycle/{i}", base,
                       _payload_job("aut.cocycle", 2, {"ij": f, "jk": g, "ik": ik})))
    for i in range(10):
        power = 2 + i % 2
        a = f"{rng.choice(['1', '0', '-2', '3/2'])} + x*({_wide(rng, base, power)})"
        b = f"{rng.choice(['0', '1', '5', '-1/3'])} + y*({_wide(rng, base, power)})"
        for command in ("ideal.tau", "ideal.lambda"):
            strata.append((f"{command}/{i}", base,
                           _payload_job(command, 2, {"a": a, "b": b}, ring=False)))
        chart = {"alpha": "1", "beta": "2", "gamma": "3", "delta": "7",
                 "u": f"x*({_wide(rng, base, 2)})", "v": "y^2"}
        strata.append((f"ideal.chart/{i}", base,
                       _payload_job("ideal.chart", 2, {"a": a, "b": b, "chart": chart},
                                    ring=False)))
    for i in range(14):
        tau_element = f"x*t*({_wide(rng, base, 6 + i % 3)}) + y*t"
        strata.append((f"ideal.recover/{i}", base,
                       _payload_job("ideal.recover", 2, {"tau": tau_element},
                                    ring=False)))
    for i in range(20):
        power = (6, 8, 10, 12)[i % 4]
        gens = [["x^2 - y", "y^3"], ["x*y - 1", "y^2 - t"], ["x^3", "y^2 + x*t"]][i % 3]
        strata.append((f"nf/p{power}/{i}", trunc,
                       _span_job("nf", base, gens, 2 + i % 2, ("grevlex", "lex")[i % 2],
                                 _wide(rng, trunc, power))))
    return strata


# -- universe and corpus -----------------------------------------------------------

_BUILDERS = {"gb-systems": gb_systems, "module-questions": module_questions,
             "wide-polys": wide_polys}
# module-questions renames x, y in the jobs that carry a ring (those with t)
_RENAMED = ("module-questions",)


def universe(workload: str):
    """Every job the workload can draw: ``strata[s][v]`` is a tuple
    ``(stratum name, command, document)`` for variant ``v`` of stratum ``s``."""
    out = []
    for name, variables, make in _BUILDERS[workload]():
        row = []
        for v in range(VARIANTS):
            rename = workload in _RENAMED and "t" in variables
            command, doc = make(Variant(variables, v, rename))
            doc = {"command": command, **doc}
            row.append((name, command, doc))
        out.append(row)
    return out


def passes(workload: str, seed: int):
    """The run's passes, in order: pass ``p`` holds variant ``order[s][p]`` of
    every stratum ``s``, shuffled.  At most ``VARIANTS`` passes exist, and
    no job appears twice."""
    strata = universe(workload)
    rng = random.Random(f"{workload}:{seed}")
    orders = [rng.sample(range(VARIANTS), VARIANTS) for _ in strata]
    out = []
    for p in range(VARIANTS):
        jobs = [strata[s][orders[s][p]] for s in range(len(strata))]
        rng.shuffle(jobs)
        out.append(jobs)
    return out
