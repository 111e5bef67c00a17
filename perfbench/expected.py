"""Write the expected answers of every job a workload can draw.

Run from the root of a truncmod checkout whose answers are trusted:

    python3 perfbench/expected.py

Each job runs once through the CLI.  Its answer must pass the property
checks, and every ``gb`` and ``nf`` answer is cross-checked against sympy's
``groebner`` and ``reduce`` before the digest of its canonical form is
written to ``perfbench/expected/<workload>.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from check import AnswerChecker  # noqa: E402
from run import expected_path, run_job  # noqa: E402


def _sympy_ring(doc):
    import sympy
    names = list(doc["ring"]["variables"]) + ["t"]
    syms = sympy.symbols(names)
    table = dict(zip(names, syms))

    def parse(text):
        return sympy.Poly(sympy.sympify(text.replace("^", "**"), locals=table),
                          *syms, domain="QQ")
    return syms, parse


def sympy_cross_check(command: str, doc: dict, answer: dict) -> str | None:
    """None when sympy agrees with the gb or nf answer, else the difference."""
    import sympy
    syms, parse = _sympy_ring(doc)
    n = doc["ring"]["n"]
    order = doc.get("options", {}).get("order", "grevlex")
    gens = [parse(g) for g in doc["payload"]["generators"]] + [parse(f"t^{n}")]
    basis = sympy.groebner([g.as_expr() for g in gens], *syms, order=order, domain="QQ")
    if command == "gb":
        ours = {tuple(sorted(parse(row[0]).monic().terms())) for row in answer["basis"]}
        theirs = {tuple(sorted(sympy.Poly(g, *syms, domain="QQ").monic().terms()))
                  for g in basis.exprs}
        return None if ours == theirs else "reduced basis differs from sympy"
    _, remainder = basis.reduce(parse(doc["payload"]["element"]).as_expr())
    if sympy.expand(remainder - parse(answer["normal_form"][0]).as_expr()) != 0:
        return "normal form differs from sympy"
    if answer["member"] != (remainder == 0):
        return "membership differs from sympy"
    return None


def write(workload: str) -> None:
    import truncmod.arith
    import truncmod.cli
    checker = AnswerChecker(truncmod.arith)
    digests = {}
    started = time.perf_counter()
    for row in jobs.universe(workload):
        for name, command, doc in row:
            code, text, _ns = run_job(truncmod.cli.main, command, json.dumps(doc))
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}: {text}")
            answer = json.loads(text)
            problem = checker.check(command, doc, answer)
            if problem is None and command in ("gb", "nf"):
                problem = sympy_cross_check(command, doc, answer)
            if problem is not None:
                raise SystemExit(f"{name}: {problem}")
            digests[jobs.job_key(command, doc)] = checker.canonical_digest(command, doc, answer)
    sys.stdin = sys.__stdin__
    os.makedirs(os.path.dirname(expected_path(workload)), exist_ok=True)
    with open(expected_path(workload), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(digests)} answers in "
          f"{time.perf_counter() - started:.1f} s", flush=True)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    for workload in jobs.WORKLOADS:
        write(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
