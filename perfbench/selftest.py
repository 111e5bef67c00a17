"""Self-test of the benchmark's answer checking.

From the root of a truncmod checkout whose expected answers are written:

    python3 perfbench/selftest.py

It shows that right answers pass, and that each of these counts as one
failure: a corrupted expected answer, a corrupted basis, a syzygy that does
not vanish, syzygies cut down to the trivial ones, torsion generators
dropped, a presentation with a relation dropped, a balance witness and a
regular-sequence witness that do not witness, and a failed exit.  It also
runs ``run.py`` in a directory without truncmod sources, where it must exit
nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import check_all, run_pass, setup  # noqa: E402


def sample(workload, commands, per_command):
    """Right answers to the first jobs of each command in the first pass."""
    _, cli, passes, expected = setup(os.path.join(os.getcwd(), "src"), workload, 7)
    chosen = []
    for job in passes[0]:
        if job[1] in commands and sum(j[1] == job[1] for j in chosen) < per_command:
            chosen.append(job)
    results = []
    run_pass(cli.main, chosen, results)
    sys.stdin = sys.__stdin__
    arith = sys.modules["truncmod.arith"]
    assert not check_all(arith, expected, results), "right answers must pass"
    return arith, expected, results


def edit(results, command, applies, change):
    """The results with the first answer to ``command`` for which
    ``applies`` holds changed in place by ``change``."""
    out, done = [], False
    for job, code, text, *times in results:
        answer = json.loads(text)
        if job[1] == command and not done and applies(answer):
            change(answer)
            text, done = json.dumps(answer), True
        out.append((job, code, text, *times))
    assert done, f"no {command} answer to corrupt"
    return out


def wrong_basis(answer):
    answer["basis"][0][0] += " + 1"


def wrong_syzygy(answer):
    answer["syzygies"][0][0] = "1"


def trivial_syzygies(answer):
    """Only the syzygies t^3 e_i, which every list of generators has for
    every n in the workload."""
    k = len(answer["syzygies"][0])
    answer["syzygies"] = [["t^3" if j == i else "0" for j in range(k)] for i in range(k)]


def drop_torsion_generator(answer):
    answer["generators"].pop()


def drop_relation(answer):
    answer["dual"]["relations"].pop()


def drop_extension_relation(answer):
    answer["module"]["relations"].pop(0)


def zero_witness(answer):
    answer["witness"] = "0"


def times_t(answer):
    w = answer["witness"]
    answer["witness"] = f"({w})*t" if isinstance(w, str) else [f"({c})*t" for c in w]


CORRUPTIONS = {
    "gb-systems": [
        ("gb", lambda a: True, wrong_basis),
        ("syz", lambda a: True, wrong_syzygy),
        ("syz", lambda a: True, trivial_syzygies),
    ],
    "module-questions": [
        ("module.torsion", lambda a: a["generators"], drop_torsion_generator),
        ("module.dual", lambda a: a["dual"]["relations"], drop_relation),
        ("ideal.extend", lambda a: True, drop_extension_relation),
        ("module.balanced", lambda a: a["witness"] is not None, times_t),
        ("regseq.check", lambda a: a["witness"] is not None, zero_witness),
    ],
}
COMMANDS = {
    "gb-systems": (("gb", "nf", "syz"), 2),
    "module-questions": (("module.torsion", "module.dual", "ideal.extend",
                          "module.balanced", "regseq.check"), 20),
}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    right = 0
    for workload, corruptions in CORRUPTIONS.items():
        arith, expected, results = sample(workload, *COMMANDS[workload])
        right += len(results)
        for command, applies, change in corruptions:
            failures = check_all(arith, expected, edit(results, command, applies, change))
            assert len(failures) == 1, (command, change.__name__, failures)

    corrupted = dict(expected)
    key = results[0][0][3]
    corrupted[key] = "0" * len(corrupted[key])
    failures = check_all(arith, corrupted, results)
    assert [name for name, _ in failures] == [results[0][0][0]], failures

    job, _code, text, *times = results[0]
    failures = check_all(arith, expected, [(job, 3, text, *times)] + results[1:])
    assert len(failures) == 1, failures

    bare = os.path.join(os.getcwd(), ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide-polys",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)

    print(f"selftest passed: {right} right answers pass, each corruption counts as "
          "one failure, a checkout without sources is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
