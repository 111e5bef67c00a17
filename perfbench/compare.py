"""Compare two result sets written by ``suite.py``: the parent's and the change's.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric it prints both sides' median and
quartiles and a verdict, by the rule for claiming a gain on a noisy machine:

- improved: the change wins at least nine tenths of the runs paired by seed
  (ties count for neither side), and the medians differ, in the better
  direction, by more than the parent's own spread (its interquartile range);
- regressed: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: either side's spread, as a share of its median, is wider than
  the bound, unless every run of the change reads better than every run of
  the parent;
- unchanged: anything else.

Per-layer metrics of the traced runs are listed with both medians and no
verdict; a count that differs between the sides is marked.
"""

from __future__ import annotations

import json
import math
import statistics
import sys


def load(path: str) -> dict:
    """(workload, trace) -> {seed: result}"""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec["result"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def share(x: float, median: float) -> float:
    """``x`` as a share of ``median``."""
    return x / abs(median) if median else math.inf


def verdict(parent, change, pairs, better: str, bound: float) -> tuple[str, str]:
    """(verdict, wins text) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    wins_text = f"{wins}/{len(pairs)}"
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return "improved", wins_text
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    wide = share(p3 - p1, pm) > bound or share(c3 - c1, cm) > bound
    if wide and not all_better:
        return "unresolved", wins_text
    if gain < 0 and share(-gain, pm) > bound:
        return "regressed", wins_text
    return "unchanged", wins_text


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    header = (f"{'workload':18s} {'metric':34s} {'unit':>6s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    print(header)
    for (workload, trace) in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[(workload, trace)], change[(workload, trace)]
        seeds = sorted(set(p_runs) & set(c_runs))
        names = next(iter(p_runs.values()))["metrics"]
        for name, first in names.items():
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            if trace == 0 and name in bounds:
                v, wins = verdict(pv, cv, pairs, bounds[name]["better"], bounds[name]["bound"])
            else:
                wins = ""
                v = "count differs" if first["unit"] == "count" and pm != cm else ""
            print(f"{workload:18s} {name:34s} {first['unit']:>6s} "
                  f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>34s} "
                  f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34s} {wins:>6s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
