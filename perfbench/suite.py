"""Run every workload over ten seeds and print each metric with its unit.

From the root of a truncmod checkout:

    python3 perfbench/suite.py --out .perfbench/results.jsonl

Each run is a separate ``run.py`` process.  Every workload runs with tracing
off once for each of the seeds 1 to 10, then once with tracing on (seed 1).
Each result line is appended to ``--out`` as ``{"workload", "seed", "trace",
"result"}``; two such files, one from the parent commit and one from the
change, are the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import quartiles  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

# compare.py's rule needs at least ten runs on each side
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(records) -> None:
    """Median and quartiles of every metric, one block per workload and mode."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"])
    for (workload, trace), results in sorted(groups.items()):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload} ({'traced' if trace else 'untraced'}, {len(results)} runs, "
              f"{attempted} jobs, failed_frac {failed / attempted:.4g})")
        print(f"  {'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} {first['unit']:>6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(".perfbench", "results.jsonl"))
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    records = []
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in WORKLOADS:
            plan = [(seed, 0) for seed in range(1, SEEDS + 1)] + [(1, 1)]
            for seed, trace in plan:
                result = run_once(workload, seed, seconds, trace)
                rec = {"workload": workload, "seed": seed, "trace": trace,
                       "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                records.append(rec)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{result['attempted']} jobs, {result['failed']} failed",
                      flush=True)
    summarize(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
