"""Closed-loop benchmark of the truncmod command line interface.

One client, one thread: each JSON job document goes to ``truncmod.cli.main``
in this process only after the previous one has answered.  Run from the root
of a source checkout:

    python3 perfbench/run.py --workload gb-systems --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run makes passes over the corpus, each with fresh
variants of the same jobs, and stops at the pass boundary nearest to
``--seconds``; it reports the end-to-end metrics.  With ``--trace 1`` it
runs one untraced pass and then one pass with every truncmod layer wrapped,
reports the per-layer metrics and writes the spans to ``.perfbench/``.
Every answer is checked.  The last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are scaled to
a reference CPU speed, measured by a calibration loop between jobs.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from check import AnswerChecker, check_answer  # noqa: E402
from tracing import LAYERS  # noqa: E402

SETUP_REPEATS = 5
# Seconds the calibration loop takes at the reference speed.  The CPU speed
# of a shared machine can swing by 30% within a second, so every time below
# is scaled by REFERENCE_S over the calibration time measured around it.
REFERENCE_S = 0.0015
CALIBRATION_REACH = 0.1


def expected_path(workload: str) -> str:
    return os.path.join(HERE, "expected", f"{workload}.json")


def _purge_program() -> None:
    for name in [m for m in sys.modules if m == "truncmod" or m.startswith("truncmod.")]:
        del sys.modules[name]


def setup(src: str, workload: str, seed: int):
    """Import truncmod afresh, build the corpus and load the expected
    answers.  Returns (seconds, cli module, passes, expected)."""
    _purge_program()
    started = time.perf_counter()
    cli = importlib.import_module("truncmod.cli")
    passes = [[(name, command, doc, jobs.job_key(command, doc), json.dumps(doc))
               for name, command, doc in p] for p in jobs.passes(workload, seed)]
    with open(expected_path(workload), encoding="utf-8") as fh:
        expected = json.load(fh)
    elapsed = time.perf_counter() - started
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported truncmod from {cli.__file__}, not from {src}")
    return elapsed, cli, passes, expected


def calibrate() -> float:
    """Seconds taken by a fixed workload of the kind truncmod runs: exact
    fractions summed into a dict keyed by tuples."""
    started = time.perf_counter()
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(400):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + third * i
    return time.perf_counter() - started


def run_job(main, command: str, text: str):
    """One CLI call in process: (exit code, stdout text, nanoseconds).  An
    exception escaping the CLI is a failed job with exit code -1."""
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    started = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out):
            code = main([command])
    except Exception as exc:  # noqa: BLE001 - the loop reports it and goes on
        code = -1
        out = io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), time.perf_counter_ns() - started


def run_pass(main, jobs_in_pass, results, on_job=None):
    """Run every job of a pass, appending (job, exit code, output, seconds at
    the reference speed, seconds as measured) to ``results``.

    The calibration loop runs before the first job and after every job, and
    stays out of every time.  A job's speed is the mean of the calibrations
    within its own duration (at least CALIBRATION_REACH seconds) before its
    start and after its end, so a long job is scaled by the speed over a
    stretch as long as itself."""
    stamps, calibrations = [], []

    def calibrate_now():
        stamps.append(time.perf_counter())
        calibrations.append(calibrate())

    calibrate_now()
    done = []
    for i, job in enumerate(jobs_in_pass):
        if on_job is not None:
            on_job(i)
        started = time.perf_counter()
        code, text, ns = run_job(main, job[1], job[4])
        done.append((job, code, text, started, ns / 1e9))
        calibrate_now()
    for job, code, text, started, raw in done:
        reach = max(raw, CALIBRATION_REACH)
        lo = bisect.bisect_left(stamps, started - reach)
        hi = bisect.bisect_right(stamps, started + raw + reach)
        near = calibrations[lo:hi]
        results.append((job, code, text, raw * REFERENCE_S * len(near) / sum(near), raw))


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def check_all(arith, expected, results):
    checker = AnswerChecker(arith)
    failures = []
    for (name, command, doc, key, _text), code, text, *_times in results:
        reason = check_answer(checker, expected, key, command, doc, code, text)
        if reason is not None:
            failures.append((name, reason))
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, setup_s: float, rss_mb: float, failed: int) -> dict:
    seconds = [r[3] for r in results]
    ms = sorted(1000.0 * t for t in seconds)
    return {
        "jobs_per_s": (len(results) / sum(seconds), "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (percentile(ms, 0.9), "ms"),
        "ok_frac": (1.0 - failed / len(results), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "truncmod", "cli.py")):
        print(f"perfbench: no truncmod sources under {src}; run from the root "
              "of a truncmod checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    timings = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        elapsed, cli, passes, expected = setup(src, args.workload, args.seed)
        timings.append(elapsed * 2 * REFERENCE_S / (before + calibrate()))
    setup_s = statistics.median(timings)
    arith = sys.modules["truncmod.arith"]

    results = []
    try:
        if args.trace:
            from tracing import Tracer
            run_pass(cli.main, passes[0], results)
            untraced_s = sum(r[3] for r in results)
            tracer = Tracer({layer: sys.modules[f"truncmod.{layer}"] for layer in LAYERS})
            offset = len(results)

            def on_job(i):
                tracer.job = offset + i

            tracer.install()
            try:
                run_pass(cli.main, passes[1], results, on_job)
            finally:
                tracer.uninstall()
            traced = results[offset:]
            metrics = tracer.metrics(sum(r[4] for r in traced), sum(r[3] for r in traced),
                                     untraced_s)
            out_dir = os.path.join(root, ".perfbench")
            os.makedirs(out_dir, exist_ok=True)
            spans_file = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.dump(spans_file)
        else:
            started = time.perf_counter()
            last = 0.0
            for jobs_in_pass in passes:
                elapsed = time.perf_counter() - started
                if results and elapsed + last / 2 > args.seconds:
                    break
                run_pass(cli.main, jobs_in_pass, results)
                last = time.perf_counter() - started - elapsed
    finally:
        sys.stdin = sys.__stdin__
    # before the checks, which build Groebner bases of their own
    rss_mb = peak_rss_mb()

    failures = check_all(arith, expected, results)
    for name, reason in failures[:10]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    if not args.trace:
        metrics = end_to_end(results, setup_s, rss_mb, len(failures))

    raw_s = sum(r[4] for r in results)
    print(f"{args.workload} seed {args.seed}: {len(results)} jobs, "
          f"{len(failures)} failed, {raw_s:.2f} s as measured, "
          f"{sum(r[3] for r in results):.2f} s at the reference speed"
          + (f", spans in {spans_file}" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
