#!/usr/bin/env python3
"""Steadiness tool for the end-to-end benchmark.

Run every workload N times, interleaved (round i runs each workload once,
all with seed BASE + i), and print for each end-to-end metric its median,
quartiles, spread -- (Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them -- and worst relative
deviation from the median, against the metric's bound in BENCHMARK.json.  A metric whose spread exceeds its bound is flagged
OVER (setup_s excepted: only its median shift is bounded); one above a
third of its bound is flagged wide.

    python3 benchmark/steady.py --runs 10 --out .bench_build/steady/a.json
    python3 benchmark/steady.py --compare .bench_build/steady/a.json \\
                                          .bench_build/steady/b.json

--compare prints, per (workload, metric), how far the second set's median
is worse than the first's, flagged OVER when beyond the bound.  The exit
code is 1 when anything is flagged OVER or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    lines = [l for l in p.stdout.split("\n") if l.strip()]
    if p.returncode or not lines:
        sys.stderr.write(p.stderr[-2000:])
        return None, wall
    result = json.loads(lines[-1])
    if len(lines) > 1 and lines[-2].startswith('{"context"'):
        result["context"] = json.loads(lines[-2])["context"]
    return result, wall


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(results):
    flagged = False
    for workload, runs in results.items():
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-24s %14s %14s %14s %8s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "worst", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            worst = max(abs(v - med) for v in values) / med if med else 0.0
            bound = BOUNDS.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, flagged = "OVER", True
                elif spread > bound / 3:
                    flag = "wide"
            print("  %-24s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %6s %s" %
                  (name, med, q1, q3, 100 * spread, 100 * worst,
                   "" if bound is None else "%.2f" % bound, flag))
    return flagged


def compare(first, second):
    flagged = False
    for workload in first:
        print("\n%s" % workload)
        print("  %-24s %14s %14s %8s %6s" %
              ("metric", "median 1", "median 2", "worse", "bound"))
        for name in first[workload][0]["metrics"]:
            if name not in BOUNDS:
                continue
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            sign = 1.0 if BOUNDS[name]["better"] == "lower" else -1.0
            worse = sign * (b - a) / a if a else 0.0
            bound = BOUNDS[name]["bound"]
            flag = "OVER" if worse > bound else ""
            flagged |= bool(flag)
            print("  %-24s %14.6g %14.6g %7.2f%% %6.2f %s" %
                  (name, a, b, 100 * worse, bound, flag))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", help="save the raw results as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(first, second) else 0

    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    failed = False
    for i in range(args.runs):
        for w in workloads:
            r, wall = one_run(w, args.seed_base + i, args.seconds, args.trace)
            print("run %d %s seed %d: %s, %.1f s" %
                  (i + 1, w, args.seed_base + i,
                   "ok" if r else "FAILED", wall), flush=True)
            if r is None:
                failed = True
            else:
                results[w].append(r)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    flagged = report({w: r for w, r in results.items() if r})
    return 1 if flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
