#!/usr/bin/env python3
"""Build and run the astclk end-to-end benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Run from anywhere; paths are taken relative to the checkout that holds this
file.  The benchmark package (benchmark/CMakeLists.txt) is configured and
built in .bench_build/astbench inside the checkout, then `astbench` runs one
workload and prints its result as the last line of standard output.  With
--trace 1 the spans are written to .bench_build/traces/.  Build output goes
to standard error.  The exit code is non-zero when the build, the run or
any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "astbench"
LIMIT_S = 170  # a run takes its --seconds plus a few seconds of set-up


def build():
    """Configure (once) and build the benchmark; True on success."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_child(cmd, timeout):
    """Run cmd, relaying its output; kill it if it outlives timeout."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            print("run.py: %s timed out" % cmd[0], file=sys.stderr)
            return 1, ""
    return p.returncode, out


def commit_id():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def self_test():
    spec_path = ROOT / "BENCHMARK.json"
    code, out = run_child([str(BUILD / "astbench_selftest"), str(spec_path)],
                          LIMIT_S)
    sys.stdout.write(out)
    if code:
        return code
    # Both directions: every metric BENCHMARK.json names is one the program
    # prints, in the same set and with the same unit.
    code, listing = run_child([str(BUILD / "astbench"), "--list-metrics"], 30)
    if code:
        return code
    program = {}
    for line in listing.split("\n"):
        if line.strip():
            kind, name, unit = line.split()
            program[name] = (kind, unit)
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: ("end_to_end", m["unit"]) for m in spec["end_to_end"]}
    declared.update({m["name"]: ("per_layer", m["unit"]) for m in spec["per_layer"]})
    if declared != program:
        print("FAIL: BENCHMARK.json metrics differ from the program's:",
              sorted(set(declared.items()) ^ set(program.items())))
        return 1
    print("selftest: BENCHMARK.json matches the program's metric list")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    cmd = [str(BUILD / "astbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-%d.json" % (args.workload, args.seed)))]
    code, out = run_child(cmd, LIMIT_S)
    lines = [l for l in out.split("\n") if l.strip()]
    if code or not lines:
        sys.stderr.write(out)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: last line is not a JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
