#!/usr/bin/env python3
"""Perf trajectory gate: diff BENCH_micro_perf.json against the committed
baseline and fail on wall-clock (or latency-percentile) regression.

For every gated series — "bench:backend" or "bench:backend:metric", the
metric defaulting to "seconds" — present in both files, the largest common
n is compared; a regression beyond --tolerance (default 20%) fails the
run.  Absolute wall-clock shifts with the machine, so the comparison is
calibrated by micro_perf's calibration kernel: a fixed all-pairs
nearest-arc scan over 512 leaves, written in micro_perf itself.  It runs
no library engine code, so only a change to the kernel or to
tilted_rect::distance must recommit the baseline, and a slowdown anywhere
in the engine shows in the calibrated values in full:

  * Per-repetition (seconds rows that carry "calib_ratio" on both sides):
    micro_perf timed the kernel right before every repetition of the row
    and stored the median of (repetition / kernel) times; the gate
    compares current calib_ratio against baseline calib_ratio.  Each
    ratio's halves ran milliseconds apart, so host-speed phases that last
    seconds cancel out.
  * Global (everything else, service_stream:t1:p95 included): the
    calibration:scan row's baseline/current time ratio estimates the
    machine-speed factor, and the current value is scaled by it.

A file without the calibration:scan row cannot be calibrated, so the gate
refuses it (exit 2) instead of gating raw times under a "calibrated"
label.  Pass --no-calibrate for raw wall-clock.

Gated by default: the engine benches, the streamed single-worker p95
per-request latency (service_stream:t1:p95 — one worker keeps the series
deterministic on any machine), the single-thread nearest-pair reduce
(nearest_pair:t1 — selection-heap and re-key changes cannot regress
1-core hardware), the single-thread sharded reduction (shard_reduce:t1 —
auto shards on one thread, so the gate measures partition quality, not
scheduling), and the salvage path of the resilience layer
(degrade_salvage:salvage — recovering a faulted sharded route must stay
cheaper than rerunning; widened tolerance since the row includes a
greedy shard rebuild).
Multi-threaded service_batch / service_stream throughput, the fanned
shard_reduce:thw series and the degrade_salvage clean/discard rows are
reported but not gated (batch scheduling and shard fan-out depend on core
count, not engine quality).  Exit codes: 0 ok, 1 regression, 2
usage/missing data (a missing calibration row included).
"""

import argparse
import json
import sys

GATED_DEFAULT = (
    "engine_reduce:grid,route_ast_windowed:grid,service_stream:t1:p95@0.5,"
    "nearest_pair:t1@0.2,shard_reduce:t1@0.2,degrade_salvage:salvage@0.25"
)
CALIBRATION_SERIES = ("calibration", "scan")


def load(path):
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    series = {}
    for r in rows:
        series.setdefault((r["bench"], r["backend"]), {})[r["n"]] = r
    return series


def pick_common_n(base, cur, key):
    common = sorted(set(base.get(key, {})) & set(cur.get(key, {})))
    return common[-1] if common else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional slowdown (default 0.20)")
    ap.add_argument("--gate", default=GATED_DEFAULT,
                    help="comma-separated bench:backend series to gate")
    ap.add_argument("--no-calibrate", action="store_true",
                    help="compare raw wall-clock without machine scaling")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    scale = 1.0
    if not args.no_calibrate:
        label = ":".join(CALIBRATION_SERIES)
        n = pick_common_n(base, cur, CALIBRATION_SERIES)
        if n is None:
            print(f"perf_diff: calibration series {label} missing from one "
                  f"side; pass --no-calibrate to compare raw wall-clock",
                  file=sys.stderr)
            sys.exit(2)
        b = base[CALIBRATION_SERIES][n]["seconds"]
        c = cur[CALIBRATION_SERIES][n]["seconds"]
        if not (b > 0 and c > 0):
            print(f"perf_diff: calibration series {label} has no time at "
                  f"n={n}", file=sys.stderr)
            sys.exit(2)
        scale = b / c
        print(f"calibration ({label} @ n={n}): machine factor "
              f"{scale:.3f} (baseline {b:.4f}s / current {c:.4f}s)")

    gated = []
    for spec in args.gate.split(","):
        spec = spec.strip()
        if not spec:
            continue
        # bench:backend[:metric][@tolerance] — per-series tolerance lets
        # the inherently noisier latency percentiles run with a wider gate
        # than the engine wall-clocks.
        spec, _, tol_str = spec.partition("@")
        tolerance = float(tol_str) if tol_str else args.tolerance
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            print(f"perf_diff: bad gate spec {spec!r} "
                  f"(want bench:backend[:metric][@tolerance])",
                  file=sys.stderr)
            sys.exit(2)
        bench, backend = parts[0], parts[1]
        metric = parts[2] if len(parts) == 3 else "seconds"
        gated.append((bench, backend, metric, tolerance))

    failures = []
    compared = 0
    for bench, backend, metric, tolerance in gated:
        key = (bench, backend)
        label = f"{bench}:{backend}:{metric}"
        n = pick_common_n(base, cur, key)
        if n is None:
            print(f"perf_diff: series {label} missing from one side; "
                  f"skipped")
            continue
        b = base[key][n].get(metric)
        c = cur[key][n].get(metric)
        if b is None or c is None:
            print(f"perf_diff: metric {metric!r} missing from "
                  f"{bench}:{backend} on one side; skipped")
            continue
        compared += 1
        b_cal = base[key][n].get("calib_ratio", 0)
        c_cal = cur[key][n].get("calib_ratio", 0)
        if (not args.no_calibrate and metric == "seconds" and b_cal > 0
                and c_cal > 0):
            # Per-repetition calibration: express the current row as its
            # baseline time times the change in its calibrated ratio.
            how = "per-rep calibrated"
            c = b * c_cal / b_cal
        else:
            how = "raw" if args.no_calibrate else "calibrated"
            c *= scale
        ratio = c / b if b > 0 else float("inf")
        verdict = "OK"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failures.append((label, n, b, c, ratio))
        elif ratio < 1.0 - tolerance:
            verdict = "improvement"
        print(f"{label} @ n={n}: baseline {b:.4f}s, current "
              f"{c:.4f}s ({how}), ratio {ratio:.2f} -> {verdict}")

    # Informational: serving throughput/latency and the reference rows of
    # the gated series, never gated here.
    for key in sorted(cur):
        if key[0] in ("service_batch", "service_stream"):
            n = max(cur[key])
            r = cur[key][n]
            extra = ""
            if key[0] == "service_stream":
                extra = (f", p50/p95/p99 {r.get('p50', 0):.4f}/"
                         f"{r.get('p95', 0):.4f}/{r.get('p99', 0):.4f}s")
            print(f"info {key[0]}:{key[1]} @ n={n}: "
                  f"{r['seconds']:.4f}s, {r['merges_per_sec']:.0f} "
                  f"merges/s{extra}")
        elif key[0] == "degrade_salvage" and key[1] != "salvage":
            # clean / discard ride as info; the headline is the recovery
            # speedup of salvage over discard-and-rerun, and the salvaged
            # tree's wirelength premium over the clean route.
            n = max(cur[key])
            r = cur[key][n]
            extra = ""
            sal = cur.get(("degrade_salvage", "salvage"), {}).get(n)
            if key[1] == "discard" and sal is not None:
                if sal["seconds"] > 0:
                    extra += (f", salvage recovery speedup "
                              f"{r['seconds'] / sal['seconds']:.2f}x")
            if key[1] == "clean" and sal is not None:
                if r.get("wirelength", 0) > 0:
                    extra += (f", wirelength salvaged/clean "
                              f"{sal.get('wirelength', 0) / r['wirelength']:.4f}")
            print(f"info {key[0]}:{key[1]} @ n={n}: "
                  f"{r['seconds']:.4f}s, {r['merges_per_sec']:.0f} "
                  f"merges/s{extra}")
        elif key[0] == "shard_reduce" and key[1] != "t1":
            # mono / thw ride as info; the sharded-vs-monolithic speedup
            # and wirelength delta at the largest n are the headline.
            n = max(cur[key])
            r = cur[key][n]
            extra = ""
            t1 = cur.get(("shard_reduce", "t1"), {}).get(n)
            if key[1] == "mono" and t1 is not None:
                if t1["seconds"] > 0:
                    extra += (f", sharded t1 speedup "
                              f"{r['seconds'] / t1['seconds']:.2f}x")
                if r.get("wirelength", 0) > 0:
                    extra += (f", wirelength sharded/mono "
                              f"{t1.get('wirelength', 0) / r['wirelength']:.4f}")
            print(f"info {key[0]}:{key[1]} @ n={n}: "
                  f"{r['seconds']:.4f}s, {r['merges_per_sec']:.0f} "
                  f"merges/s{extra}")

    if compared == 0:
        print("perf_diff: nothing to compare", file=sys.stderr)
        sys.exit(2)
    if failures:
        for label, n, b, c, ratio in failures:
            print(f"perf_diff: {label} regressed {ratio:.2f}x at "
                  f"n={n} (baseline {b:.4f}s, calibrated current {c:.4f}s)",
                  file=sys.stderr)
        sys.exit(1)
    print("perf_diff: within tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
