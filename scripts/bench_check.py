#!/usr/bin/env python3
"""Benchmark-regression gate: compares a fresh BENCH_wmc.json against the
committed baseline and fails (exit 1) when any instance regressed more
than the threshold.

Usage:
    scripts/bench_check.py BASELINE.json FRESH.json [--threshold 1.25]

Rules:
  * Instances are matched by (driver, benchmark name); instances present
    on only one side are reported but never fail the gate (new rows have
    no baseline, retired rows have no fresh run).
  * Multi-threaded rows are skipped when the baseline was recorded on a
    single-core machine (the driver report's context.num_cpus, which the
    benchmark library stamps at record time): there, threads > 1 only
    measures pool overhead, and comparing such rows against a multi-core
    CI runner would be noise in both directions. A baseline recorded
    with num_cpus > 1 compares its multi-threaded rows normally. A row
    is multi-threaded when its counter/pool thread count (the trailing
    benchmark argument in `..._Threads/N/T/...` rows, or any `_Pooled`
    row, such as bench_serve's pooled batch) is > 1.
  * Comparison is on real_time, normalized per iteration by the
    benchmark library already; the threshold is a ratio (1.25 = +25%).

Environment: SWFOMC_BENCH_TOLERANCE overrides the default threshold
(e.g. SWFOMC_BENCH_TOLERANCE=1.5 allows +50%); the legacy
BENCH_REGRESSION_THRESHOLD is still honored when the former is unset.
An explicit --threshold flag wins over both.
"""

import argparse
import json
import math
import os
import re
import sys


def is_multithreaded(name: str) -> bool:
    """True for rows whose counter/pool runs more than one thread."""
    if "_Pooled" in name:
        return True
    match = re.match(r".*_Threads/\d+/(\d+)(?:/|$)", name)
    return match is not None and int(match.group(1)) > 1


def load_rows(path: str) -> tuple:
    """((driver, name) -> row dict, driver -> context num_cpus)."""
    with open(path) as handle:
        report = json.load(handle)
    rows = {}
    cpus = {}
    for driver, payload in report.items():
        cpus[driver] = int(payload.get("context", {}).get("num_cpus", 1))
        for bench in payload.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            rows[(driver, bench["name"])] = bench
    return rows, cpus


def uniform_drift(ratios: list) -> float:
    """The common slowdown factor when every row drifted together, or 0.

    A genuine code regression hits the touched rows and leaves the rest
    alone; a slower machine (different CPU, thermal throttling, noisy
    neighbor) slows *every* row by roughly the same factor. When all
    compared rows regressed and each ratio sits within +/-15% of their
    geometric mean, the drift is uniform and the right fix is re-recording
    the baseline on the current runner, not hunting a phantom regression.
    """
    if len(ratios) < 3 or min(ratios) <= 1.0:
        return 0.0
    mean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    if all(max(r / mean, mean / r) <= 1.15 for r in ratios):
        return mean
    return 0.0


def default_threshold() -> float:
    for variable in ("SWFOMC_BENCH_TOLERANCE", "BENCH_REGRESSION_THRESHOLD"):
        value = os.environ.get(variable)
        if value is None:
            continue
        try:
            threshold = float(value)
        except ValueError:
            sys.exit(f"error: {variable}={value!r} is not a number")
        if threshold < 1.0:
            sys.exit(f"error: {variable}={value!r} must be >= 1.0 "
                     "(it is a fresh/baseline ratio, not a percentage)")
        return threshold
    return 1.25


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="fail when fresh/baseline exceeds this ratio (default 1.25; "
        "SWFOMC_BENCH_TOLERANCE / BENCH_REGRESSION_THRESHOLD override it)",
    )
    args = parser.parse_args()
    if args.threshold is None:
        # Resolved only when the flag is absent, so an explicit
        # --threshold wins even over a malformed environment variable.
        args.threshold = default_threshold()

    baseline, baseline_cpus = load_rows(args.baseline)
    fresh, _ = load_rows(args.fresh)

    regressions = []
    ratios = []
    skipped = 0
    compared = 0
    for key, base_row in sorted(baseline.items()):
        driver, name = key
        base_time = float(base_row["real_time"])
        if key not in fresh:
            print(f"note: {driver}:{name} missing from fresh run")
            continue
        if baseline_cpus.get(driver, 1) <= 1 and is_multithreaded(name):
            # A 1-core baseline has nothing meaningful to say about
            # multi-threaded rows.
            skipped += 1
            continue
        compared += 1
        fresh_time = float(fresh[key]["real_time"])
        ratio = fresh_time / base_time if base_time > 0 else float("inf")
        ratios.append(ratio)
        marker = ""
        if ratio > args.threshold:
            regressions.append((driver, name, base_time, fresh_time, ratio))
            marker = "  <-- REGRESSION"
        print(f"{driver}:{name}: {base_time:.3g} -> {fresh_time:.3g} ns "
              f"({ratio:.2f}x){marker}")
    for key in sorted(set(fresh) - set(baseline)):
        print(f"note: {key[0]}:{key[1]} has no baseline (new instance)")

    print(f"\ncompared {compared} instances "
          f"({skipped} multi-threaded rows skipped), "
          f"threshold {args.threshold:.2f}x")
    if regressions:
        drift = uniform_drift(ratios)
        if drift:
            print(f"FAIL: every compared instance slowed down by a "
                  f"uniform ~{drift:.2f}x (ratios within +/-15% of their "
                  f"geometric mean).")
            print("This pattern is machine skew — a slower/throttled "
                  "runner, not a code regression. Re-record the baseline "
                  "on the current runner (scripts/bench.sh) instead of "
                  "bisecting individual rows.")
            return 1
        print(f"FAIL: {len(regressions)} instance(s) regressed "
              f"more than {100 * (args.threshold - 1):.0f}%:")
        for driver, name, base, new, ratio in regressions:
            print(f"  {driver}:{name}: {base:.3g} -> {new:.3g} ns "
                  f"({ratio:.2f}x)")
            print(f"  baseline row: "
                  f"{json.dumps(baseline[(driver, name)], sort_keys=True)}")
        print("(override the threshold with SWFOMC_BENCH_TOLERANCE, "
              "e.g. SWFOMC_BENCH_TOLERANCE=1.5 for +50%)")
        return 1
    print("OK: no instance regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
