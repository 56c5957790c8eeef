#!/usr/bin/env python3
"""swfomc end-to-end benchmark.

Run one workload (from the root of a source checkout):

    python3 swbench/run.py --workload grounded_count --seed 1 --seconds 10 --trace 0

builds the benchmark runner from source into .bench_build/swbench (or
$CARGO_TARGET_DIR/swbench), runs the workload, prints every metric by name
and unit with the run's provenance, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 runs the same operations with a span
around every library call and reports the per-layer metrics. --report FILE
appends the full report (metrics, provenance, per-run detail) to FILE as
one JSON line.

Compare a parent and a change (files written with --report, any number of
runs each, traced and untraced):

    python3 swbench/run.py compare parent.jsonl change.jsonl

prints, per workload, each end-to-end metric's medians and verdict against
its bound in BENCHMARK.json, and beside it the same figure as measured
(raw) and the per-layer deltas that explain it. The end-to-end
throughput and latencies are taken from each input's fastest repeat in
the run, which holds steady on a shared host; a cost that shows on only
some repeats moves the raw figure, not the gated one.

    python3 swbench/run.py summarize reports.jsonl

prints the median and quartiles of every metric per workload as JSON (the
form of swbench/baseline.json).

Workloads: grounded_count, lifted_sweep, serve_warm, serve_cold. The exit
code is 0 when every answer matched its reference and the working-set
guards held, 1 when an answer was wrong, and 2 when the benchmark could
not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grounded_count", "lifted_sweep", "serve_warm", "serve_cold")

# name -> unit: the end-to-end metrics of the result line.
END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and kept in the report, but not in the result line. failed_share
# is 0 on a correct run (the result line carries failures in "attempted"
# and "failed"). latency_p99_ms is meaningful on serve_warm only, the one
# workload with enough requests per run; elsewhere it is one instance's
# latency and drifts with the host more than any bound allows.
REPORT_ONLY = {
    "latency_p99_ms": "ms",
    "failed_share": "share",
}

# name -> (unit, the end-to-end metrics it should move).
PER_LAYER = {
    "logic.parse_us": ("us", ["latency_p50_ms"]),
    "api.route_us": ("us", ["latency_p50_ms"]),
    "grounding.lineage_ms": ("ms", ["latency_p50_ms"]),
    "grounding.weights_ms": ("ms", ["latency_p50_ms"]),
    "prop.tseitin_ms": ("ms", ["latency_p50_ms"]),
    "prop.cnf_clauses": ("count", ["latency_p50_ms"]),
    "wmc.count_ms": ("ms", ["answers_per_s", "latency_p50_ms"]),
    "wmc.decisions": ("count", ["answers_per_s", "latency_p50_ms"]),
    "wmc.propagations": ("count", ["answers_per_s", "latency_p50_ms"]),
    "wmc.component_splits": ("count", ["answers_per_s", "latency_p50_ms"]),
    "wmc.cache_lookups": ("count", ["answers_per_s", "latency_p50_ms"]),
    "wmc.cache_hit_ratio": ("ratio", ["answers_per_s", "latency_p50_ms"]),
    "wmc.us_per_decision": ("us", ["answers_per_s", "latency_p50_ms"]),
    "wmc.cache_bytes": ("bytes", ["peak_rss_mb"]),
    "wmc.trace_count_ms": ("ms", ["latency_p50_ms", "peak_rss_mb"]),
    "wmc.trace_memo_entries": ("count", ["latency_p50_ms", "peak_rss_mb"]),
    "nnf.finish_ms": ("ms", ["latency_p50_ms", "peak_rss_mb"]),
    "nnf.circuit_nodes": ("count", ["latency_p50_ms", "peak_rss_mb"]),
    "nnf.circuit_edges": ("count", ["latency_p50_ms", "peak_rss_mb"]),
    "serve.circuit_bytes": ("bytes", ["latency_p50_ms", "peak_rss_mb"]),
    "fo2.compile_lifted_ms": ("ms", ["latency_p50_ms", "peak_rss_mb"]),
    "serve.evictions": ("count/req", ["latency_p50_ms", "peak_rss_mb"]),
    "io.parse_request_us": ("us", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "api.weights_us": ("us", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "nnf.eval_us_per_vector": ("us", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "nnf.lifted_eval_us_per_vector": ("us", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "nnf.eval_edges_per_s": ("edges/s", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "io.dump_us": ("us", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "serve.self_us": ("us", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "serve.cache_hit_ratio": ("ratio", ["latency_p50_ms", "latency_p99_ms", "answers_per_s"]),
    "fo2.normal_form_ms": ("ms", ["answers_per_s"]),
    "fo2.cell_ms": ("ms", ["answers_per_s"]),
    "fo2.cells": ("count", ["answers_per_s"]),
    "fo2.composition_terms": ("count", ["answers_per_s"]),
    "cq.gamma_ms": ("ms", ["answers_per_s"]),
    "numeric.answer_digits": ("digits", ["answers_per_s"]),
    "trace.span_coverage": ("ratio", []),
    "trace.overhead_ms": ("ms", []),
}

RUNNER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "swbench")


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    runner = os.path.join(out, "swbench_runner")
    if not os.path.exists(runner):
        raise RuntimeError("build produced no runner")
    return runner


def git(*args):
    try:
        result = subprocess.run(["git", *args], cwd=HERE, capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def provenance(report, seed):
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    build_type = report.get("build_type", "")
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "build_type": build_type,
        "optimized": build_type in ("Release", "RelWithDebInfo", "MinSizeRel"),
        "compiler": report.get("compiler", ""),
        "nproc": os.cpu_count(),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(args):
    try:
        runner = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"swbench: build failed: {error}")
        return 2
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"swbench: runner exceeded {RUNNER_TIMEOUT_S} s")
        return 2
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        log(f"swbench: runner failed with exit code {result.returncode}")
        return 2
    report = json.loads(lines[-1])
    report["provenance"] = provenance(report, args.seed)

    names = PER_LAYER if args.trace else END_TO_END
    source = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {}
    for name, spec in names.items():
        unit = spec[0] if args.trace else spec
        metrics[name] = {"value": float(source.get(name, 0.0)), "unit": unit}

    prov = report["provenance"]
    print(f"swfomc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  commit={prov['commit']} dirty={prov['dirty']} "
          f"build_type={prov['build_type']}"
          f"{'' if prov['optimized'] else ' (NOT OPTIMIZED)'} "
          f"compiler={prov['compiler']} nproc={prov['nproc']}")
    print(f"  operations={report['operations']} answers={report['answers']} "
          f"cycles={report['cycles']} wall_s={report['wall_s']:.3f}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:16.6g} {metric['unit']}")
    for name, unit in REPORT_ONLY.items():
        value = report["end_to_end"][name]
        print(f"  {name:32s} {value:16.6g} {unit} (report only)")
    for name, value in report["raw"].items():
        unit = {**END_TO_END, **REPORT_ONLY}[name]
        print(f"  {name:32s} {value:16.6g} {unit} (raw, report only)")
    for message in report["messages"]:
        print(f"  FAILED: {message}")

    if args.report:
        with open(args.report, "a", encoding="utf-8") as out:
            out.write(json.dumps(report, sort_keys=True) + "\n")

    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def load_reports(path):
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def medians(reports, workload, key):
    traced = key == "per_layer"
    values = {}
    for report in reports:
        if report["workload"] == workload and report["trace"] == traced:
            for name, value in report[key].items():
                values.setdefault(name, []).append(value)
    return {name: (statistics.median(v), len(v)) for name, v in values.items()}


def compare(args):
    bounds = {}
    config = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(config):
        with open(config, encoding="utf-8") as f:
            for metric in json.load(f)["end_to_end"]:
                bounds[metric["name"]] = (metric["bound"], metric["better"])
    parent, change = load_reports(args.parent), load_reports(args.change)
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    regressions = 0
    for workload in workloads:
        print(f"== {workload}")
        p_e2e, c_e2e = medians(parent, workload, "end_to_end"), medians(change, workload, "end_to_end")
        p_raw, c_raw = medians(parent, workload, "raw"), medians(change, workload, "raw")
        p_layer, c_layer = medians(parent, workload, "per_layer"), medians(change, workload, "per_layer")
        for name in [*END_TO_END, *REPORT_ONLY]:
            if name not in p_e2e or name not in c_e2e:
                continue
            (p, pn), (c, cn) = p_e2e[name], c_e2e[name]
            delta = (c - p) / p if p else 0.0
            bound, better = bounds.get(name, (0.25, "lower"))
            worse = delta if better == "lower" else -delta
            verdict = "REGRESSION" if worse > bound else (
                "better" if worse < -bound else "within bound")
            regressions += verdict == "REGRESSION"
            print(f"  {name:18s} parent {p:12.6g} (n={pn})  change {c:12.6g} "
                  f"(n={cn})  {delta:+7.1%}  bound {bound:.0%}  {verdict}")
            if name in p_raw and name in c_raw:
                rp, rc = p_raw[name][0], c_raw[name][0]
                raw_delta = (rc - rp) / rp if rp else 0.0
                print(f"      {'raw (as measured)':30s} {rp:12.6g} -> {rc:12.6g} "
                      f"{'':9s} {raw_delta:+7.1%}")
            rows = []
            for layer, (unit, targets) in PER_LAYER.items():
                if name not in targets or layer not in p_layer or layer not in c_layer:
                    continue
                lp, lc = p_layer[layer][0], c_layer[layer][0]
                if lp == 0 and lc == 0:
                    continue
                rows.append((abs(lc - lp) / lp if lp else float("inf"), layer, lp, lc, unit))
            for _, layer, lp, lc, unit in sorted(rows, reverse=True):
                change_text = f"{(lc - lp) / lp:+7.1%}" if lp else "    new"
                print(f"      {layer:30s} {lp:12.6g} -> {lc:12.6g} {unit:9s} {change_text}")
    return 1 if regressions else 0


def summarize(args):
    reports = load_reports(args.reports)
    summary = {"provenance": reports[0]["provenance"] if reports else {},
               "workloads": {}}
    for workload in sorted({r["workload"] for r in reports}):
        entry = {}
        for traced, key in ((False, "end_to_end"), (False, "raw"),
                            (True, "per_layer")):
            runs = [r for r in reports
                    if r["workload"] == workload and r["trace"] == traced]
            if not runs:
                continue
            entry[key + "_seeds"] = sorted(r["seed"] for r in runs)
            values = {}
            for r in runs:
                for name, value in r[key].items():
                    values.setdefault(name, []).append(value)
            entry[key] = {}
            for name, v in sorted(values.items()):
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                entry[key][name] = {"median": statistics.median(v),
                                    "q1": q[0], "q3": q[2], "runs": len(v)}
        summary["workloads"][workload] = entry
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return compare(parser.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "summarize":
        parser = argparse.ArgumentParser(prog="run.py summarize")
        parser.add_argument("reports")
        return summarize(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="append the full report to this file")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
