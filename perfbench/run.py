#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload social_serve --seed 1 \
        --seconds 10 --trace 0

Builds the engine and pipeline_bench from source (Release, into
.bench_build/perfbench), runs the workload in its own process, and
prints every metric by name with its unit and sample count, then, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run records spans around every call
into the engine and the metrics are the per-layer ones, computed from
the span file by trace_report.py. Workloads, metrics and the reasons
behind them are described in BENCHMARK.json and README.md here.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import trace_report  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("social_serve", "set_forall", "churn_serve")
# pipeline_bench's own allowance beyond --seconds: five setup rounds,
# the referee's checks and the final whole-state check.
RUN_SLACK_S = 140


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds pipeline_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.h")):
        log("engine sources not found under %s/src" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries the result only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "pipeline_bench")


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-check sizes (selfcheck.py)")
    p.add_argument("--corrupt", choices=("served", "state"),
                   help="corrupt one answer; the referee must catch it")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_file = os.path.join(
            BUILD, "traces", "%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace", "1", "--trace-out", trace_file]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    timeout = args.seconds + RUN_SLACK_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("pipeline_bench exceeded %g s" % timeout)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("pipeline_bench failed with exit code %d" % proc.returncode)
        return 1
    res = json.loads(lines[-1])
    data = res["data"]

    if args.trace:
        with open(trace_file) as f:
            layer = trace_report.per_layer(json.load(f))
        wanted = metric_names("per_layer")
        rows = [(n, layer[n][0], u, layer[n][2], "") for n, u in wanted]
    else:
        e2e = res["metrics"]
        wanted = metric_names("end_to_end")
        rows = [(n, e2e[n]["value"], u, "", "n=%d" % e2e[n]["samples"])
                for n, u in wanted]

    info = data["info"]
    attempted, failed = res["attempted"], res["failed"]
    print("workload %s seed %s: nproc %s, lanes %s, %s build, %s s, "
          "correct %s (%d referee checks), peak_rss_mb scope %s" % (
              args.workload, args.seed, info.get("nproc"), info.get("lanes"),
              info.get("build_type"), info.get("seconds"),
              str(res["correct"]).lower(), res["referee"]["checks"],
              info.get("peak_rss_scope")))
    print("  sizes: %s" % ", ".join(
        "%s %s" % (k, info[k]) for k in sorted(info)
        if k not in ("workload", "seed", "nproc", "lanes", "build_type",
                     "seconds", "scale", "peak_rss_scope")))
    print("  failed_ratio %.6g (%d failed / %d attempted)" % (
        failed / attempted if attempted else 0.0, failed, attempted))
    for name, value, unit, base, samples in rows:
        print("  %-34s %14.6g %-6s %s%s" % (name, value, unit, samples, base))
    if not res["correct"]:
        log("referee mismatch: " + res["referee"]["first_mismatch"])
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
