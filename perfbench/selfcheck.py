#!/usr/bin/env python3
"""The benchmark's own tests, on tiny sizes (about a minute):

    python3 perfbench/selfcheck.py

For every workload:
  * an untraced run emits every end-to-end metric of BENCHMARK.json,
    each non-zero, with the referee passing and no failed operation;
  * a traced run emits every per-layer metric, each one that applies
    to the workload non-zero (a renamed span or counter would read 0),
    and the top-level spans cover at least 95% of the timed rounds;
  * the referees catch a deliberately corrupted served answer and a
    corrupted whole-state result (the run reports correct: false);
  * the same seed twice gives identical deterministic counts.
Then run.py, copied into a directory holding only BENCHMARK.json and
perfbench/, must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("social_serve", "set_forall", "churn_serve")
DETERMINISTIC = (
    "eval.tuples_derived", "eval.combos_checked", "eval.iterations",
    "eval.rule_runs", "eval.groups_emitted", "eval.group_elements",
    "serve.relations_shared", "serve.relations_cloned",
    "input.facts_loaded", "input.tuples_at_fixpoint", "input.set_terms",
    "input.churn_ops_per_commit")

# Per-layer metrics that must be non-zero: on every workload, and on
# the one workload each further metric applies to. The rest may read 0
# (rederived tuples, empty fast path, index misses) or go negative by
# noise (trace.overhead_ratio, serve.render_share).
NONZERO_ALL = (
    "api.load_s", "api.compile_s", "api.commit_ms_p50", "api.commit_ms_p99",
    "api.stage_us_per_op", "eval.evaluate_s", "eval.tuples_derived",
    "eval.tuples_per_s", "eval.iterations", "eval.rule_runs",
    "eval.dedup_probes_per_tuple", "eval.plan_q_error", "eval.arena_bytes",
    "eval.index_bytes", "eval.arena_rows_per_live_row", "serve.freeze_ms",
    "serve.republish_ms_p50", "serve.republish_ms_p99",
    "serve.relations_cloned", "serve.publish_us", "serve.prepare_us",
    "serve.answers_per_query", "serve.lane_busy_ratio",
    "serve.worker_rebinds", "serve.first_read_after_publish_us",
    "api.measure_self_s", "serve.measure_self_s", "bench.measure_self_s",
    "trace.coverage", "trace.spans", "machine.nproc", "machine.lanes",
    "input.facts_loaded", "input.tuples_at_fixpoint", "input.set_terms",
    "input.churn_ops_per_commit", "output.answer_rows_per_query")
NONZERO = {
    "social_serve": (
        "api.ingest_s", "api.ingest_parse_ms", "api.ingest_merge_ms",
        "api.ingest_facts_per_s", "serve.demand_share",
        "serve.rewrite_cache_hit_ratio"),
    "set_forall": (
        "eval.combos_checked", "eval.combos_per_tuple",
        "eval.groups_emitted", "eval.group_elements",
        "eval.set_intern_hit_ratio", "serve.scan_queries"),
    "churn_serve": (
        "eval.delta_rounds", "eval.overdeleted_tuples",
        "serve.relations_shared", "serve.bytes_shared",
        "serve.store_shared_ratio", "serve.demand_share",
        "serve.rewrite_cache_hit_ratio", "serve.worker_refreshes"),
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra, script=RUN, cwd=ROOT):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]

    for w in WORKLOADS:
        _, r = run(w, 3, 0)
        check(r is not None and r["correct"] and r["failed"] == 0
              and r["attempted"] > 0, w + ": untraced run passes its referee")
        if r:
            missing = [n for n in e2e if n not in r["metrics"]]
            check(not missing, w + ": every end-to-end metric emitted %s"
                  % (missing or ""))
            zero = [n for n in e2e
                    if n in r["metrics"] and not r["metrics"][n]["value"] > 0]
            check(not zero, w + ": no end-to-end metric is 0 %s"
                  % (zero or ""))

        _, t1 = run(w, 3, 1)
        check(t1 is not None and t1["correct"], w + ": traced run passes")
        if t1:
            missing = [n for n in layers if n not in t1["metrics"]]
            check(not missing, w + ": every per-layer metric emitted %s"
                  % (missing or ""))
            zero = [n for n in NONZERO_ALL + NONZERO[w]
                    if not t1["metrics"].get(n, {}).get("value", 0) > 0]
            check(not zero, w + ": every per-layer metric that applies is "
                  "non-zero %s" % (zero or ""))
            cov = t1["metrics"].get("trace.coverage", {}).get("value", 0)
            check(cov >= 0.95, w + ": spans cover %.4f of the timed rounds"
                  % cov)

        _, t2 = run(w, 3, 1)
        if t1 and t2:
            diff = [n for n in DETERMINISTIC
                    if t1["metrics"][n]["value"] != t2["metrics"][n]["value"]]
            check(not diff, w + ": same seed, identical counts %s"
                  % (diff or ""))

        for kind in ("served", "state"):
            _, c = run(w, 3, 0, "--corrupt", kind)
            check(c is not None and c["correct"] is False,
                  w + ": referee catches a corrupted %s answer" % kind)

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, r = run("social_serve", 3, 0, cwd=bare,
                  script=os.path.join(bare, "perfbench", "run.py"))
    check(proc.returncode != 0 and r is None,
          "without engine sources run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
