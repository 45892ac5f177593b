#!/usr/bin/env python3
"""Turns a traced run's span file into the per-layer metrics.

pipeline_bench --trace 1 writes Chrome trace-event JSON:
one "X" event per span the benchmark placed around a call into the
engine's public API, named "<layer>.<Call>" (api.Commit,
eval.Evaluate, serve.FreezeIncremental, ...), with args span/parent/id/
flag, and under "otherData" the layer counters read from the engine's
public stats structs plus the run information. Span times are the
process's CPU time (the benchmark's clock), not wall time.

    python3 perfbench/trace_report.py TRACE.json

prints every per-layer metric with its unit, and for ratios their base.
Bench spans: bench.setup (one per setup round, the first before the
measure pass and the others spread through it; setup metrics are medians
over rounds), bench.round (a traced round of the measure pass: a traced
run traces every other round) and bench.referee (checks, excluded from
the timed rounds).
"""

import json
import statistics
import sys


def _pct(values, p):
    if not values:
        return 0.0
    v = sorted(values)
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def _div(a, b):
    return a / b if b else 0.0


class Trace:
    def __init__(self, doc):
        self.spans = []
        for e in doc["traceEvents"]:
            a = e["args"]
            self.spans.append({
                "name": e["name"], "ts": e["ts"], "dur": e["dur"],
                "span": a["span"], "parent": a["parent"], "id": a["id"],
                "flag": a["flag"]})
        self.by_index = {s["span"]: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)
        other = doc.get("otherData", {})
        self.counters = other.get("counters", {})
        self.info = other.get("info", {})

    def ancestors(self, s):
        while s["parent"] >= 0:
            s = self.by_index[s["parent"]]
            yield s["name"]

    def durs(self, name, within=None, flag=None):
        """Durations in microseconds of spans called `name`; `within`
        "bench.setup" keeps setup rounds, "bench.round" measure rounds."""
        out = []
        for s in self.spans:
            if s["name"] != name or (flag is not None and s["flag"] != flag):
                continue
            up = set(self.ancestors(s))
            if within == "bench.setup" and within not in up:
                continue
            if within == "bench.round" and (
                    within not in up or "bench.setup" in up):
                continue
            out.append(s["dur"])
        return out

    def c(self, name):
        return float(self.counters.get(name, 0.0))


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(doc):
    """Returns {name: (value, unit, base)}; base is "" for non-ratios."""
    t = Trace(doc)
    c = t.c
    setup = "bench.setup"
    measure = "bench.round"
    out = {}

    def put(name, value, unit, base=""):
        out[name] = (float(value), unit, base)

    # ---- api --------------------------------------------------------
    ingest_s = _median(t.durs("api.LoadFactsParallel", setup)) / 1e6
    put("api.ingest_s", ingest_s, "s")
    put("api.ingest_parse_ms", c("api.ingest_parse_ms"), "ms")
    put("api.ingest_merge_ms", c("api.ingest_merge_ms"), "ms")
    put("api.ingest_facts_per_s", _div(c("api.ingest_facts_parsed"), ingest_s),
        "1/s", "facts parsed %d / api.ingest_s" % c("api.ingest_facts_parsed"))
    put("api.load_s", _median(t.durs("api.Load", setup)) / 1e6, "s")
    put("api.compile_s", _median(t.durs("api.Compile", setup)) / 1e6, "s")
    commits = t.durs("api.Commit", measure)
    put("api.commit_ms_p50", _pct(commits, 50) / 1e3, "ms")
    put("api.commit_ms_p99", _pct(commits, 99) / 1e3, "ms")
    ops = float(t.info.get("churn_ops_per_commit", 0))
    put("api.stage_us_per_op", _div(_median(t.durs("api.Stage", measure)), ops),
        "us", "median staging of %d ops" % ops)

    # ---- eval -------------------------------------------------------
    evaluate_s = _median(t.durs("eval.Evaluate", setup)) / 1e6
    derived = c("eval.tuples_derived")
    put("eval.evaluate_s", evaluate_s, "s")
    put("eval.tuples_derived", derived, "count")
    put("eval.tuples_per_s", _div(derived, evaluate_s), "1/s",
        "eval.tuples_derived / eval.evaluate_s")
    put("eval.iterations", c("eval.iterations"), "count")
    put("eval.rule_runs", c("eval.rule_runs"), "count")
    put("eval.combos_checked", c("eval.combos_checked"), "count")
    put("eval.combos_per_tuple", _div(c("eval.combos_checked"), derived),
        "ratio", "per eval.tuples_derived")
    put("eval.groups_emitted", c("eval.groups_emitted"), "count")
    put("eval.group_elements", c("eval.group_elements"), "count")
    put("eval.set_intern_hit_ratio",
        _div(c("eval.set_intern_hits"), c("eval.set_interns")), "ratio",
        "of %d set interns" % c("eval.set_interns"))
    put("eval.dedup_probes_per_tuple", _div(c("eval.dedup_probes"), derived),
        "ratio", "per eval.tuples_derived")
    est = c("eval.plan_estimated_tuples")
    put("eval.plan_q_error",
        max(est / derived, derived / est) if est > 0 and derived > 0 else 0.0,
        "ratio", "estimated %.0f vs derived %d tuples" % (est, derived))
    put("eval.arena_bytes", c("eval.arena_bytes"), "B")
    put("eval.index_bytes", c("eval.index_bytes"), "B")
    put("eval.delta_rounds", c("eval.delta_rounds"), "count")
    put("eval.overdeleted_tuples", c("eval.overdeleted_tuples"), "count")
    put("eval.rederived_tuples", c("eval.rederived_tuples"), "count")
    put("eval.rederive_ratio",
        _div(c("eval.rederived_tuples"), c("eval.overdeleted_tuples")),
        "ratio", "of eval.overdeleted_tuples")
    put("eval.arena_rows_per_live_row",
        _div(c("eval.arena_rows"), c("eval.live_rows")), "ratio",
        "%d arena rows / %d live rows" % (c("eval.arena_rows"),
                                          c("eval.live_rows")))

    # ---- serve ------------------------------------------------------
    put("serve.freeze_ms", _median(t.durs("serve.Freeze", setup)) / 1e3, "ms")
    republish = t.durs("serve.FreezeIncremental", measure)
    put("serve.republish_ms_p50", _pct(republish, 50) / 1e3, "ms")
    put("serve.republish_ms_p99", _pct(republish, 99) / 1e3, "ms")
    for k in ("relations_shared", "relations_cloned", "bytes_shared"):
        put("serve." + k, c("serve." + k), "B" if k == "bytes_shared" else
            "count", "mean per republish")
    put("serve.store_shared_ratio", c("serve.store_shared_ratio"), "ratio",
        "of republishes")
    put("serve.publish_us", _median(t.durs("serve.Publish", measure)), "us")
    put("serve.prepare_us", _median(t.durs("serve.Prepare", setup)), "us")
    queries = c("serve.queries")
    put("serve.demand_share", _div(c("serve.demand_queries"), queries),
        "ratio", "of %d served queries" % queries)
    put("serve.scan_queries", c("serve.scan_queries"), "count")
    put("serve.empty_fast_path", c("serve.empty_fast_path"), "count")
    hits = c("serve.rewrite_cache_hits")
    put("serve.rewrite_cache_hit_ratio",
        _div(hits, hits + c("serve.rewrites_built")), "ratio",
        "of %d rewrite lookups" % (hits + c("serve.rewrites_built")))
    put("serve.index_misses", c("serve.index_misses"), "count")
    put("serve.answers_per_query", _div(c("serve.answers"), queries),
        "ratio", "per served query")
    recorded = t.durs("serve.ExecuteBatch", measure, flag=1)
    quiet = t.durs("serve.ExecuteBatch", measure, flag=2)
    rec_mean = _div(sum(recorded), len(recorded))
    quiet_mean = _div(sum(quiet), len(quiet))
    put("serve.render_share", _div(rec_mean - quiet_mean, rec_mean), "ratio",
        "of ExecuteBatch time, %d batch pairs" % min(len(recorded), len(quiet)))
    put("serve.lane_busy_ratio",
        _div(c("serve.batch_busy_us"),
             c("serve.lanes") * c("serve.batch_us")),
        "ratio", "of %d lanes x batch time" % c("serve.lanes"))
    put("serve.worker_rebinds", c("serve.worker_rebinds"), "count")
    put("serve.worker_refreshes", c("serve.worker_refreshes"), "count")
    put("serve.first_read_after_publish_us",
        _median(t.durs("serve.Execute", measure, flag=1)), "us")

    # ---- self time, coverage, overhead ---------------------------------
    excluded_names = ("bench.referee", "bench.setup")
    self_by_layer = {"api": 0.0, "serve": 0.0, "bench": 0.0}
    covered = excluded = timed = 0.0
    for root in (s for s in t.spans if s["name"] == measure):
        timed += root["dur"]
        stack = [root]
        while stack:
            s = stack.pop()
            kids = t.children.get(s["span"], [])
            layer = s["name"].split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (
                s["dur"] - sum(k["dur"] for k in kids))
            stack.extend(k for k in kids if k["name"] not in excluded_names)
        for k in t.children.get(root["span"], []):
            if k["name"] in excluded_names:
                excluded += k["dur"]
            else:
                covered += k["dur"]
    for layer in ("api", "serve", "bench"):
        put(layer + ".measure_self_s", self_by_layer[layer] / 1e6, "s")
    put("trace.coverage", _div(covered, timed - excluded), "ratio",
        "of %.3f s in timed rounds (checks and setup rounds excluded)"
        % ((timed - excluded) / 1e6))
    untraced = c("trace.untraced_round_s")
    put("trace.overhead_ratio",
        _div(c("trace.traced_round_s") - untraced, untraced), "ratio",
        "of the median untraced round, %.3f s, same work" % untraced)
    put("trace.spans", c("trace.spans"), "count")

    # ---- run information: machine, input and output sizes -------------
    info = t.info
    for key, name, unit in (
            ("nproc", "machine.nproc", "count"),
            ("lanes", "machine.lanes", "count"),
            ("facts_loaded", "input.facts_loaded", "count"),
            ("tuples_at_fixpoint", "input.tuples_at_fixpoint", "count"),
            ("set_terms", "input.set_terms", "count"),
            ("churn_ops_per_commit", "input.churn_ops_per_commit", "count"),
            ("answer_rows_per_query", "output.answer_rows_per_query",
             "count")):
        put(name, info.get(key, 0), unit)
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    for name, (value, unit, base) in per_layer(doc).items():
        print("%-36s %16.6g %-6s %s" % (name, value, unit, base))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
