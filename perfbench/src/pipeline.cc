#include "pipeline.h"

#include <utility>

namespace perfbench {

namespace {

using lps::serve::QueryServer;
using lps::serve::ServeAnswer;
using lps::serve::ServeRequest;

// The tail percentile reported for latencies. Query latency keeps at
// least ten samples beyond it on every workload; freshness on
// social_serve and set_forall, where a commit is a full re-evaluation,
// has 20 to 45 commits per 35 s run, so there p90 rests on the top two
// to four.
constexpr double kTailPct = 90;
constexpr const char* kTailName = "p90";

// The referee compares one read in this many, and one batch in this
// many, with a sequential Session::Query.
constexpr size_t kCheckEveryRead = 16;
constexpr size_t kCheckEveryBatch = 4;


struct Served {
  std::unique_ptr<lps::Session> session;
  lps::serve::SnapshotRegistry registry;
  std::unique_ptr<QueryServer> server;  // ServeOptions defaults, L lanes
  // record_answers off, same lanes: traced runs compare it with
  // `server` on identical batches for serve.render_share.
  std::unique_ptr<QueryServer> quiet;
  std::shared_ptr<const lps::serve::Snapshot> snap;  // last published
};

struct PassResult {
  Samples query_us;
  Samples fresh_ms;
  size_t rounds = 0;
  size_t reads = 0;
  size_t batches = 0;
  size_t commits = 0;
  size_t ops = 0;
  double batch_requests = 0;
  double batch_us = 0;
  double busy_us = 0;
  // Traced runs trace every other round; the time of the traced and
  // untraced rounds, referee checks excluded, gives the overhead.
  Samples traced_round_s;
  Samples untraced_round_s;
  // Per-commit engine counters, summed.
  double delta_rounds = 0;
  double overdeleted = 0;
  double rederived = 0;
  double relations_shared = 0;
  double relations_cloned = 0;
  double bytes_shared = 0;
  double store_shared = 0;
};

bool AnswerOk(const lps::Result<ServeAnswer>& a) {
  return a.ok() && a->status.ok() && !a->partial;
}

double SecondsSince(Clock::time_point t0) {
  return MicrosBetween(t0, Clock::now()) / 1e6;
}

class Pipeline {
 public:
  Pipeline(Context* ctx, Workload* w)
      : ctx_(ctx), w_(w), tr_(&ctx->tracer), specs_(w->Queries()),
        churn_rng_(ctx->args.seed * 0x9e3779b97f4a7c15ULL + 3) {}

  void Run();

 private:
  /// One setup round: a fresh session through Load -> Evaluate ->
  /// Freeze -> Publish -> QueryServer + Prepare. Adds to setup_s_. The
  /// caller holds the round's bench.setup span open.
  std::unique_ptr<Served> Setup(int round);
  PassResult Pass(double seconds);
  void Read(const ServeRequest& req, uint64_t id, int flag,
            PassResult* out, double* excluded);
  void Batch(Rng* rng, PassResult* out, double* excluded);
  void Churn(PassResult* out, double* excluded);
  /// Compares one served answer with a sequential Session::Query.
  void CheckAnswer(const ServeRequest& req, const ServeAnswer& ans);
  void CheckFinal();
  void ReportCounters(const PassResult& p);
  /// Runs `f`, a whole-state check or a thrown-away setup round, aside
  /// from the served path: its memory is left out of peak_rss_mb.
  template <class F>
  void Aside(F&& f) {
    rss_.Pause();
    f();
    rss_.Resume();
  }

  Context* ctx_;
  Workload* w_;
  Tracer* tr_;
  std::vector<QuerySpec> specs_;
  Rng churn_rng_;
  std::unique_ptr<Served> st_;
  ServedRss rss_;
  Samples setup_s_;
  int setups_done_ = 0;
  uint64_t next_request_ = 1;
  uint64_t next_commit_ = 1;
};

std::unique_ptr<Served> Pipeline::Setup(int round) {
  auto st = std::make_unique<Served>();
  const Clock::time_point t0 = Clock::now();
  st->session = std::make_unique<lps::Session>(
      lps::LanguageMode::kLDL, w_->SessionOptions(ctx_->lanes));
  w_->Load(st->session.get(), ctx_);
  lps::Status s;
  Timed(tr_, "eval.Evaluate", 0, [&] { s = st->session->Evaluate(); });
  MustOk(s, "Evaluate");
  lps::Result<std::shared_ptr<const lps::serve::Snapshot>> snap =
      lps::Status::OK();
  Timed(tr_, "serve.Freeze", 0, [&] { snap = st->session->Freeze(); });
  MustOk(snap.status(), "Freeze");
  st->snap = *snap;
  Timed(tr_, "serve.Publish", 0, [&] { st->registry.Publish(st->snap); });
  lps::serve::ServeOptions opts;
  opts.threads = ctx_->lanes;
  Timed(tr_, "serve.QueryServer", 0, [&] {
    st->server = std::make_unique<QueryServer>(&st->registry, opts);
  });
  for (size_t i = 0; i < specs_.size(); ++i) {
    lps::Result<size_t> id = lps::Status::OK();
    Timed(tr_, "serve.Prepare", 0,
          [&] { id = st->server->Prepare(specs_[i].ServeGoal()); });
    MustOk(id.status(), "Prepare " + specs_[i].ServeGoal());
    if (*id != i) Die("query ids are not Queries() indexes");
  }
  setup_s_.Add(SecondsSince(t0));
  ++setups_done_;
  if (round > 0) return st;

  // Layer counters and sizes of the first round, whose input is the
  // seed's (later rounds load the churned model).
  const lps::EvalStats& es = st->session->eval_stats();
  Report& r = ctx_->report;
  r.Counter("eval.tuples_derived", es.tuples_derived);
  r.Counter("eval.iterations", es.iterations);
  r.Counter("eval.rule_runs", es.rule_runs);
  r.Counter("eval.combos_checked", es.combos_checked);
  r.Counter("eval.groups_emitted", es.groups_emitted);
  r.Counter("eval.group_elements", es.group_elements);
  r.Counter("eval.set_interns", es.set_interns);
  r.Counter("eval.set_intern_hits", es.set_intern_hits);
  r.Counter("eval.dedup_probes", static_cast<double>(es.dedup_probes));
  r.Counter("eval.plan_estimated_tuples", es.plan_estimated_tuples);
  r.Counter("eval.arena_bytes", es.arena_bytes);
  r.Counter("eval.index_bytes", es.index_bytes);
  r.Counter("api.ingest_parse_ms", es.ingest.parse_ms);
  r.Counter("api.ingest_merge_ms", es.ingest.merge_ms);
  r.Counter("api.ingest_facts_parsed", es.ingest.facts_parsed);

  size_t live = 0;
  for (const auto& [pred, rs] : st->session->database()->CollectStats()) {
    live += rs.live_rows;
  }
  size_t sets = 0;
  const lps::TermStore& store = *st->session->store();
  for (size_t t = 0; t < store.size(); ++t) {
    if (store.IsSet(static_cast<lps::TermId>(t))) ++sets;
  }
  r.Info("facts_loaded", static_cast<double>(
                             st->session->program()->facts().size()));
  r.Info("tuples_at_fixpoint", static_cast<double>(live));
  r.Info("set_terms", static_cast<double>(sets));
  return st;
}

void Pipeline::CheckAnswer(const ServeRequest& req, const ServeAnswer& ans) {
  const QuerySpec& q = specs_.at(req.query);
  std::vector<std::string> rows = ans.rows;
  if (ctx_->TakeCorruption("served")) rows.push_back("(corrupted)");
  const std::string& value = req.params.at(0).second;
  const std::vector<std::string> truth =
      QueryRows(st_->session.get(), q.TruthGoal(value));
  ctx_->report.Check(
      Sorted(rows) == Sorted(truth) && ans.count == truth.size(),
      "served " + q.TruthGoal(value) + ": " + std::to_string(rows.size()) +
          " rows, Session::Query gives " + std::to_string(truth.size()));
}

void Pipeline::Read(const ServeRequest& req, uint64_t id, int flag,
                    PassResult* out, double* excluded) {
  lps::Result<ServeAnswer> ans = lps::Status::OK();
  const double us = Timed(
      tr_, "serve.Execute", id, [&] { ans = st_->server->Execute(req); },
      flag);
  const bool ok = AnswerOk(ans);
  ctx_->report.Attempt(ok);
  out->query_us.Add(us);
  ++out->reads;
  if (ok && (out->reads - 1) % kCheckEveryRead == 0) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope scope(tr_, "bench.referee", id);
      CheckAnswer(req, *ans);
    }
    *excluded += SecondsSince(t0);
  }
}

void Pipeline::Batch(Rng* rng, PassResult* out, double* excluded) {
  std::vector<ServeRequest> batch;
  batch.reserve(w_->batch_size);
  for (size_t i = 0; i < w_->batch_size; ++i) {
    batch.push_back(w_->NextRequest(rng));
  }
  const uint64_t id = next_request_++;
  lps::Result<std::vector<ServeAnswer>> ans = lps::Status::OK();
  const double us = Timed(
      tr_, "serve.ExecuteBatch", id,
      [&] { ans = st_->server->ExecuteBatch(batch); }, /*flag=*/1);
  ++out->batches;
  out->batch_requests += static_cast<double>(batch.size());
  out->batch_us += us;
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool ok = ans.ok() && (*ans)[i].status.ok() && !(*ans)[i].partial;
    ctx_->report.Attempt(ok);
    if (ans.ok()) out->busy_us += (*ans)[i].micros;
  }
  if (st_->quiet) {
    lps::Result<std::vector<ServeAnswer>> q = lps::Status::OK();
    Timed(
        tr_, "serve.ExecuteBatch", id,
        [&] { q = st_->quiet->ExecuteBatch(batch); }, /*flag=*/2);
    for (size_t i = 0; i < batch.size(); ++i) {
      ctx_->report.Attempt(q.ok() && (*q)[i].status.ok() && !(*q)[i].partial);
    }
  }
  if (ans.ok() && (out->batches - 1) % kCheckEveryBatch == 0) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope scope(tr_, "bench.referee", id);
      CheckAnswer(batch[0], (*ans)[0]);
    }
    *excluded += SecondsSince(t0);
  }
}

void Pipeline::Churn(PassResult* out, double* excluded) {
  const uint64_t id = next_commit_++;
  lps::Session* session = st_->session.get();
  size_t ops = 0;
  std::unique_ptr<lps::MutationBatch> batch;
  Timed(tr_, "api.Stage", id, [&] {
    batch = std::make_unique<lps::MutationBatch>(session->Mutate());
    ops = w_->StageChurn(session, batch.get(), &churn_rng_);
  });
  out->ops += ops;
  lps::Status s;
  const Clock::time_point t0 = Clock::now();
  Timed(tr_, "api.Commit", id, [&] { s = batch->Commit(); });
  ctx_->report.Attempt(s.ok());
  const lps::EvalStats& es = session->eval_stats();
  out->delta_rounds += es.delta_rounds;
  out->overdeleted += es.overdeleted_tuples;
  out->rederived += es.rederived_tuples;

  lps::Result<std::shared_ptr<const lps::serve::Snapshot>> snap =
      lps::Status::OK();
  Timed(tr_, "serve.FreezeIncremental", id,
        [&] { snap = session->FreezeIncremental(st_->snap); });
  MustOk(snap.status(), "FreezeIncremental");
  st_->snap = *snap;
  Timed(tr_, "serve.Publish", id, [&] { st_->registry.Publish(st_->snap); });
  out->fresh_ms.Add(MicrosBetween(t0, Clock::now()) / 1e3);
  ++out->commits;
  const lps::serve::CowStats& cow = st_->snap->cow_stats();
  out->relations_shared += cow.relations_shared;
  out->relations_cloned += cow.relations_cloned;
  out->bytes_shared += cow.bytes_shared;
  out->store_shared += cow.store_shared ? 1 : 0;

  Rng rng(ctx_->args.seed * 31 + id);
  for (size_t i = 0; i < w_->reads_per_publish; ++i) {
    Read(w_->NextRequest(&rng), next_request_++, i == 0 ? 1 : 0, out,
         excluded);
  }
  for (size_t i = 0; i < w_->batches_per_publish; ++i) {
    Batch(&rng, out, excluded);
  }
  if (w_->check_every_commits > 0 && id % w_->check_every_commits == 0) {
    const Clock::time_point c0 = Clock::now();
    Aside([&] {
      Scope scope(tr_, "bench.referee", id);
      w_->CheckState(session, ctx_);
    });
    *excluded += SecondsSince(c0);
  }
}

PassResult Pipeline::Pass(double seconds) {
  PassResult out;
  double excluded = 0;  // referee checks and setup rounds
  const bool trace = ctx_->args.trace;
  // The pass lasts `seconds` of wall time, setup rounds and referee
  // checks included, however busy the host; what it measures is timed
  // with Clock.
  const WallClock::time_point start = WallClock::now();
  auto wall_s = [&] {
    return std::chrono::duration<double>(WallClock::now() - start).count();
  };
  Rng rng(ctx_->args.seed * 0x51ed2701ULL + 11);
  // Further setup rounds are spread over the pass, at the middles of
  // kSetupRounds - 1 equal stretches; they are timed for setup_s and
  // excluded from the rounds' times.
  auto take_setups = [&](bool all) {
    tr_->set_enabled(trace);
    while (setups_done_ < kSetupRounds &&
           (all || wall_s() >= seconds * (setups_done_ - 0.5) /
                                   (kSetupRounds - 1))) {
      const Clock::time_point t0 = Clock::now();
      Aside([&] {
        Scope setup(tr_, "bench.setup", static_cast<uint64_t>(setups_done_));
        Setup(setups_done_);  // and its teardown, inside the span
      });
      excluded += SecondsSince(t0);
    }
  };
  for (size_t r = 0; r == 0 || wall_s() < seconds; ++r) {
    take_setups(false);
    const bool traced = trace && r % 2 == 1;
    tr_->set_enabled(traced);
    // The round's reads are drawn before it starts: cheap as requests
    // are, on the scan route they would be a sizeable share of the round.
    std::vector<ServeRequest> reads;
    reads.reserve(w_->reads_per_round);
    for (size_t i = 0; i < w_->reads_per_round; ++i) {
      reads.push_back(w_->NextRequest(&rng));
    }
    const double excluded_before = excluded;
    const Clock::time_point t0 = Clock::now();
    {
      Scope round(tr_, "bench.round", r);
      for (const ServeRequest& req : reads) {
        Read(req, next_request_++, 0, &out, &excluded);
      }
      for (size_t i = 0; i < w_->batches_per_round; ++i) {
        Batch(&rng, &out, &excluded);
      }
      for (size_t i = 0; i < w_->commits_per_round; ++i) {
        Churn(&out, &excluded);
      }
    }
    (traced ? out.traced_round_s : out.untraced_round_s)
        .Add(SecondsSince(t0) - (excluded - excluded_before));
    ++out.rounds;
  }
  take_setups(true);  // a short pass still takes every setup round
  return out;
}

void Pipeline::CheckFinal() {
  Scope scope(tr_, "bench.referee");
  lps::Session* session = st_->session.get();
  // Sampled requests through the server against Session::Query.
  Rng rng(ctx_->args.seed * 7 + 5);
  for (int i = 0; i < 16; ++i) {
    const ServeRequest req = w_->NextRequest(&rng);
    lps::Result<ServeAnswer> ans = st_->server->Execute(req);
    ctx_->report.Check(AnswerOk(ans), "final served request failed");
    if (AnswerOk(ans)) CheckAnswer(req, *ans);
  }
  w_->CheckState(session, ctx_);
  // The last copy-on-write snapshot renders the same as a deep freeze.
  lps::Result<std::shared_ptr<const lps::serve::Snapshot>> deep =
      session->Freeze();
  MustOk(deep.status(), "deep Freeze");
  ctx_->report.Check(
      st_->snap->database().ToCanonicalString(st_->snap->signature()) ==
          (*deep)->database().ToCanonicalString((*deep)->signature()),
      "copy-on-write snapshot differs from a deep Freeze");
}

void Pipeline::ReportCounters(const PassResult& p) {
  Report& r = ctx_->report;
  const double commits = p.commits ? static_cast<double>(p.commits) : 1.0;
  r.Counter("eval.delta_rounds", p.delta_rounds);
  r.Counter("eval.overdeleted_tuples", p.overdeleted);
  r.Counter("eval.rederived_tuples", p.rederived);
  r.Counter("serve.relations_shared", p.relations_shared / commits);
  r.Counter("serve.relations_cloned", p.relations_cloned / commits);
  r.Counter("serve.bytes_shared", p.bytes_shared / commits);
  r.Counter("serve.store_shared_ratio", p.store_shared / commits);
  r.Counter("serve.batch_busy_us", p.busy_us);
  r.Counter("serve.batch_us", p.batch_us);

  const lps::serve::ServeStats ss = st_->server->stats();
  r.Counter("serve.queries", ss.queries);
  r.Counter("serve.demand_queries", ss.demand_queries);
  r.Counter("serve.scan_queries", ss.scan_queries);
  r.Counter("serve.empty_fast_path", ss.empty_fast_path);
  r.Counter("serve.answers", ss.answers);
  r.Counter("serve.rewrites_built", ss.rewrites_built);
  r.Counter("serve.rewrite_cache_hits", ss.rewrite_cache_hits);
  r.Counter("serve.index_misses", ss.index_misses);
  r.Counter("serve.worker_rebinds", ss.worker_rebinds);
  r.Counter("serve.worker_refreshes", ss.worker_refreshes);
  r.Counter("serve.lanes", static_cast<double>(st_->server->threads()));

  size_t live = 0, arena = 0;
  for (const auto& [pred, rs] :
       st_->session->database()->CollectStats()) {
    live += rs.live_rows;
    arena += rs.arena_rows;
  }
  r.Counter("eval.arena_rows", arena);
  r.Counter("eval.live_rows", live);

  r.Info("answer_rows_per_query",
         ss.queries ? static_cast<double>(ss.answers) / ss.queries : 0);
  r.Info("churn_ops_per_commit",
         p.commits ? static_cast<double>(p.ops) / p.commits : 0);
  r.Info("commits", static_cast<double>(p.commits));
  r.Info("reads", static_cast<double>(p.reads));
  r.Info("batches", static_cast<double>(p.batches));
  r.Info("rounds", static_cast<double>(p.rounds));
}

void Pipeline::Run() {
  tr_->set_enabled(ctx_->args.trace);
  {
    Scope setup(tr_, "bench.setup", 0);
    st_ = Setup(0);
  }
  Aside([&] {
    Scope scope(tr_, "bench.referee");
    w_->CheckState(st_->session.get(), ctx_);
  });

  if (ctx_->args.trace) {
    lps::serve::ServeOptions quiet;
    quiet.threads = ctx_->lanes;
    quiet.record_answers = false;
    st_->quiet = std::make_unique<QueryServer>(&st_->registry, quiet);
    for (const QuerySpec& q : specs_) {
      MustOk(st_->quiet->Prepare(q.ServeGoal()).status(), "Prepare quiet");
    }
  }
  const PassResult p = Pass(ctx_->args.seconds);
  if (ctx_->args.trace) {
    ctx_->report.Counter("trace.traced_round_s", p.traced_round_s.Median());
    ctx_->report.Counter("trace.untraced_round_s",
                         p.untraced_round_s.Median());
  }
  ReportCounters(p);
  rss_.Pause();
  CheckFinal();

  Report& r = ctx_->report;
  r.Metric("setup_s", setup_s_.Median(), "s", setup_s_.size());
  r.Metric("query_p50_us", p.query_us.Median(), "us", p.query_us.size());
  r.Metric(std::string("query_") + kTailName + "_us",
           p.query_us.Percentile(kTailPct), "us", p.query_us.size());
  r.Metric("serve_qps",
           p.batch_us > 0 ? p.batch_requests / (p.batch_us / 1e6) : 0,
           "1/s", p.batches);
  r.Metric("freshness_p50_ms", p.fresh_ms.Median(), "ms", p.fresh_ms.size());
  r.Metric(std::string("freshness_") + kTailName + "_ms",
           p.fresh_ms.Percentile(kTailPct), "ms", p.fresh_ms.size());
  r.Metric("peak_rss_mb", rss_.PeakMb(), "MB", 1);
  r.Info("peak_rss_scope", rss_.scoped() ? "served" : "process");
}

}  // namespace

std::string QuerySpec::ServeGoal() const {
  std::string g = pred + "(X";
  for (size_t i = 1; i < arity; ++i) g += ", A" + std::to_string(i);
  return g + ")";
}

std::string QuerySpec::TruthGoal(const std::string& value) const {
  std::string g = pred + "(" + value;
  for (size_t i = 1; i < arity; ++i) g += ", A" + std::to_string(i);
  return g + ")";
}

std::vector<std::string> QueryRows(lps::Session* session,
                                   const std::string& goal) {
  lps::Result<std::vector<lps::Tuple>> rows = session->Query(goal);
  MustOk(rows.status(), "Session::Query " + goal);
  std::vector<std::string> out;
  out.reserve(rows->size());
  for (const lps::Tuple& t : *rows) out.push_back(session->TupleToString(t));
  return out;
}

void MustOk(const lps::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

void RunPipeline(Context* ctx, Workload* workload) {
  Pipeline(ctx, workload).Run();
}

}  // namespace perfbench
