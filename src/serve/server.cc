#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <set>

#include "api/goal_exec.h"
#include "base/hash.h"
#include "lang/validate.h"
#include "parse/parser.h"
#include "serve/resolve.h"
#include "term/printer.h"
#include "unify/unify.h"

namespace lps::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

// Rendered-row emission: surface syntax is the one representation two
// workers (or a worker and a sequential ground-truth run) agree on -
// post-freeze TermIds may differ per private store, rendered text never
// does. The checksum is a sum of mixed row hashes, so it is invariant
// under answer order.
void EmitRow(const TermStore& store, TupleRef t, bool record,
             ServeAnswer* out) {
  std::string row = TermListToString(store, t);
  row.insert(row.begin(), '(');
  row.push_back(')');
  out->checksum += Mix64(std::hash<std::string>{}(row));
  ++out->count;
  if (record) out->rows.push_back(std::move(row));
}

void MergeCounters(ServeStats* into, const ServeStats& d) {
  into->queries += d.queries;
  into->probe_queries += d.probe_queries;
  into->scan_queries += d.scan_queries;
  into->builtin_queries += d.builtin_queries;
  into->empty_fast_path += d.empty_fast_path;
  into->errors += d.errors;
  into->answers += d.answers;
  into->index_misses += d.index_misses;
  into->worker_rebinds += d.worker_rebinds;
  into->worker_refreshes += d.worker_refreshes;
  into->deadline_exceeded += d.deadline_exceeded;
  into->admission_rejected += d.admission_rejected;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(pos + 0.5)];
}

}  // namespace

const char* ServeRouteName(ServeRoute route) {
  switch (route) {
    case ServeRoute::kNone:
      return "none";
    case ServeRoute::kProbe:
      return "probe";
    case ServeRoute::kScan:
      return "scan";
    case ServeRoute::kBuiltin:
      return "builtin";
  }
  return "?";
}

QueryServer::QueryServer(SnapshotRegistry* registry, ServeOptions options)
    : registry_(registry),
      options_(options),
      pool_(WorkerPool::ResolveLanes(options.threads)),
      workers_(pool_.size()) {}

void QueryServer::BindWorker(Worker* w, const PinnedSnapshot& pin) {
  if (w->store != nullptr && w->epoch == pin.epoch()) return;
  const Snapshot& snap = *pin.snapshot();
  if (w->store != nullptr && w->rule_epoch == snap.rule_epoch() &&
      w->store_size == snap.store_size() &&
      w->sig_preds == snap.signature().size()) {
    // Fact-only republish: the rules, the frozen term-id prefix and
    // the predicate table are all unchanged, so the worker's clone and
    // goal plans stay valid (ExecuteOne reads every row from the pinned
    // snapshot). Only advance the epoch.
    w->epoch = pin.epoch();
    ++w->delta.worker_refreshes;
    return;
  }
  w->store = snap.store().Clone();
  w->program = std::make_unique<Program>(
      snap.program().CloneRulesInto(w->store.get()));
  w->entries.clear();
  w->epoch = pin.epoch();
  w->rule_epoch = snap.rule_epoch();
  w->store_size = snap.store_size();
  w->sig_preds = snap.signature().size();
  ++w->delta.worker_rebinds;
}

QueryServer::QueryEntry& QueryServer::Materialize(Worker* w,
                                                  const Snapshot& snap,
                                                  size_t query) {
  if (w->entries.size() < queries_.size()) {
    w->entries.resize(queries_.size());
  }
  QueryEntry& e = w->entries[query];
  if (e.materialized) return e;
  e.materialized = true;
  Result<Literal> goal = ParseGoalText(queries_[query], snap.mode(),
                                       w->store.get(),
                                       &w->program->signature());
  if (!goal.ok()) {
    e.error = goal.status();
    return e;
  }
  e.goal = std::move(goal).value();
  const Signature& sig = w->program->signature();
  e.error = ValidateGoal(*w->store, sig, e.goal, snap.mode());
  if (!e.error.ok()) return e;
  e.plan = BuildGoalPlan(*w->store, sig, *w->program, e.goal);
  CollectLiteralVariables(*w->store, e.goal, &e.vars);
  return e;
}

ServeAnswer QueryServer::ExecuteOne(
    Worker* w, const Snapshot& snap, const ServeRequest& req,
    Clock::time_point batch_deadline) {
  const Clock::time_point t0 = Clock::now();
  ServeAnswer out;
  ++w->delta.queries;
  bool admission = false;  // rejected before any work (vs cut mid-flight)
  auto finish = [&]() -> ServeAnswer {
    out.micros = MicrosSince(t0);
    w->latencies.push_back(out.micros);
    w->delta.answers += out.count;
    if (!out.status.ok()) {
      if (out.status.code() == StatusCode::kDeadlineExceeded) {
        // Policy outcome, not a malfunction: tracked separately so
        // `errors` keeps meaning "something went wrong".
        if (admission) {
          ++w->delta.admission_rejected;
        } else {
          ++w->delta.deadline_exceeded;
        }
      } else {
        ++w->delta.errors;
      }
    }
    return std::move(out);
  };
  auto fail = [&](Status s) -> ServeAnswer {
    out.status = std::move(s);
    return finish();
  };

  // ---- Admission control ---------------------------------------------
  // Effective deadline = min(batch deadline, request start + timeout);
  // either side absent (zero) drops out. A request whose turn comes
  // after the deadline has already passed is rejected without doing
  // any work, so one pathological lane-mate cannot make this request
  // burn budget it no longer has.
  const double timeout_micros =
      req.timeout_micros > 0 ? req.timeout_micros
                             : options_.default_timeout_micros;
  Clock::time_point deadline = batch_deadline;
  if (timeout_micros > 0) {
    const Clock::time_point request_deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(timeout_micros));
    if (deadline == Clock::time_point{} || request_deadline < deadline) {
      deadline = request_deadline;
    }
  }
  if (deadline != Clock::time_point{} && t0 >= deadline) {
    admission = true;
    out.note = "admission rejected: deadline expired before start";
    return fail(Status::DeadlineExceeded(
        "admission rejected: deadline expired before request start"));
  }
  const size_t max_tuples =
      req.max_tuples > 0 ? req.max_tuples : options_.default_max_tuples;
  // Scan-loop deadline probe: one branch per row and a clock read every
  // 256th, so overshoot stays bounded by 256 row emissions.
  uint32_t deadline_tick = 0;
  auto deadline_hit = [&]() -> bool {
    if (deadline == Clock::time_point{}) return false;
    if ((++deadline_tick & 255u) != 0) return false;
    return Clock::now() >= deadline;
  };
  // True when the row cap was reached (emission should stop; the
  // answer stays OK but is marked partial).
  auto capped = [&]() -> bool {
    if (max_tuples == 0 || out.count < max_tuples) return false;
    out.partial = true;
    if (out.note.empty()) out.note = "truncated: max_tuples reached";
    return true;
  };

  if (req.query >= queries_.size()) {
    return fail(Status::InvalidArgument("unknown query id " +
                                        std::to_string(req.query)));
  }
  QueryEntry& e = Materialize(w, snap, req.query);
  if (!e.error.ok()) return fail(e.error);
  if (w->routes.size() < queries_.size()) w->routes.resize(queries_.size());
  auto take_route = [&](ServeRoute route, const char* reason) {
    w->routes[req.query] = {route, reason};
  };

  TermStore* store = w->store.get();
  const Signature& sig = w->program->signature();
  const BuiltinOptions& builtins = snap.options().builtins;

  // ---- Resolve parameters read-only against the worker store --------
  struct Param {
    TermId var;
    TermId id;
    const std::string* text;
  };
  std::vector<Param> params;
  params.reserve(req.params.size());
  bool missing = false;  // some parameter term is not in the snapshot
  for (const auto& [name, text] : req.params) {
    TermId var = kInvalidTerm;
    for (TermId v : e.vars) {
      if (store->symbols().Name(store->symbol(v)) == name) {
        var = v;
        break;
      }
    }
    if (var == kInvalidTerm) {
      return fail(Status::NotFound("goal " + queries_[req.query] +
                                   " has no variable " + name));
    }
    Result<Resolution> r = TryResolveGroundTerm(*store, text);
    if (!r.ok()) return fail(r.status());
    // An id at or past store_size() was interned into this worker's
    // scratch by an earlier request: younger than the freeze, so it
    // occurs in no snapshot row - a miss like a fresh one. The id is
    // kept so a builtin goal can bind it without re-interning.
    missing = missing || r->missing != MissKind::kNone ||
              r->id >= snap.store_size();
    params.push_back({var, r->id, &text});
  }

  const bool is_builtin = sig.IsBuiltin(e.goal.pred);
  // The empty fast path (serve/resolve.h): the snapshot holds the least
  // model, so a term it does not contain occurs in no answer of a
  // relation read. A builtin could still compute it, so builtin goals
  // intern the term into the scratch store and run.
  if (!is_builtin && missing) {
    ++w->delta.empty_fast_path;
    out.note = "empty fast path: parameter not in snapshot";
    return finish();
  }

  // ---- Bind ----------------------------------------------------------
  Substitution bindings;
  for (Param& p : params) {
    if (p.id == kInvalidTerm) {
      Result<TermId> interned = InternGroundTerm(store, *p.text);
      if (!interned.ok()) return fail(interned.status());
      p.id = *interned;
    }
    if (!SortAllowsBinding(*store, p.var, p.id)) {
      return fail(Status::SortError("parameter value " + *p.text +
                                    " has the wrong sort for goal " +
                                    queries_[req.query]));
    }
    bindings.Bind(p.var, p.id);
  }

  if (is_builtin) {
    // Builtin goals run their plan against the snapshot's active
    // domains; computed terms (sums, unions) intern into the scratch.
    ++w->delta.builtin_queries;
    take_route(ServeRoute::kBuiltin, "builtin goal: plan over the active "
                                     "domains");
    std::vector<Tuple> rows;
    GoalPlanExecutor exec(store, &snap.database(), builtins, e.goal);
    Status s = exec.Run(e.plan.body.steps, bindings, &rows);
    if (!s.ok()) return fail(s);
    for (const Tuple& t : rows) {
      if (capped()) break;
      EmitRow(*store, t, options_.record_answers, &out);
    }
    return finish();
  }

  // Every parameter names a goal variable and binds it to a ground
  // term (checked above), so exactly the BoundArgs columns come out of
  // the substitution ground.
  const std::vector<bool> bound = BoundArgs(shapes_[req.query], req);
  std::vector<TermId> patterns(e.goal.args.size());
  uint32_t mask = 0;
  bool any_bound = false;
  for (size_t i = 0; i < e.goal.args.size(); ++i) {
    patterns[i] = bindings.Apply(store, e.goal.args[i]);
    any_bound = any_bound || bound[i];
    if (bound[i]) mask |= ColumnBit(i);
  }

  // Read-only stream over the frozen snapshot relation: a probe of
  // the snapshot's own index or of a side index provisioned before the
  // fan-out, else a bounded scan; never a lazy build.
  const Relation* rel = snap.database().FindRelation(e.goal.pred);
  const MaskIndex* side = nullptr;
  ++w->delta.scan_queries;
  if (any_bound) {
    ++w->delta.probe_queries;
    if (rel != nullptr && mask != 0) {
      side = FindSideIndex(e.goal.pred, mask, *rel);
    }
    take_route(ServeRoute::kProbe,
               side != nullptr
                   ? "converged snapshot: probe of a server side index"
                   : "converged snapshot: probe of a snapshot index");
  } else {
    take_route(ServeRoute::kScan, "no bound argument: full snapshot scan");
  }
  RelationScanSource src(store, builtins.unify, rel, std::move(patterns),
                         side);
  if (!src.index_hit()) ++w->delta.index_misses;
  TupleRef t;
  for (;;) {
    if (capped()) break;
    if (deadline_hit()) {
      out.partial = true;
      return fail(Status::DeadlineExceeded(
          "deadline exceeded during snapshot scan"));
    }
    Result<bool> more = src.Next(&t);
    if (!more.ok()) return fail(more.status());
    if (!*more) break;
    EmitRow(*store, t, options_.record_answers, &out);
  }
  return finish();
}

Result<size_t> QueryServer::Prepare(const std::string& goal_text) {
  std::lock_guard<std::mutex> lock(mu_);
  PinnedSnapshot pin = registry_->Pin();
  if (pin.snapshot() == nullptr) {
    return Status::InvalidArgument(
        "Prepare before any snapshot was published");
  }
  Worker& w = workers_[0];
  BindWorker(&w, pin);
  queries_.push_back(goal_text);
  const size_t id = queries_.size() - 1;
  QueryEntry& e = Materialize(&w, *pin.snapshot(), id);
  if (!e.error.ok()) {
    Status s = e.error;
    queries_.pop_back();
    w.entries.resize(queries_.size());
    return s;
  }
  const Signature& sig = w.program->signature();
  QueryShape shape;
  shape.pred = sig.Name(e.goal.pred);
  shape.arity = e.goal.args.size();
  shape.builtin = sig.IsBuiltin(e.goal.pred);
  for (TermId arg : e.goal.args) {
    std::vector<TermId> vars;
    w.store->CollectVariables(arg, &vars);
    std::vector<uint32_t>& indexes = shape.arg_vars.emplace_back();
    for (TermId v : vars) {
      std::string name = w.store->symbols().Name(w.store->symbol(v));
      auto it = std::find(shape.vars.begin(), shape.vars.end(), name);
      if (it == shape.vars.end()) {
        it = shape.vars.insert(it, std::move(name));
      }
      indexes.push_back(static_cast<uint32_t>(it - shape.vars.begin()));
    }
  }
  shapes_.push_back(std::move(shape));
  stats_.query_routes.resize(queries_.size());
  return id;
}

std::vector<bool> QueryServer::BoundArgs(const QueryShape& shape,
                                         const ServeRequest& request) {
  std::vector<bool> named(shape.vars.size(), false);
  for (const auto& param : request.params) {
    for (size_t v = 0; v < shape.vars.size(); ++v) {
      if (shape.vars[v] == param.first) named[v] = true;
    }
  }
  std::vector<bool> bound(shape.arg_vars.size(), true);
  for (size_t i = 0; i < shape.arg_vars.size(); ++i) {
    for (uint32_t v : shape.arg_vars[i]) bound[i] = bound[i] && named[v];
  }
  return bound;
}

void QueryServer::ProvisionSideIndexes(
    const PinnedSnapshot& pin, const std::vector<ServeRequest>& requests) {
  const Snapshot& snap = *pin.snapshot();
  const Database& db = snap.database();
  if (pin.epoch() != side_epoch_) {
    side_epoch_ = pin.epoch();
    for (auto it = side_indexes_.begin(); it != side_indexes_.end();) {
      const Relation* rel = db.FindRelation(it->first.first);
      const bool keep = rel != nullptr &&
                        rel->content_tick() == it->second.content_tick &&
                        !rel->HasIndexBuilt(it->first.second);
      it = keep ? std::next(it) : side_indexes_.erase(it);
    }
  }
  // ExecuteOne probes the same BoundArgs mask.
  std::set<std::pair<size_t, uint32_t>> seen;  // (query, mask)
  for (const ServeRequest& req : requests) {
    if (req.query >= shapes_.size()) continue;
    const QueryShape& shape = shapes_[req.query];
    if (shape.builtin) continue;
    const std::vector<bool> bound = BoundArgs(shape, req);
    uint32_t mask = 0;
    for (size_t i = 0; i < bound.size(); ++i) {
      if (bound[i]) mask |= ColumnBit(i);
    }
    if (mask == 0 || !seen.emplace(req.query, mask).second) continue;
    const PredicateId pred = snap.signature().Lookup(shape.pred, shape.arity);
    if (pred == kInvalidPredicate) continue;
    const Relation* rel = db.FindRelation(pred);
    if (rel == nullptr || rel->HasIndexBuilt(mask)) continue;
    SideIndex& side = side_indexes_[{pred, mask}];
    if (side.index != nullptr && side.content_tick == rel->content_tick()) {
      continue;
    }
    side.content_tick = rel->content_tick();
    side.index = std::make_unique<MaskIndex>(mask);
    side.index->CatchUp(*rel);
    ++stats_.side_index_builds;
  }
}

const MaskIndex* QueryServer::FindSideIndex(PredicateId pred, uint32_t mask,
                                            const Relation& rel) const {
  auto it = side_indexes_.find({pred, mask});
  if (it == side_indexes_.end() ||
      it->second.content_tick != rel.content_tick()) {
    return nullptr;
  }
  return it->second.index.get();
}

Result<ServeAnswer> QueryServer::Execute(const ServeRequest& request) {
  LPS_ASSIGN_OR_RETURN(std::vector<ServeAnswer> answers,
                       ExecuteBatch({request}));
  return std::move(answers[0]);
}

Result<std::vector<ServeAnswer>> QueryServer::ExecuteBatch(
    const std::vector<ServeRequest>& requests) {
  std::lock_guard<std::mutex> lock(mu_);
  PinnedSnapshot pin = registry_->Pin();
  if (pin.snapshot() == nullptr) {
    return Status::InvalidArgument(
        "ExecuteBatch before any snapshot was published");
  }
  const Clock::time_point t0 = Clock::now();
  // One deadline for the whole batch (zero timeout = none): requests
  // already past it when their turn comes are admission-rejected.
  Clock::time_point batch_deadline{};
  if (options_.batch_timeout_micros > 0) {
    batch_deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(
                     options_.batch_timeout_micros));
  }
  std::vector<ServeAnswer> answers(requests.size());
  const Snapshot& snap = *pin.snapshot();
  const size_t lanes = pool_.size();
  ProvisionSideIndexes(pin, requests);
  // Requests are striped over the lanes; every lane writes disjoint
  // `answers` slots and touches only its own Worker, so the job needs
  // no synchronization. Run's return is the barrier that publishes
  // the workers' writes to the merge below.
  pool_.Run([&](size_t lane) {
    Worker& w = workers_[lane];
    BindWorker(&w, pin);
    for (size_t i = lane; i < requests.size(); i += lanes) {
      answers[i] = ExecuteOne(&w, snap, requests[i], batch_deadline);
    }
  });
  const double batch_micros = MicrosSince(t0);

  std::vector<double> latencies;
  for (Worker& w : workers_) {
    MergeCounters(&stats_, w.delta);
    w.delta = ServeStats{};
    for (size_t q = 0; q < w.routes.size(); ++q) {
      if (w.routes[q].route == ServeRoute::kNone) continue;
      stats_.query_routes[q] = w.routes[q];
      w.routes[q] = QueryRoute{};
    }
    latencies.insert(latencies.end(), w.latencies.begin(),
                     w.latencies.end());
    w.latencies.clear();
  }
  ++stats_.batches;
  // Sharing witnesses of the snapshot this batch served from
  // (overwritten per batch, like the latency profile): how much of it
  // was aliased from its predecessor by FreezeIncremental.
  const CowStats& cow = snap.cow_stats();
  stats_.relations_shared = cow.relations_shared;
  stats_.relations_cloned = cow.relations_cloned;
  stats_.bytes_shared = cow.bytes_shared;
  stats_.store_shared = cow.store_shared;
  stats_.side_indexes = side_indexes_.size();
  stats_.last_batch_micros = batch_micros;
  stats_.last_batch_qps =
      (requests.empty() || batch_micros <= 0)
          ? 0.0
          : static_cast<double>(requests.size()) * 1e6 / batch_micros;
  std::sort(latencies.begin(), latencies.end());
  stats_.p50_us = Percentile(latencies, 0.5);
  stats_.p99_us = Percentile(latencies, 0.99);
  stats_.max_us = latencies.empty() ? 0 : latencies.back();
  return answers;
}

ServeStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lps::serve
