#include "eval/bottomup.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <unordered_set>

#include "lang/validate.h"
#include "term/printer.h"
#include "term/set_algebra.h"

namespace lps {

namespace {

// A positive user-predicate body literal on a same-stratum predicate:
// the literals that carry semi-naive deltas. Shared by the pool gate in
// Evaluate() and the per-stratum setup in EvaluateStratum() so the two
// sites cannot drift.
bool IsInStratumDeltaLiteral(const Literal& lit, const Signature& sig,
                             const Stratification& strat, size_t stratum) {
  return lit.positive && !sig.IsBuiltin(lit.pred) &&
         strat.pred_stratum[lit.pred] == stratum;
}

// Smallest delta/scan chunk worth forking for: shared by the delta
// sharding, the grouping body sharding, and the pool gate so the three
// cannot drift.
constexpr size_t kMinChunkTuples = 16;

// RAII lease of a recycled buffer from a pool: cleared on acquire,
// returned with its capacity intact on destruction, so steady-state
// join loops allocate nothing per scan step. A pool (rather than a
// fixed per-depth slot) is required for correctness: seed plans and
// empty-branch plans restart at depth 0 while outer free-plan frames
// still hold their buffers.
template <typename Buf>
class Lease {
 public:
  explicit Lease(std::vector<Buf>* pool) : pool_(pool) {
    if (!pool->empty()) {
      buf_ = std::move(pool->back());
      pool->pop_back();
      buf_.clear();
    }
  }
  ~Lease() { pool_->push_back(std::move(buf_)); }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  Buf& operator*() { return buf_; }

 private:
  std::vector<Buf>* pool_;
  Buf buf_;
};

}  // namespace

BottomUpEvaluator::BottomUpEvaluator(const Program* program, Database* db,
                                     EvalOptions options)
    : program_(program), db_(db), options_(options) {}

Status BottomUpEvaluator::Evaluate() {
  const TermStore& store = *program_->store();
  const Signature& sig = program_->signature();
  const size_t set_interns_before = store.set_interns();
  const size_t set_intern_hits_before = store.set_intern_hits();

  // Load EDB facts.
  for (const Literal& f : program_->facts()) {
    if (db_->AddTuple(f.pred, f.args)) ++stats_.tuples_derived;
  }

  LPS_ASSIGN_OR_RETURN(Stratification strat, Stratify(*program_));
  stats_.strata = strat.num_strata;

  LPS_RETURN_IF_ERROR(CompileRules());

  // Resolve the lane count; only semi-naive evaluation shards work
  // (naive mode is the fully sequential ablation path, grouping
  // included - see EvalOptions::threads) and only parallel-safe rules
  // with an in-stratum (delta) literal - or flat grouping rules, whose
  // body scans shard without a delta - ever generate tasks, so
  // anything else never pays for a pool (and threads_used stays 0,
  // truthfully).
  size_t lanes = WorkerPool::ResolveLanes(options_.threads);
  // A flat grouping rule only ever shards its first scan step's rows.
  // EDB relations are fully loaded at this point, so one that cannot
  // reach the chunking floor never will; IDB-fed scans grow during
  // evaluation and must be assumed shardable.
  auto grouping_rule_can_shard = [&](const CompiledRule& r) {
    for (const PlanStep& s : r.plan.free_plan.steps) {
      if (s.kind != StepKind::kScan) continue;
      PredicateId p = r.clause->body[s.literal_index].pred;
      for (const Clause& c : program_->clauses()) {
        if (c.head.pred == p) return true;  // IDB: size unknown yet
      }
      return db_->RelationSize(p) >= 2 * kMinChunkTuples;
    }
    return false;  // no scan step: always runs inline
  };
  bool any_sharded_rule = false;
  for (const CompiledRule& r : rules_) {
    if (r.group_parallel_safe && grouping_rule_can_shard(r)) {
      any_sharded_rule = true;
      break;
    }
    if (!r.parallel_safe) continue;
    size_t head_stratum = strat.pred_stratum[r.clause->head.pred];
    for (size_t li : r.plan.free_literals) {
      if (IsInStratumDeltaLiteral(r.clause->body[li], sig, strat,
                                  head_stratum)) {
        any_sharded_rule = true;
        break;
      }
    }
    if (any_sharded_rule) break;
  }
  if (lanes > 1 && options_.semi_naive && any_sharded_rule) {
    if (pool_ == nullptr || pool_->size() != lanes) {
      pool_ = std::make_unique<WorkerPool>(lanes);
    }
    stats_.threads_used = lanes;
  } else {
    pool_.reset();
  }

  for (size_t s = 0; s < strat.num_strata; ++s) {
    LPS_RETURN_IF_ERROR(EvaluateStratum(strat.strata_clauses[s], strat, s));
  }

  Database::StorageStats storage = db_->storage_stats();
  stats_.arena_bytes = storage.arena_bytes;
  stats_.index_bytes = storage.index_bytes;
  stats_.dedup_probes = storage.dedup_probes;
  stats_.set_interns = store.set_interns() - set_interns_before;
  stats_.set_intern_hits =
      store.set_intern_hits() - set_intern_hits_before;
  return Status::OK();
}

Status BottomUpEvaluator::CompileRules() {
  const TermStore& store = *program_->store();
  const Signature& sig = program_->signature();
  // Statistics snapshot for cost-based literal ordering. Taken after
  // Evaluate() loaded the EDB facts, so extensional cardinalities are
  // real; IDB relations (possibly still empty on a first evaluation)
  // are marked derived so they estimate as unknown-sized, not empty.
  // The snapshot is a pure function of the database contents, so every
  // lane count - and every re-run over the same facts - compiles the
  // identical plans.
  PlannerStats planner_stats;
  const PlannerStats* stats = nullptr;
  if (options_.reorder) {
    planner_stats = PlannerStats::FromDatabase(*db_);
    for (const Clause& c : program_->clauses()) {
      planner_stats.MarkDerived(c.head.pred);
    }
    stats = &planner_stats;
  }
  stats_.plan_reorders = 0;
  stats_.plan_estimated_tuples = 0;
  rules_.clear();
  rules_.resize(program_->clauses().size());
  for (size_t i = 0; i < program_->clauses().size(); ++i) {
    CompiledRule& r = rules_[i];
    r.clause = &program_->clauses()[i];
    LPS_ASSIGN_OR_RETURN(r.plan,
                         BuildRulePlan(store, sig, *r.clause, stats));
    if (r.plan.free_plan.reordered || r.plan.seed_plan.reordered) {
      ++stats_.plan_reorders;
    }
    if (r.plan.free_plan.est_out >= 0) {
      stats_.plan_estimated_tuples += r.plan.free_plan.est_out;
    }
    bool has_enum = false;
    for (const PlanStep& s : r.plan.free_plan.steps) {
      if (s.kind == StepKind::kEnumAtom || s.kind == StepKind::kEnumSet ||
          s.kind == StepKind::kEnumAny) {
        has_enum = true;
      }
    }
    r.horn_simple = !r.plan.has_quantifiers &&
                    !r.clause->grouping.has_value() && !has_enum;
    AnalyzeRuleForParallel(&r);
  }
  return Status::OK();
}

Status BottomUpEvaluator::CheckDeadline(uint32_t* tick) const {
  if (options_.deadline == std::chrono::steady_clock::time_point{}) {
    return Status::OK();
  }
  if ((++*tick & 1023u) != 0) return Status::OK();
  if (std::chrono::steady_clock::now() >= options_.deadline) {
    return Status::DeadlineExceeded("evaluation deadline exceeded");
  }
  return Status::OK();
}

Status BottomUpEvaluator::EvaluateStratum(
    const std::vector<size_t>& clause_indices, const Stratification& strat,
    size_t stratum) {
  const Signature& sig = program_->signature();

  // Identify in-stratum positive body literals for delta joins.
  for (size_t ci : clause_indices) {
    CompiledRule& r = rules_[ci];
    r.in_stratum_literals.clear();
    r.last_version = UINT64_MAX;
    for (size_t li : r.plan.free_literals) {
      if (IsInStratumDeltaLiteral(r.clause->body[li], sig, strat,
                                  stratum)) {
        r.in_stratum_literals.push_back(li);
      }
    }
  }

  // Grouping rules first: their bodies live in strictly lower strata,
  // so one pass computes them completely.
  for (size_t ci : clause_indices) {
    if (rules_[ci].clause->grouping.has_value()) {
      LPS_RETURN_IF_ERROR(RunGroupingRule(&rules_[ci]));
    }
  }

  // Delta watermarks per predicate, with the tombstone count observed
  // when the watermark was taken: an insert that lands on a tombstoned
  // tuple (retracted earlier, re-derived now) revives its original row
  // *below* the watermark. No erase runs during a fixpoint, so a
  // dead-count drop is a sound and complete revive witness; the next
  // delta for that predicate widens to a full (naive) range to pick
  // the revived rows up.
  std::unordered_map<PredicateId, size_t> mark;
  std::unordered_map<PredicateId, size_t> dead_mark;
  auto dead_count = [this](PredicateId p) -> size_t {
    const Relation* rel = db_->FindRelation(p);
    return rel == nullptr ? 0 : rel->dead_count();
  };

  size_t iteration = 0;
  for (;;) {
    if (++stats_.iterations > options_.max_iterations) {
      return Status::ResourceExhausted("iteration limit exceeded");
    }
    // Unconditional clock read per iteration: iterations are coarse
    // enough that the step-granular countdown (CheckDeadline) could
    // wrap many rows before firing on pathologically wide deltas.
    if (options_.deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= options_.deadline) {
      return Status::DeadlineExceeded("evaluation deadline exceeded");
    }
    uint64_t version_before = db_->version();

    // Delta ranges for this iteration: everything since the previous
    // iteration's start.
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> delta;
    if (options_.semi_naive && iteration > 0) {
      for (size_t ci : clause_indices) {
        for (size_t li : rules_[ci].in_stratum_literals) {
          PredicateId p = rules_[ci].clause->body[li].pred;
          if (delta.count(p)) continue;
          size_t begin = mark.count(p) ? mark[p] : 0;
          auto dm = dead_mark.find(p);
          if (dm != dead_mark.end() && dead_count(p) < dm->second) {
            begin = 0;  // rows revived below the watermark
          }
          delta[p] = {begin, db_->RelationSize(p)};
        }
      }
    }
    for (auto& [p, range] : delta) {
      mark[p] = range.second;
      dead_mark[p] = dead_count(p);
    }

    // Phase A (parallel mode only): shard every parallel-safe rule's
    // delta joins across the pool against the frozen pre-iteration
    // database, then merge. Iteration 0 (the full first pass) and all
    // other rules run sequentially below, exactly as in single-thread
    // mode.
    const bool parallel = pool_ != nullptr;
    if (parallel && iteration > 0) {
      LPS_RETURN_IF_ERROR(RunParallelDeltaPhase(clause_indices, delta));
    }

    for (size_t ci : clause_indices) {
      CompiledRule& r = rules_[ci];
      if (r.clause->grouping.has_value()) continue;  // ran above

      if (options_.semi_naive && r.horn_simple) {
        if (iteration == 0) {
          ++stats_.rule_runs;
          LPS_RETURN_IF_ERROR(RunRule(&r, nullptr));
        } else if (!parallel || !r.parallel_safe) {
          for (size_t li : r.in_stratum_literals) {
            PredicateId p = r.clause->body[li].pred;
            auto range = delta[p];
            if (range.first >= range.second) continue;  // empty delta
            DeltaSpec spec{li, range.first, range.second};
            ++stats_.rule_runs;
            LPS_RETURN_IF_ERROR(RunRule(&r, &spec));
          }
        }
      } else {
        // Naive mode, or a complex rule: re-run whenever anything it
        // could observe changed.
        if (!options_.semi_naive || r.last_version != db_->version()) {
          r.last_version = db_->version();
          ++stats_.rule_runs;
          if (r.plan.has_quantifiers) {
            LPS_RETURN_IF_ERROR(RunEmptyBranch(&r));
          }
          LPS_RETURN_IF_ERROR(RunRule(&r, nullptr));
        }
      }
    }

    if (db_->version() == version_before) break;
    ++iteration;
  }
  return Status::OK();
}

Status BottomUpEvaluator::RunRule(CompiledRule* rule,
                                  const DeltaSpec* delta) {
  Substitution theta;
  return ExecSteps(*rule, rule->plan.free_plan.steps, 0, &theta, delta,
                   [this, rule](Substitution* t) {
                     return HandleQuantifiers(*rule, t,
                                              [this, rule](Substitution* t2) {
                                                return EmitHead(*rule, t2);
                                              });
                   });
}

Status BottomUpEvaluator::RunGroupingRule(CompiledRule* rule) {
  ++stats_.rule_runs;
  const Clause& clause = *rule->clause;
  const GroupSpec& g = *clause.grouping;
  TermStore* store = program_->store();
  group_acc_.Reset(clause.head.args.size() - 1);

  // Flat grouping rules run on the flat executor - single-lane as one
  // inline task (trail-based bindings, no per-row Substitution
  // copies), multi-lane sharded across the pool with per-task (key,
  // element) buffers merged in task order. Either way the accumulation
  // stream equals the sequential ExecSteps stream (chunks partition
  // the sharded scan's ascending row range in order), so the emitted
  // database is byte-identical at every lane count.
  bool flat_done = false;
  if (rule->group_parallel_safe) {
    LPS_ASSIGN_OR_RETURN(flat_done, RunGroupingParallel(rule));
  }
  if (!flat_done) {
    Substitution theta;
    Lease<Tuple> key_lease(&tuple_pool_);
    Tuple& key = *key_lease;
    LPS_RETURN_IF_ERROR(ExecSteps(
        *rule, rule->plan.free_plan.steps, 0, &theta, nullptr,
        [&](Substitution* t) {
          return HandleQuantifiers(*rule, t, [&](Substitution* t2) {
            // Accumulate: key = head args except the grouped position.
            key.clear();
            for (size_t i = 0; i < clause.head.args.size(); ++i) {
              if (i == g.arg_index) continue;
              TermId v = t2->Apply(store, clause.head.args[i]);
              if (!store->is_ground(v)) {
                return Status::SafetyError(
                    "unbound head variable in grouping clause for " +
                    program_->signature().Name(clause.head.pred));
              }
              key.push_back(v);
            }
            TermId gv = t2->Apply(store, g.grouped_var);
            if (!store->is_ground(gv)) {
              return Status::SafetyError(
                  "grouped variable not bound by the body of the grouping "
                  "clause for " +
                  program_->signature().Name(clause.head.pred));
            }
            group_acc_.AppendPair(key, gv);
            return Status::OK();
          });
        }));
  }

  // Emit one tuple per group in first-witness order (Definition 14).
  // Only witnessed groups are produced; see DESIGN.md on the
  // empty-group convention. SetBuilder canonicalizes (sorts + dedups)
  // each group's element stream through the set intern table.
  Lease<Tuple> out_lease(&tuple_pool_);
  Tuple& out = *out_lease;
  for (uint32_t gi = 0; gi < group_acc_.num_groups(); ++gi) {
    set_builder_.Clear();
    group_acc_.ForEachElement(
        gi, [this](TermId e) { set_builder_.Add(e); });
    TermId set = set_builder_.Build(store);
    TupleRef key = group_acc_.key(gi);
    out.clear();
    size_t k = 0;
    for (size_t i = 0; i < clause.head.args.size(); ++i) {
      if (i == g.arg_index) {
        out.push_back(set);
      } else {
        out.push_back(key[k++]);
      }
    }
    if (db_->AddTuple(clause.head.pred, out)) {
      if (++stats_.tuples_derived > options_.max_tuples) {
        return Status::ResourceExhausted("tuple limit exceeded");
      }
    }
  }
  stats_.groups_emitted += group_acc_.num_groups();
  stats_.group_elements += group_acc_.total_elements();
  return Status::OK();
}

Result<bool> BottomUpEvaluator::RunGroupingParallel(CompiledRule* rule) {
  const std::vector<PlanStep>& steps = rule->plan.free_plan.steps;
  // Shard the first scan step's full row range; every other step runs
  // inside each task exactly as it would sequentially.
  size_t shard_step = steps.size();
  for (size_t si = 0; si < steps.size(); ++si) {
    if (steps[si].kind == StepKind::kScan) {
      shard_step = si;
      break;
    }
  }
  if (shard_step == steps.size()) return false;
  size_t shard_literal = steps[shard_step].literal_index;
  const Relation* shard_rel =
      db_->FindRelation(rule->clause->body[shard_literal].pred);
  size_t len = shard_rel == nullptr ? 0 : shard_rel->size();
  const size_t kw = group_acc_.key_width();
  auto merge_into_acc = [&](FlatResult& res) {
    stats_.snapshot_fallbacks += res.snapshot_fallbacks;
    const TermId* kp = res.group_keys.data();
    for (size_t i = 0; i < res.group_elems.size(); ++i, kp += kw) {
      group_acc_.AppendPair(TupleRef(kp, kw), res.group_elems[i]);
    }
  };

  // Build the indexes the executor will probe up front (grouping
  // bodies read strictly lower strata, so the relations are final):
  // LookupSnapshot never builds one, and without this the inner scans
  // of a join body degrade to per-row prefix scans.
  for (size_t si = 0; si < steps.size(); ++si) {
    if (steps[si].kind != StepKind::kScan) continue;
    if (rule->scan_masks[si] == 0) continue;
    db_->relation(rule->clause->body[steps[si].literal_index].pred)
        .EnsureIndex(rule->scan_masks[si]);
  }

  // Single lane (or a relation too small to amortize a fork/join):
  // run the whole range as one inline task on the coordinator. Same
  // executor, same order - just without the pool.
  if (pool_ == nullptr || len < 2 * kMinChunkTuples) {
    FlatResult res;
    FlatCtx ctx;
    ctx.result = &res;
    ctx.group = &*rule->clause->grouping;
    ctx.SizeToPlan(steps.size());
    res.status =
        ExecFlatSteps(*rule, 0, DeltaSpec{shard_literal, 0, len}, &ctx);
    LPS_RETURN_IF_ERROR(res.status);
    merge_into_acc(res);
    return true;
  }

  size_t chunks = std::max<size_t>(len / kMinChunkTuples, 1);
  chunks = std::min(chunks, pool_->size() * 4);
  std::vector<DeltaSpec> specs;
  specs.reserve(chunks);
  size_t base = len / chunks, rem = len % chunks;
  size_t at = 0;
  for (size_t c = 0; c < chunks; ++c) {
    size_t sz = base + (c < rem ? 1 : 0);
    if (sz == 0) continue;
    specs.push_back(DeltaSpec{shard_literal, at, at + sz});
    at += sz;
  }

  std::vector<FlatResult> results(specs.size());
  std::atomic<size_t> next{0};
  const GroupSpec* gs = &*rule->clause->grouping;
  pool_->Run([&](size_t) {
    for (;;) {
      size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= specs.size()) break;
      FlatCtx ctx;
      ctx.result = &results[t];
      ctx.group = gs;
      ctx.SizeToPlan(steps.size());
      results[t].status = ExecFlatSteps(*rule, 0, specs[t], &ctx);
    }
  });

  // Merge in task order (not completion order): deterministic.
  for (FlatResult& res : results) {
    LPS_RETURN_IF_ERROR(res.status);
    ++stats_.parallel_tasks;
    merge_into_acc(res);
  }
  return true;
}

Status BottomUpEvaluator::RunEmptyBranch(CompiledRule* rule) {
  // Definition 4: (forall x in {}) phi is true, so whenever some
  // quantifier range is empty the whole body holds and the head follows
  // for every active-domain value of the remaining head variables.
  ++stats_.empty_branch_runs;
  TermStore* store = program_->store();
  Substitution theta;
  return ExecSteps(
      *rule, rule->plan.empty_branch_plan.steps, 0, &theta, nullptr,
      [&](Substitution* t) {
        bool some_empty = false;
        for (const Quantifier& q : rule->clause->quantifiers) {
          TermId range = t->Apply(store, q.range);
          if (!store->is_ground(range) ||
              store->kind(range) != TermKind::kSet) {
            return Status::SafetyError(
                "quantifier range not bound in empty-range branch");
          }
          if (store->args(range).empty()) {
            some_empty = true;
            break;
          }
        }
        if (!some_empty) return Status::OK();
        return EmitHead(*rule, t);
      });
}

void BottomUpEvaluator::AnalyzeRuleForParallel(CompiledRule* rule) const {
  const TermStore& store = *program_->store();
  const Signature& sig = program_->signature();
  const std::vector<PlanStep>& steps = rule->plan.free_plan.steps;
  rule->scan_masks.assign(steps.size(), 0);
  rule->parallel_safe = false;
  rule->group_parallel_safe = false;
  // Two admissible shapes: plain flat Horn rules (delta-sharded) and
  // flat grouping rules (body-scan-sharded). Quantified grouping stays
  // on the coordinator - HandleQuantifiers can intern terms.
  const bool grouping = rule->clause->grouping.has_value();
  if (!rule->horn_simple && !grouping) return;
  if (grouping && rule->plan.has_quantifiers) return;

  // Flat arguments (ground terms - set and function constants included,
  // since they are interned once at parse time - or plain variables)
  // are the ones Substitution::Apply resolves without interning
  // anything new.
  auto flat = [&](const std::vector<TermId>& args) {
    for (TermId a : args) {
      if (!store.is_ground(a) && !store.IsVariable(a)) return false;
    }
    return true;
  };

  std::unordered_set<TermId> bound;
  for (size_t si = 0; si < steps.size(); ++si) {
    const PlanStep& step = steps[si];
    switch (step.kind) {
      case StepKind::kScan: {
        const Literal& lit = rule->clause->body[step.literal_index];
        if (!flat(lit.args)) return;
        // Boundness at a fixed plan position depends only on the plan,
        // so the scan's probe mask is static.
        uint32_t mask = 0;
        for (size_t i = 0; i < lit.args.size(); ++i) {
          if (store.is_ground(lit.args[i]) || bound.count(lit.args[i])) {
            mask |= ColumnBit(i);
          }
        }
        rule->scan_masks[si] = mask;
        for (TermId a : lit.args) {
          if (store.IsVariable(a)) bound.insert(a);
        }
        break;
      }
      case StepKind::kNegated: {
        const Literal& lit = rule->clause->body[step.literal_index];
        // Negated builtins route through CheckBuiltin, which may intern
        // terms (set operations); only frozen user relations are safe.
        if (sig.IsBuiltin(lit.pred)) return;
        if (!flat(lit.args)) return;
        break;
      }
      default:
        // Builtin evaluation can intern new terms (arithmetic, set
        // construction); enumeration steps can appear in grouping-rule
        // plans and also stay sequential.
        return;
    }
  }
  if (grouping) {
    // Key arguments must be flat; the grouped position holds the
    // grouped variable itself and is emitted by the coordinator.
    const GroupSpec& g = *rule->clause->grouping;
    for (size_t i = 0; i < rule->clause->head.args.size(); ++i) {
      if (i == g.arg_index) continue;
      TermId a = rule->clause->head.args[i];
      if (!store.is_ground(a) && !store.IsVariable(a)) return;
    }
    rule->group_parallel_safe = true;
    return;
  }
  if (!flat(rule->clause->head.args)) return;
  rule->parallel_safe = true;
}

Status BottomUpEvaluator::RunParallelDeltaPhase(
    const std::vector<size_t>& clause_indices,
    const std::unordered_map<PredicateId, std::pair<size_t, size_t>>&
        delta) {
  // Freeze the read paths: catch every index the workers will probe up
  // to the current size, so LookupSnapshot never has to build one.
  for (size_t ci : clause_indices) {
    const CompiledRule& r = rules_[ci];
    if (!r.parallel_safe) continue;
    const std::vector<PlanStep>& steps = r.plan.free_plan.steps;
    for (size_t si = 0; si < steps.size(); ++si) {
      if (steps[si].kind != StepKind::kScan) continue;
      if (r.scan_masks[si] == 0) continue;  // full scans need no index
      db_->relation(r.clause->body[steps[si].literal_index].pred)
          .EnsureIndex(r.scan_masks[si]);
    }
  }

  // Shard each (rule, delta literal) job into chunks. Task enumeration
  // is deterministic, and splitting a delta range into chunks that are
  // merged back in range order reproduces the unsplit derivation
  // sequence, so the merged database is identical for every lane count.
  std::vector<ParallelTask> tasks;
  for (size_t ci : clause_indices) {
    const CompiledRule& r = rules_[ci];
    if (!r.parallel_safe) continue;
    for (size_t li : r.in_stratum_literals) {
      auto it = delta.find(r.clause->body[li].pred);
      if (it == delta.end()) continue;
      auto [begin, end] = it->second;
      if (begin >= end) continue;  // empty delta
      ++stats_.rule_runs;
      size_t len = end - begin;
      size_t chunks = std::max<size_t>(len / kMinChunkTuples, 1);
      chunks = std::min(chunks, pool_->size() * 4);
      size_t base = len / chunks, rem = len % chunks;
      size_t at = begin;
      for (size_t c = 0; c < chunks; ++c) {
        size_t sz = base + (c < rem ? 1 : 0);
        if (sz == 0) continue;
        tasks.push_back(ParallelTask{&r, DeltaSpec{li, at, at + sz}});
        at += sz;
      }
    }
  }
  if (tasks.empty()) return Status::OK();

  // Dynamic scheduling: workers claim tasks off a shared counter and
  // write only their own result slots; the pool's join barrier
  // publishes the slots back to this thread.
  std::vector<FlatResult> results(tasks.size());
  std::atomic<size_t> next{0};
  pool_->Run([&](size_t) {
    for (;;) {
      size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) break;
      FlatCtx ctx;
      ctx.result = &results[t];
      ctx.SizeToPlan(tasks[t].rule->plan.free_plan.steps.size());
      results[t].status =
          ExecFlatSteps(*tasks[t].rule, 0, tasks[t].spec, &ctx);
    }
  });

  // Merge in task order (not completion order): deterministic.
  for (FlatResult& res : results) {
    LPS_RETURN_IF_ERROR(res.status);
    ++stats_.parallel_tasks;
    stats_.parallel_tuples += res.derived.size();
    stats_.snapshot_fallbacks += res.snapshot_fallbacks;
    for (auto& [pred, tup] : res.derived) {
      if (db_->AddTuple(pred, tup)) {
        if (++stats_.tuples_derived > options_.max_tuples) {
          return Status::ResourceExhausted("tuple limit exceeded");
        }
      }
    }
  }
  return Status::OK();
}

// LOCK-STEP INVARIANT: this is the worker-side twin of ExecSteps /
// EmitHead (and, in grouping mode, of RunGroupingRule's sequential
// accumulation) restricted to the flat fragment (kScan +
// kNegated-on-user, ground-or-variable args). Any change to scan
// matching, negation, head-emission or group-accumulation semantics
// there must be mirrored here, or threaded runs diverge from
// sequential ones — ParallelEvalTest / ParallelGroupingTest are the
// tripwire.
Status BottomUpEvaluator::ExecFlatSteps(const CompiledRule& rule,
                                        size_t idx, const DeltaSpec& delta,
                                        FlatCtx* ctx) const {
  LPS_RETURN_IF_ERROR(CheckDeadline(&ctx->deadline_tick));
  const std::vector<PlanStep>& steps = rule.plan.free_plan.steps;
  TermStore* store = program_->store();

  if (idx == steps.size()) {
    const Literal& head = rule.clause->head;
    if (ctx->group != nullptr) {
      // Grouping mode: buffer the (key, element) pair flat. Apply is
      // pure on flat args (ground terms short-circuit; variables hit
      // the trail), so nothing here touches shared state.
      const GroupSpec& g = *ctx->group;
      for (size_t i = 0; i < head.args.size(); ++i) {
        if (i == g.arg_index) continue;
        TermId v = ctx->binds.Apply(*store, head.args[i]);
        if (!store->is_ground(v)) {
          return Status::SafetyError(
              "unbound head variable in grouping clause for " +
              program_->signature().Name(head.pred));
        }
        ctx->result->group_keys.push_back(v);
      }
      TermId gv = ctx->binds.Apply(*store, g.grouped_var);
      if (!store->is_ground(gv)) {
        return Status::SafetyError(
            "grouped variable not bound by the body of the grouping "
            "clause for " +
            program_->signature().Name(head.pred));
      }
      ctx->result->group_elems.push_back(gv);
      return Status::OK();
    }
    // Emit into the task-local buffer. Contains reads the frozen
    // snapshot; real dedup happens when the coordinator merges.
    Tuple& out = ctx->out;
    out.clear();
    for (TermId a : head.args) {
      TermId t = ctx->binds.Apply(*store, a);
      if (!store->is_ground(t)) {
        return Status::SafetyError(
            "head variable not bound by the body in clause for " +
            program_->signature().Name(head.pred) + " (unsafe clause)");
      }
      out.push_back(t);
    }
    if (db_->Contains(head.pred, out)) return Status::OK();
    if (!ctx->emitted.insert(out).second) return Status::OK();
    if (ctx->result->derived.size() >= options_.max_tuples) {
      return Status::ResourceExhausted("tuple limit exceeded");
    }
    ctx->result->derived.emplace_back(head.pred, out);
    return Status::OK();
  }

  const PlanStep& step = steps[idx];
  if (step.kind == StepKind::kNegated) {
    // Stratification puts negated predicates in strictly lower strata,
    // so their relations are final; Contains is a pure read.
    const Literal& lit = rule.clause->body[step.literal_index];
    Tuple& args = ctx->keys[idx];
    args.clear();
    for (size_t i = 0; i < lit.args.size(); ++i) {
      TermId v = ctx->binds.Apply(*store, lit.args[i]);
      if (!store->is_ground(v)) {
        return Status::SafetyError(
            "literal " + program_->signature().Name(lit.pred) +
            " is not ground where a ground check is required (unsafe "
            "clause?)");
      }
      args.push_back(v);
    }
    if (!db_->Contains(lit.pred, args)) {
      return ExecFlatSteps(rule, idx + 1, delta, ctx);
    }
    return Status::OK();
  }
  if (step.kind != StepKind::kScan) {
    return Status::Internal("non-flat plan step in parallel executor");
  }

  const Literal& lit = rule.clause->body[step.literal_index];
  uint32_t mask = rule.scan_masks[idx];
  Tuple& patterns = ctx->patterns[idx];
  patterns.resize(lit.args.size());
  Tuple& key = ctx->keys[idx];
  key.assign(lit.args.size(), kInvalidTerm);
  for (size_t i = 0; i < lit.args.size(); ++i) {
    patterns[i] = ctx->binds.Apply(*store, lit.args[i]);
    if (MaskHasColumn(mask, i)) key[i] = patterns[i];
  }
  const Relation* rel = db_->FindRelation(lit.pred);
  if (rel == nullptr) return Status::OK();

  auto try_row = [&](RowId ti) -> Status {
    TupleRef row = rel->row(ti);  // no copy: frozen for the phase
    size_t mark = ctx->binds.Mark();
    bool ok = true;
    for (size_t i = 0; i < patterns.size() && ok; ++i) {
      if (MaskHasColumn(mask, i)) {
        ok = (row[i] == key[i]);
        continue;
      }
      TermId p = ctx->binds.Apply(*store, patterns[i]);
      if (store->is_ground(p)) {
        ok = (p == row[i]);
      } else {  // a variable: flat rules have nothing else unbound
        if (!SortAllowsBinding(*store, p, row[i])) {
          ok = false;
        } else {
          ctx->binds.Bind(p, row[i]);
        }
      }
    }
    Status st =
        ok ? ExecFlatSteps(rule, idx + 1, delta, ctx) : Status::OK();
    ctx->binds.Undo(mark);
    return st;
  };

  if (delta.literal_index == step.literal_index) {
    // The sharded delta literal. With no bound columns, iterate this
    // task's chunk directly; otherwise probe the index and clip the
    // (ascending) posting list to the chunk, like the sequential path.
    if (mask == 0) {
      for (size_t ti = delta.begin; ti < delta.end; ++ti) {
        if (!rel->IsLive(static_cast<uint32_t>(ti))) continue;
        LPS_RETURN_IF_ERROR(try_row(static_cast<uint32_t>(ti)));
      }
      return Status::OK();
    }
    std::vector<uint32_t>& hits = ctx->scratch[idx];
    if (!rel->LookupSnapshot(mask, key, rel->size(), &hits)) {
      ++ctx->result->snapshot_fallbacks;
    }
    auto first = std::lower_bound(hits.begin(), hits.end(),
                                  static_cast<uint32_t>(delta.begin));
    for (auto it = first; it != hits.end(); ++it) {
      if (*it >= delta.end) break;
      LPS_RETURN_IF_ERROR(try_row(*it));
    }
    return Status::OK();
  }
  std::vector<uint32_t>& hits = ctx->scratch[idx];
  if (!rel->LookupSnapshot(mask, key, rel->size(), &hits)) {
    ++ctx->result->snapshot_fallbacks;
  }
  for (uint32_t ti : hits) {
    LPS_RETURN_IF_ERROR(try_row(ti));
  }
  return Status::OK();
}

// LOCK-STEP INVARIANT: the kScan and kNegated semantics here have a
// worker-side twin in ExecFlatSteps (flat fragment only); keep them in
// sync — see the note on ExecFlatSteps.
Status BottomUpEvaluator::ExecSteps(
    const CompiledRule& rule, const std::vector<PlanStep>& steps,
    size_t idx, Substitution* theta, const DeltaSpec* delta,
    const std::function<Status(Substitution*)>& cont) {
  LPS_RETURN_IF_ERROR(CheckDeadline(&deadline_tick_));
  if (idx == steps.size()) return cont(theta);
  const PlanStep& step = steps[idx];
  TermStore* store = program_->store();
  const Signature& sig = program_->signature();

  switch (step.kind) {
    case StepKind::kScan: {
      const Literal& lit = rule.clause->body[step.literal_index];
      Lease<Tuple> patterns_lease(&tuple_pool_);
      Tuple& patterns = *patterns_lease;
      patterns.resize(lit.args.size());
      Lease<Tuple> key_lease(&tuple_pool_);
      Tuple& key = *key_lease;
      key.assign(lit.args.size(), kInvalidTerm);
      uint32_t mask = 0;
      for (size_t i = 0; i < lit.args.size(); ++i) {
        patterns[i] = theta->Apply(store, lit.args[i]);
        if (store->is_ground(patterns[i])) {
          mask |= ColumnBit(i);
          key[i] = patterns[i];
        }
      }
      Relation& rel = db_->relation(lit.pred);
      bool is_delta =
          delta != nullptr && delta->literal_index == step.literal_index;
      bool rows_mode = is_delta && delta->rows != nullptr;
      // Copy: Lookup's reference is invalidated by later inserts (and
      // by recursive Lookups on the same relation).
      Lease<std::vector<RowId>> indices_lease(&rowid_pool_);
      std::vector<RowId>& indices = *indices_lease;
      if (rows_mode) {
        // Explicit-rows delta (incremental maintenance): the rows sit
        // at scattered arena positions, so skip the index probe and
        // route every column through the binding loop below (mask 0
        // re-checks bound columns per row). The maintainer picked the
        // rows deliberately; they are iterated as given, tombstoned or
        // not.
        mask = 0;
        indices.assign(delta->rows->begin() + delta->begin,
                       delta->rows->begin() + delta->end);
      } else if (is_delta && mask == 0) {
        // Unbound range-mode delta: the rows are a contiguous arena
        // suffix, so enumerate them directly instead of walking the
        // whole relation just to drop everything outside the range.
        indices.reserve(delta->end - delta->begin);
        for (size_t ti = delta->begin; ti < delta->end; ++ti) {
          indices.push_back(static_cast<RowId>(ti));
        }
      } else {
        const std::span<const RowId> hits = rel.Lookup(mask, key);
        indices.assign(hits.begin(), hits.end());
      }
      Lease<Tuple> row_lease(&tuple_pool_);
      Tuple& row = *row_lease;
      for (RowId ti : indices) {
        if (is_delta && !rows_mode &&
            (ti < delta->begin || ti >= delta->end)) {
          continue;
        }
        // Tombstoned rows stay in index postings; skip them here.
        if (!rows_mode && !rel.IsLive(ti)) continue;
        {
          // Copy: the arena may grow (and reallocate) during recursion.
          TupleRef r = rel.row(ti);
          row.assign(r.begin(), r.end());
        }
        // Bind the non-ground positions.
        Substitution ext = *theta;
        bool ok = true;
        std::vector<size_t> complex;
        for (size_t i = 0; i < patterns.size() && ok; ++i) {
          if (MaskHasColumn(mask, i)) continue;
          TermId p = ext.Apply(store, patterns[i]);
          if (store->is_ground(p)) {
            ok = (p == row[i]);
          } else if (store->IsVariable(p)) {
            if (!SortAllowsBinding(*store, p, row[i])) {
              ok = false;
            } else {
              ext.Bind(p, row[i]);
            }
          } else {
            complex.push_back(i);
          }
        }
        if (!ok) continue;
        if (complex.empty()) {
          LPS_RETURN_IF_ERROR(
              ExecSteps(rule, steps, idx + 1, &ext, delta, cont));
          continue;
        }
        // Complex patterns (set/function terms with variables): unify.
        std::vector<TermId> pat, val;
        for (size_t i : complex) {
          pat.push_back(ext.Apply(store, patterns[i]));
          val.push_back(row[i]);
        }
        Unifier unifier(store, options_.builtins.unify);
        std::vector<Substitution> unifiers;
        LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(pat, val, &unifiers));
        for (const Substitution& u : unifiers) {
          Substitution ext2 = ext;
          for (const auto& [v, t] : u.bindings()) ext2.Bind(v, t);
          LPS_RETURN_IF_ERROR(
              ExecSteps(rule, steps, idx + 1, &ext2, delta, cont));
        }
      }
      return Status::OK();
    }
    case StepKind::kBuiltin: {
      const Literal& lit = rule.clause->body[step.literal_index];
      std::vector<TermId> args(lit.args.size());
      for (size_t i = 0; i < args.size(); ++i) {
        args[i] = theta->Apply(store, lit.args[i]);
      }
      return EvalBuiltin(
          store, lit.pred, args, options_.builtins,
          [&](const Substitution& ext) {
            Substitution next = *theta;
            for (const auto& [v, t] : ext.bindings()) next.Bind(v, t);
            return ExecSteps(rule, steps, idx + 1, &next, delta, cont);
          });
    }
    case StepKind::kNegated: {
      const Literal& lit = rule.clause->body[step.literal_index];
      LPS_ASSIGN_OR_RETURN(bool holds, LiteralHolds(lit, *theta));
      // lit.positive is false: the check passes when the atom fails.
      if (!holds) {
        return ExecSteps(rule, steps, idx + 1, theta, delta, cont);
      }
      return Status::OK();
    }
    case StepKind::kEnumAtom:
    case StepKind::kEnumSet:
    case StepKind::kEnumAny: {
      if (theta->IsBound(step.var)) {
        return ExecSteps(rule, steps, idx + 1, theta, delta, cont);
      }
      auto enumerate = [&](const std::vector<TermId>& domain) -> Status {
        size_t n = domain.size();  // snapshot: domain may grow
        for (size_t i = 0; i < n; ++i) {
          Substitution next = *theta;
          next.Bind(step.var, domain[i]);
          LPS_RETURN_IF_ERROR(
              ExecSteps(rule, steps, idx + 1, &next, delta, cont));
        }
        return Status::OK();
      };
      if (step.kind == StepKind::kEnumAtom) {
        return enumerate(db_->atom_domain());
      }
      if (step.kind == StepKind::kEnumSet) {
        return enumerate(db_->set_domain());
      }
      LPS_RETURN_IF_ERROR(enumerate(db_->atom_domain()));
      return enumerate(db_->set_domain());
    }
  }
  (void)sig;
  return Status::Internal("unknown plan step");
}

Result<bool> BottomUpEvaluator::LiteralHolds(const Literal& lit,
                                             const Substitution& theta) {
  TermStore* store = program_->store();
  const Signature& sig = program_->signature();
  Lease<Tuple> args_lease(&tuple_pool_);
  Tuple& args = *args_lease;
  args.resize(lit.args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    args[i] = theta.Apply(store, lit.args[i]);
    if (!store->is_ground(args[i])) {
      return Status::SafetyError(
          "literal " + sig.Name(lit.pred) +
          " is not ground where a ground check is required (unsafe "
          "clause?)");
    }
  }
  if (sig.IsBuiltin(lit.pred)) {
    return CheckBuiltin(store, lit.pred, args, options_.builtins);
  }
  return db_->Contains(lit.pred, args);
}

Status BottomUpEvaluator::HandleQuantifiers(
    const CompiledRule& rule, Substitution* theta,
    const std::function<Status(Substitution*)>& cont) {
  const Clause& clause = *rule.clause;
  if (clause.quantifiers.empty()) return cont(theta);
  TermStore* store = program_->store();

  // Resolve the ranges; all must be ground sets here.
  std::vector<std::vector<TermId>> ranges;
  ranges.reserve(clause.quantifiers.size());
  std::vector<TermId> qvars;
  for (const Quantifier& q : clause.quantifiers) {
    TermId r = theta->Apply(store, q.range);
    if (!store->is_ground(r) || store->kind(r) != TermKind::kSet) {
      return Status::SafetyError("quantifier range not bound: " +
                                 TermToString(*store, q.range));
    }
    if (store->args(r).empty()) {
      // Vacuous truth is handled by the empty-range branch.
      return Status::OK();
    }
    auto elems = store->args(r);
    ranges.emplace_back(elems.begin(), elems.end());
    qvars.push_back(q.var);
  }

  const std::vector<size_t>& qlits = rule.plan.quantified_literals;
  if (qlits.empty()) return cont(theta);

  // Verifies all combinations for a candidate binding of free vars.
  auto verify_all = [&](Substitution* base) -> Result<bool> {
    std::vector<size_t> idx(ranges.size(), 0);
    for (;;) {
      Substitution combo = *base;
      for (size_t i = 0; i < ranges.size(); ++i) {
        combo.Bind(qvars[i], ranges[i][idx[i]]);
      }
      ++stats_.combos_checked;
      for (size_t li : qlits) {
        const Literal& lit = clause.body[li];
        LPS_ASSIGN_OR_RETURN(bool holds, LiteralHolds(lit, combo));
        if (holds != lit.positive) return false;
      }
      size_t i = 0;
      while (i < ranges.size() && ++idx[i] == ranges[i].size()) {
        idx[i] = 0;
        ++i;
      }
      if (i == ranges.size()) break;
    }
    return true;
  };

  if (rule.plan.seed_vars.empty()) {
    LPS_ASSIGN_OR_RETURN(bool ok, verify_all(theta));
    if (ok) return cont(theta);
    return Status::OK();
  }

  // Division with first-element seeding: solve the quantified literals
  // at the first combination to obtain candidate bindings for the
  // seed variables, then verify each candidate on all combinations.
  ++stats_.seed_joins;
  Substitution first = *theta;
  for (size_t i = 0; i < ranges.size(); ++i) {
    first.Bind(qvars[i], ranges[i][0]);
  }

  // Dedup candidates by their seed-variable values.
  std::vector<std::vector<TermId>> seen;
  return ExecSteps(
      rule, rule.plan.seed_plan.steps, 0, &first, nullptr,
      [&](Substitution* sol) -> Status {
        std::vector<TermId> fingerprint;
        fingerprint.reserve(rule.plan.seed_vars.size());
        for (TermId v : rule.plan.seed_vars) {
          fingerprint.push_back(sol->Apply(store, v));
        }
        if (std::find(seen.begin(), seen.end(), fingerprint) !=
            seen.end()) {
          return Status::OK();
        }
        seen.push_back(fingerprint);
        Substitution candidate = *theta;
        for (size_t i = 0; i < rule.plan.seed_vars.size(); ++i) {
          candidate.Bind(rule.plan.seed_vars[i], fingerprint[i]);
        }
        LPS_ASSIGN_OR_RETURN(bool ok, verify_all(&candidate));
        if (ok) return cont(&candidate);
        return Status::OK();
      });
}

Status BottomUpEvaluator::EmitHead(const CompiledRule& rule,
                                   Substitution* theta) {
  if (rule.clause->grouping.has_value()) {
    return Status::Internal("EmitHead called for grouping rule");
  }
  TermStore* store = program_->store();
  Lease<Tuple> out_lease(&tuple_pool_);
  Tuple& out = *out_lease;
  out.reserve(rule.clause->head.args.size());
  for (TermId a : rule.clause->head.args) {
    TermId t = theta->Apply(store, a);
    if (!store->is_ground(t)) {
      return Status::SafetyError(
          "head variable not bound by the body in clause for " +
          program_->signature().Name(rule.clause->head.pred) +
          " (unsafe clause)");
    }
    out.push_back(t);
  }
  if (db_->AddTuple(rule.clause->head.pred, out)) {
    if (++stats_.tuples_derived > options_.max_tuples) {
      return Status::ResourceExhausted("tuple limit exceeded");
    }
  }
  return Status::OK();
}

Result<EvalStats> EvaluateProgram(const Program& program, Database* db,
                                  EvalOptions options) {
  BottomUpEvaluator eval(&program, db, options);
  LPS_RETURN_IF_ERROR(eval.Evaluate());
  return eval.stats();
}

}  // namespace lps
