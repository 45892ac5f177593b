#include "eval/bottomup.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "base/hash.h"
#include "term/printer.h"
#include "unify/unify.h"

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
// A parallel delta phase whose total delta would give every lane this
// many minimum-size chunks forks; a smaller one runs inline when that
// is exact (see RunParallelDeltaPhase).
constexpr size_t kMinForkChunks = 16;
// Most chunks one sharded job (a delta range or a grouping body scan)
// splits into. Fixed rather than scaled by the lane count, so the
// chunking - and with it the merged insertion order - is the same at
// every lane count.
constexpr size_t kMaxJobChunks = 16;

// One lane's share of a sharded grouping rule's groups - those whose
// key hashes to the lane - accumulated in stream order, with each
// group's first-witness position in the stream and its canonical
// (sorted, deduplicated) elements. Cache-line aligned: every lane
// writes its own share.
struct alignas(64) GroupShare {
  GroupAccumulator acc;
  std::vector<size_t> first;  // per group: stream position of its first pair
  std::vector<TermId> elems;  // canonical elements, group after group
  std::vector<size_t> end;    // per group: end of its elements in `elems`
};

// The mask binding every column of an `arity`-column literal; 0 when
// some column lies past the mask width (such a literal is never fully
// mask-bound, and mask 0 is the unbound scan).
constexpr uint32_t AllColumns(size_t arity) {
  if (arity == 0 || arity > Relation::kMaxIndexedColumns) return 0;
  return arity == Relation::kMaxIndexedColumns
             ? ~uint32_t{0}
             : (uint32_t{1} << arity) - 1;
}

}  // namespace

BottomUpEvaluator::BottomUpEvaluator(const Program* program, Database* db,
                                     EvalOptions options)
    : program_(program), db_(db), options_(options) {}

Status BottomUpEvaluator::Evaluate() {
  const TermStore& store = *program_->store();
  const Signature& sig = program_->signature();
  const size_t set_interns_before = store.set_interns();
  const size_t set_intern_hits_before = store.set_intern_hits();

  // Load EDB facts. A relation that is still empty is presized from
  // its fact count first, so its dedup table does not double its way
  // up; one that already holds rows (re-evaluating a converged
  // session) is left as it is.
  const FactLedger& facts = program_->facts();
  std::vector<size_t> fact_counts(sig.size(), 0);
  for (const Literal& f : facts) ++fact_counts[f.pred];
  for (PredicateId p = 0; p < fact_counts.size(); ++p) {
    if (fact_counts[p] != 0 && db_->RelationSize(p) == 0) {
      db_->Reserve(p, fact_counts[p]);
    }
  }
  for (const Literal& f : facts) {
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
      lane_ctx_.resize(lanes);
    }
    stats_.threads_used = lanes;
  } else {
    pool_.reset();
    lane_ctx_.clear();
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

const char* CommitRouteName(CommitRoute route) {
  switch (route) {
    case CommitRoute::kNone:
      return "none";
    case CommitRoute::kIncremental:
      return "incremental";
    case CommitRoute::kFull:
      return "full";
  }
  return "?";
}

bool BottomUpEvaluator::HornSimple(const Clause& clause,
                                   const RulePlan& plan) {
  if (plan.has_quantifiers || clause.grouping.has_value()) return false;
  for (const PlanStep& s : plan.free_plan.steps) {
    if (s.kind == StepKind::kEnumAtom || s.kind == StepKind::kEnumSet ||
        s.kind == StepKind::kEnumAny) {
      return false;
    }
  }
  return true;
}

Status BottomUpEvaluator::CompileRules(bool witness_plans) {
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
    r.horn_simple = HornSimple(*r.clause, r.plan);
    if (witness_plans && r.horn_simple) {
      // Incremental rederive searches enter with the head bound: plan
      // them that way, so the order starts from the literal the bound
      // head makes most selective.
      std::vector<TermId> head_vars;
      for (TermId a : r.clause->head.args) {
        store.CollectVariables(a, &head_vars);
      }
      r.witness_plan = BuildBodyPlan(store, sig, *r.clause,
                                     r.plan.free_literals, head_vars, {},
                                     true, stats);
    }
    CompileSlots(&r);
    AnalyzeRuleForParallel(&r);
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

void BottomUpEvaluator::CompileSlots(CompiledRule* rule) const {
  const TermStore& store = *program_->store();
  const Clause& clause = *rule->clause;
  const RulePlan& plan = rule->plan;
  rule->slot_vars.clear();
  rule->slot_of.clear();
  auto slot_for = [&](TermId var) {
    auto [it, fresh] = rule->slot_of.emplace(
        var, static_cast<uint32_t>(rule->slot_vars.size()));
    if (fresh) rule->slot_vars.push_back(var);
    return it->second;
  };
  std::vector<TermId> vars;
  auto compile_arg = [&](TermId t) {
    SlotArg a;
    a.term = t;
    if (store.is_ground(t)) return a;
    if (store.IsVariable(t)) {
      a.kind = SlotArg::kSlot;
      a.slot = slot_for(t);
      return a;
    }
    a.kind = SlotArg::kComplex;
    vars.clear();
    store.CollectVariables(t, &vars);
    for (TermId v : vars) slot_for(v);
    return a;
  };
  auto compile_args = [&](const std::vector<TermId>& args) {
    std::vector<SlotArg> out;
    out.reserve(args.size());
    for (TermId t : args) out.push_back(compile_arg(t));
    return out;
  };

  rule->body_args.clear();
  for (const Literal& lit : clause.body) {
    rule->body_args.push_back(compile_args(lit.args));
  }
  rule->head_args = compile_args(clause.head.args);
  rule->range_args.clear();
  rule->qvar_slots.clear();
  for (const Quantifier& q : clause.quantifiers) {
    rule->qvar_slots.push_back(slot_for(q.var));
    rule->range_args.push_back(compile_arg(q.range));
  }
  rule->seed_slots.clear();
  for (TermId v : plan.seed_vars) rule->seed_slots.push_back(slot_for(v));
  if (clause.grouping.has_value()) {
    rule->grouped = compile_arg(clause.grouping->grouped_var);
  }

  // Compiles one BodyPlan. `bound` holds the slots bound on entry and
  // is advanced past the plan's steps; once a builtin or a complex
  // unification has run, boundness depends on the data and later scans
  // read their masks off the slots instead.
  uint32_t base = 0;
  auto compile_plan = [&](const BodyPlan& bp, std::vector<char>* bound,
                          bool* dynamic, PlanEnd end) {
    ExecPlan ep;
    ep.base = base;
    ep.end = end;
    for (const PlanStep& ps : bp.steps) {
      ExecStep st;
      st.kind = ps.kind;
      st.literal = static_cast<uint32_t>(ps.literal_index);
      switch (ps.kind) {
        case StepKind::kScan: {
          const std::vector<SlotArg>& args = rule->body_args[st.literal];
          st.dynamic_mask = *dynamic;
          for (size_t i = 0; i < args.size(); ++i) {
            const SlotArg& a = args[i];
            if (a.kind == SlotArg::kComplex) {
              st.dynamic_mask = true;
            } else if (a.kind == SlotArg::kConst || (*bound)[a.slot]) {
              st.mask |= ColumnBit(i);
            }
          }
          if (st.dynamic_mask) st.mask = 0;
          for (const SlotArg& a : args) {
            if (a.kind == SlotArg::kSlot) (*bound)[a.slot] = 1;
            if (a.kind == SlotArg::kComplex) *dynamic = true;
          }
          break;
        }
        case StepKind::kBuiltin:
          *dynamic = true;
          break;
        case StepKind::kNegated:
          break;
        case StepKind::kEnumAtom:
        case StepKind::kEnumSet:
        case StepKind::kEnumAny:
          st.slot = rule->slot_of.at(ps.var);
          (*bound)[st.slot] = 1;
          break;
      }
      ep.steps.push_back(st);
    }
    base += static_cast<uint32_t>(ep.steps.size());
    return ep;
  };
  // Enumeration steps can name variables no argument mentions; number
  // them before sizing the boundness vectors.
  auto number_enum_vars = [&](const BodyPlan& bp) {
    for (const PlanStep& ps : bp.steps) {
      if (ps.kind != StepKind::kScan && ps.kind != StepKind::kBuiltin &&
          ps.kind != StepKind::kNegated) {
        slot_for(ps.var);
      }
    }
  };
  number_enum_vars(plan.free_plan);
  number_enum_vars(plan.seed_plan);
  number_enum_vars(plan.empty_branch_plan);
  number_enum_vars(rule->witness_plan);
  for (const BodyPlan& dp : plan.delta_plans) number_enum_vars(dp);
  const size_t n = rule->slot_vars.size();

  std::vector<char> bound(n, 0);
  bool dynamic = false;
  rule->free = compile_plan(plan.free_plan, &bound, &dynamic,
                            clause.quantifiers.empty() ? PlanEnd::kTail
                                                       : PlanEnd::kQuantify);
  // The seed plan runs on the free plan's bindings plus the quantifier
  // variables at their first elements.
  for (uint32_t s : rule->qvar_slots) bound[s] = 1;
  rule->seed = compile_plan(plan.seed_plan, &bound, &dynamic, PlanEnd::kSeed);

  rule->delta.clear();
  for (const BodyPlan& dp : plan.delta_plans) {
    bound.assign(n, 0);
    dynamic = false;
    rule->delta.push_back(compile_plan(dp, &bound, &dynamic, PlanEnd::kTail));
  }
  bound.assign(n, 0);
  dynamic = false;
  rule->empty_branch = compile_plan(plan.empty_branch_plan, &bound, &dynamic,
                                    PlanEnd::kEmptyRange);
  // Witness searches (incremental rederive) enter with the head bound.
  bound.assign(n, 0);
  dynamic = false;
  for (const SlotArg& a : rule->head_args) {
    if (a.kind == SlotArg::kSlot) bound[a.slot] = 1;
    if (a.kind == SlotArg::kComplex) dynamic = true;
  }
  rule->witness = compile_plan(rule->witness_plan, &bound, &dynamic,
                               PlanEnd::kTail);
  rule->num_steps = base;
}

void BottomUpEvaluator::AnalyzeRuleForParallel(CompiledRule* rule) const {
  const Signature& sig = program_->signature();
  rule->parallel_safe = false;
  rule->group_parallel_safe = false;
  // Two admissible shapes: plain flat Horn rules (delta-sharded) and
  // flat grouping rules (body-scan-sharded). Quantified grouping stays
  // on the coordinator - quantifier handling can intern terms.
  const bool grouping = rule->clause->grouping.has_value();
  if (!rule->horn_simple && !grouping) return;
  if (grouping && rule->plan.has_quantifiers) return;

  // Flat arguments (constants - set and function constants included,
  // since they are interned once at parse time - or plain variables)
  // are the ones the executor reads without interning anything new.
  auto flat = [](const std::vector<SlotArg>& args) {
    for (const SlotArg& a : args) {
      if (a.kind == SlotArg::kComplex) return false;
    }
    return true;
  };
  for (const ExecStep& step : rule->free.steps) {
    switch (step.kind) {
      case StepKind::kScan:
        if (!flat(rule->body_args[step.literal])) return;
        break;
      case StepKind::kNegated:
        // Negated builtins route through CheckBuiltin, which may intern
        // terms (set operations); only frozen user relations are safe.
        if (sig.IsBuiltin(rule->clause->body[step.literal].pred)) return;
        if (!flat(rule->body_args[step.literal])) return;
        break;
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
    for (size_t i = 0; i < rule->head_args.size(); ++i) {
      if (i != g.arg_index && rule->head_args[i].kind == SlotArg::kComplex) {
        return;
      }
    }
    rule->group_parallel_safe = true;
    return;
  }
  if (!flat(rule->head_args)) return;
  rule->parallel_safe = true;
}

void BottomUpEvaluator::ResetCtx(const CompiledRule& rule, Tail tail,
                                 const DeltaSpec* delta, bool snapshot,
                                 ExecCtx* ctx) {
  ctx->tail = tail;
  ctx->delta = delta;
  ctx->snapshot = snapshot;
  ctx->group = nullptr;
  ctx->found = false;
  ctx->slots.assign(rule.slot_vars.size(), kInvalidTerm);
  ctx->trail.clear();
  if (ctx->hits.size() < rule.num_steps) {
    ctx->hits.resize(rule.num_steps);
    ctx->keys.resize(rule.num_steps);
    ctx->unifiers.resize(rule.num_steps);
  }
  ctx->heads = nullptr;
  ctx->derived.clear();
  ctx->derived_rows = 0;
  ctx->group_keys.clear();
  ctx->group_elems.clear();
  ctx->snapshot_fallbacks = 0;
}

Status BottomUpEvaluator::RunRule(CompiledRule* rule,
                                  const DeltaSpec* delta) {
  ResetCtx(*rule, Tail::kInsert, delta, /*snapshot=*/false, &seq_ctx_);
  return Run(*rule, rule->free, &seq_ctx_);
}

Status BottomUpEvaluator::RunGroupingRule(CompiledRule* rule) {
  ++stats_.rule_runs;
  // Flat grouping rules shard their body scan and their accumulation
  // across the pool when there is one. Either way groups are emitted
  // in first-witness order over the sequential accumulation stream
  // (Definition 14), so the database is byte-identical at every lane
  // count.
  if (rule->group_parallel_safe) {
    LPS_ASSIGN_OR_RETURN(bool sharded, RunGroupingParallel(rule));
    if (sharded) return Status::OK();
  }
  group_acc_.Reset(rule->clause->head.args.size() - 1);
  ResetCtx(*rule, Tail::kGroup, nullptr, /*snapshot=*/false, &seq_ctx_);
  seq_ctx_.group = &group_acc_;
  LPS_RETURN_IF_ERROR(Run(*rule, rule->free, &seq_ctx_));

  // Only witnessed groups are produced; see DESIGN.md on the
  // empty-group convention. SetBuilder canonicalizes (sorts + dedups)
  // each group's element stream through the set intern table.
  TermStore* store = program_->store();
  for (uint32_t gi = 0; gi < group_acc_.num_groups(); ++gi) {
    set_builder_.Clear();
    group_acc_.ForEachElement(
        gi, [this](TermId e) { set_builder_.Add(e); });
    TermId set = set_builder_.Build(store);
    LPS_RETURN_IF_ERROR(EmitGroup(*rule, group_acc_.key(gi), set));
  }
  stats_.groups_emitted += group_acc_.num_groups();
  stats_.group_elements += group_acc_.total_elements();
  return Status::OK();
}

Status BottomUpEvaluator::EmitGroup(const CompiledRule& rule, TupleRef key,
                                    TermId set) {
  const Clause& clause = *rule.clause;
  const size_t grouped = clause.grouping->arg_index;
  Tuple& out = seq_ctx_.out;
  out.clear();
  size_t k = 0;
  for (size_t i = 0; i < clause.head.args.size(); ++i) {
    out.push_back(i == grouped ? set : key[k++]);
  }
  if (db_->AddTuple(clause.head.pred, out) &&
      ++stats_.tuples_derived > options_.max_tuples) {
    return Status::ResourceExhausted("tuple limit exceeded");
  }
  return Status::OK();
}

Result<bool> BottomUpEvaluator::RunGroupingParallel(CompiledRule* rule) {
  if (pool_ == nullptr) return false;
  const std::vector<ExecStep>& steps = rule->free.steps;
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
  size_t shard_literal = steps[shard_step].literal;
  const Relation* shard_rel =
      db_->FindRelation(rule->clause->body[shard_literal].pred);
  size_t len = shard_rel == nullptr ? 0 : shard_rel->size();
  if (len < 2 * kMinChunkTuples) return false;  // not worth a fork

  // Build the indexes the executor will probe up front (grouping
  // bodies read strictly lower strata, so the relations are final):
  // LookupSnapshot never builds one, and without this the inner scans
  // of a join body degrade to per-row prefix scans.
  EnsureScanIndexes(*rule);

  size_t chunks = std::max<size_t>(len / kMinChunkTuples, 1);
  chunks = std::min(chunks, kMaxJobChunks);
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

  // Phase 1: every task collects its chunk's (key, element) pairs and
  // tags each with the lane that will accumulate its group.
  const size_t lanes = pool_->size();
  const size_t kw = rule->clause->head.args.size() - 1;
  std::vector<TaskResult> results(specs.size());
  std::vector<std::vector<uint32_t>> owner(specs.size());
  std::atomic<size_t> next{0};
  pool_->Run([&](size_t lane) {
    ExecCtx& ctx = lane_ctx_[lane];
    for (;;) {
      size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= specs.size()) break;
      ResetCtx(*rule, Tail::kGroup, &specs[t], /*snapshot=*/true, &ctx);
      results[t].status = Run(*rule, rule->free, &ctx);
      results[t].TakeFrom(&ctx);
      const TermId* kp = results[t].group_keys.data();
      owner[t].resize(results[t].group_elems.size());
      for (uint32_t& o : owner[t]) {
        o = static_cast<uint32_t>((Mix64(HashRange(TupleRef(kp, kw))) >> 32) %
                                  lanes);
        kp += kw;
      }
    }
  });
  for (const TaskResult& res : results) {
    LPS_RETURN_IF_ERROR(res.status);
    ++stats_.parallel_tasks;
    stats_.snapshot_fallbacks += res.snapshot_fallbacks;
  }

  // Phase 2: each lane reads the pairs in task order (the sequential
  // stream), accumulates the groups it owns and canonicalizes their
  // elements - everything but interning the sets, which mutates the
  // term store.
  std::vector<GroupShare> shares(lanes);
  pool_->Run([&](size_t lane) {
    GroupShare& share = shares[lane];
    share.acc.Reset(kw);
    size_t pos = 0;
    for (size_t t = 0; t < results.size(); ++t) {
      const TaskResult& res = results[t];
      for (size_t i = 0; i < res.group_elems.size(); ++i, ++pos) {
        if (owner[t][i] != lane) continue;
        uint32_t g = share.acc.Upsert(
            TupleRef(res.group_keys.data() + i * kw, kw));
        if (g == share.first.size()) share.first.push_back(pos);
        share.acc.Append(g, res.group_elems[i]);
      }
    }
    for (uint32_t g = 0; g < share.acc.num_groups(); ++g) {
      const size_t begin = share.elems.size();
      share.acc.ForEachElement(g,
                               [&](TermId e) { share.elems.push_back(e); });
      std::sort(share.elems.begin() + begin, share.elems.end());
      share.elems.erase(
          std::unique(share.elems.begin() + begin, share.elems.end()),
          share.elems.end());
      share.end.push_back(share.elems.size());
    }
  });

  // Phase 3: intern and emit in first-witness order, merging the
  // shares (each already in that order) by first position.
  TermStore* store = program_->store();
  std::vector<uint32_t> cursor(lanes, 0);
  for (;;) {
    size_t best = lanes;
    for (size_t l = 0; l < lanes; ++l) {
      if (cursor[l] == shares[l].first.size()) continue;
      if (best == lanes ||
          shares[l].first[cursor[l]] < shares[best].first[cursor[best]]) {
        best = l;
      }
    }
    if (best == lanes) break;
    GroupShare& share = shares[best];
    const uint32_t g = cursor[best]++;
    const size_t begin = g == 0 ? 0 : share.end[g - 1];
    TermId set = store->InternCanonicalSet(std::span<const TermId>(
        share.elems.data() + begin, share.end[g] - begin));
    LPS_RETURN_IF_ERROR(EmitGroup(*rule, share.acc.key(g), set));
  }
  for (const GroupShare& share : shares) {
    stats_.groups_emitted += share.acc.num_groups();
    stats_.group_elements += share.acc.total_elements();
  }
  return true;
}

Status BottomUpEvaluator::RunEmptyBranch(CompiledRule* rule) {
  // Definition 4: (forall x in {}) phi is true, so whenever some
  // quantifier range is empty the whole body holds and the head follows
  // for every active-domain value of the remaining head variables.
  ++stats_.empty_branch_runs;
  ResetCtx(*rule, Tail::kInsert, nullptr, /*snapshot=*/false, &seq_ctx_);
  return Run(*rule, rule->empty_branch, &seq_ctx_);
}

void BottomUpEvaluator::EnsureScanIndexes(const CompiledRule& rule) {
  for (const ExecStep& st : rule.free.steps) {
    if (st.kind != StepKind::kScan || st.mask == 0) continue;
    const Literal& lit = rule.clause->body[st.literal];
    // Fully bound scans probe the dedup table (Relation::Find).
    if (st.mask == AllColumns(lit.args.size())) continue;
    db_->relation(lit.pred).EnsureIndex(st.mask);
  }
}

Status BottomUpEvaluator::RunParallelDeltaPhase(
    const std::vector<size_t>& clause_indices,
    const std::unordered_map<PredicateId, std::pair<size_t, size_t>>&
        delta) {
  // One job per (parallel-safe rule, delta literal) with a non-empty
  // delta, in deterministic rule order.
  std::vector<ParallelTask> jobs;
  size_t total = 0;
  for (size_t ci : clause_indices) {
    const CompiledRule& r = rules_[ci];
    if (!r.parallel_safe) continue;
    for (size_t li : r.in_stratum_literals) {
      auto it = delta.find(r.clause->body[li].pred);
      if (it == delta.end()) continue;
      auto [begin, end] = it->second;
      if (begin >= end) continue;  // empty delta
      ++stats_.rule_runs;
      jobs.push_back(ParallelTask{&r, DeltaSpec{li, begin, end}});
      total += end - begin;
    }
  }
  if (jobs.empty()) return Status::OK();

  // Shard each job into chunks, merged back in task order. A chunk's
  // derivations depend only on its own row range, so the merged
  // database is a deterministic function of the chunking, which
  // depends on neither the lane count nor scheduling.
  std::vector<ParallelTask> tasks;
  for (const ParallelTask& job : jobs) {
    size_t begin = job.spec.begin, len = job.spec.end - begin;
    size_t chunks = std::max<size_t>(len / kMinChunkTuples, 1);
    chunks = std::min(chunks, kMaxJobChunks);
    size_t base = len / chunks, rem = len % chunks;
    size_t at = begin;
    for (size_t c = 0; c < chunks; ++c) {
      size_t sz = base + (c < rem ? 1 : 0);
      if (sz == 0) continue;
      tasks.push_back(ParallelTask{
          job.rule, DeltaSpec{job.spec.literal_index, at, at + sz}});
      at += sz;
    }
  }

  // A fork/join round trip costs more than it saves unless every lane
  // gets several minimum-size chunks, so smaller phases run their tasks
  // in order on this thread, inserting straight into the database. That
  // derives exactly the tuples the buffered tasks would, in the same
  // order, when no task reads a predicate some job derives outside its
  // own delta window (the windows end at the pre-phase watermark) and
  // no derived relation holds a tombstone an insert could revive inside
  // a window; a phase that breaks either condition forks whatever its
  // size.
  if (total < kMinForkChunks * kMinChunkTuples * pool_->size()) {
    std::vector<char> derived(program_->signature().size(), 0);
    bool exact = true;
    for (const ParallelTask& job : jobs) {
      const PredicateId head = job.rule->clause->head.pred;
      const Relation* rel = db_->FindRelation(head);
      exact = exact && (rel == nullptr || rel->dead_count() == 0);
      derived[head] = 1;
    }
    for (const ParallelTask& job : jobs) {
      for (const ExecStep& st : job.rule->free.steps) {
        exact = exact && (st.kind != StepKind::kScan ||
                          st.literal == job.spec.literal_index ||
                          !derived[job.rule->clause->body[st.literal].pred]);
      }
    }
    if (exact) {
      for (const ParallelTask& task : tasks) {
        ResetCtx(*task.rule, Tail::kInsert, &task.spec, /*snapshot=*/false,
                 &seq_ctx_);
        LPS_RETURN_IF_ERROR(Run(*task.rule, task.rule->free, &seq_ctx_));
      }
      return Status::OK();
    }
  }

  // Freeze the read paths: catch every index the tasks will probe up
  // to the current size, so LookupSnapshot never has to build one.
  for (size_t ci : clause_indices) {
    if (rules_[ci].parallel_safe) EnsureScanIndexes(rules_[ci]);
  }

  // Dynamic scheduling: lanes claim tasks off a shared counter and
  // write only their own context and result slots; the pool's join
  // barrier publishes the slots back to this thread.
  std::vector<TaskResult> results(tasks.size());
  std::atomic<size_t> next{0};
  pool_->Run([&](size_t lane) {
    ExecCtx& ctx = lane_ctx_[lane];
    for (;;) {
      size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) break;
      const CompiledRule& r = *tasks[t].rule;
      ResetCtx(r, Tail::kBuffer, &tasks[t].spec, /*snapshot=*/true, &ctx);
      results[t].heads.Reset(r.clause->head.args.size());
      ctx.heads = &results[t].heads;
      results[t].status = Run(r, r.free, &ctx);
      results[t].TakeFrom(&ctx);
    }
  });

  // Merge in task order (not completion order): deterministic.
  for (size_t t = 0; t < tasks.size(); ++t) {
    TaskResult& res = results[t];
    LPS_RETURN_IF_ERROR(res.status);
    ++stats_.parallel_tasks;
    stats_.parallel_tuples += res.heads.num_groups();
    stats_.snapshot_fallbacks += res.snapshot_fallbacks;
    const PredicateId pred = tasks[t].rule->clause->head.pred;
    for (uint32_t k = 0; k < res.heads.num_groups(); ++k) {
      if (db_->AddTuple(pred, res.heads.key(k))) {
        if (++stats_.tuples_derived > options_.max_tuples) {
          return Status::ResourceExhausted("tuple limit exceeded");
        }
      }
    }
  }
  return Status::OK();
}

// ---- The executor -----------------------------------------------------

TermId BottomUpEvaluator::Instantiate(const CompiledRule& rule, TermId term,
                                      ExecCtx* ctx) const {
  Substitution& sub = ctx->sub;
  sub.Clear();
  for (size_t s = 0; s < ctx->slots.size(); ++s) {
    if (ctx->slots[s] != kInvalidTerm) {
      sub.Bind(rule.slot_vars[s], ctx->slots[s]);
    }
  }
  return sub.Apply(program_->store(), term);
}

void BottomUpEvaluator::BindFrom(const CompiledRule& rule,
                                 const Substitution& ext, ExecCtx* ctx) {
  for (const auto& [var, value] : ext.bindings()) {
    auto it = rule.slot_of.find(var);
    if (it != rule.slot_of.end()) ctx->Bind(it->second, value);
  }
}

Status BottomUpEvaluator::Exec(const CompiledRule& rule,
                               const ExecPlan& plan, size_t i,
                               ExecCtx* ctx) {
  if (i == plan.steps.size()) {
    switch (plan.end) {
      case PlanEnd::kTail:
        return RunTail(rule, ctx);
      case PlanEnd::kQuantify:
        return Quantify(rule, ctx);
      case PlanEnd::kSeed:
        return SeedCandidate(rule, ctx);
      case PlanEnd::kEmptyRange:
        return EmptyRange(rule, ctx);
    }
  }
  const ExecStep& step = plan.steps[i];
  switch (step.kind) {
    case StepKind::kScan:
      return ExecScan(rule, plan, i, ctx);
    case StepKind::kBuiltin: {
      const Literal& lit = rule.clause->body[step.literal];
      const std::vector<SlotArg>& args = rule.body_args[step.literal];
      Tuple& vals = ctx->keys[plan.base + i];
      vals.resize(args.size());
      for (size_t k = 0; k < args.size(); ++k) {
        vals[k] = Resolve(rule, args[k], ctx);
      }
      return EvalBuiltin(program_->store(), lit.pred, vals,
                         options_.builtins, [&](const Substitution& ext) {
                           size_t mark = ctx->trail.size();
                           BindFrom(rule, ext, ctx);
                           Status st = Exec(rule, plan, i + 1, ctx);
                           ctx->Undo(mark);
                           return st;
                         });
    }
    case StepKind::kNegated: {
      LPS_ASSIGN_OR_RETURN(bool holds, Holds(rule, step.literal, ctx));
      // The literal is negative: the check passes when the atom fails.
      // Stratification puts negated predicates in strictly lower
      // strata, so their relations are final.
      if (!holds) return Exec(rule, plan, i + 1, ctx);
      return Status::OK();
    }
    case StepKind::kEnumAtom:
    case StepKind::kEnumSet:
    case StepKind::kEnumAny: {
      if (ctx->slots[step.slot] != kInvalidTerm) {
        return Exec(rule, plan, i + 1, ctx);
      }
      auto enumerate = [&](const std::vector<TermId>& domain) -> Status {
        size_t n = domain.size();  // snapshot: domain may grow
        for (size_t k = 0; k < n; ++k) {
          size_t mark = ctx->trail.size();
          ctx->Bind(step.slot, domain[k]);
          Status st = Exec(rule, plan, i + 1, ctx);
          ctx->Undo(mark);
          LPS_RETURN_IF_ERROR(st);
        }
        return Status::OK();
      };
      if (step.kind != StepKind::kEnumSet) {
        LPS_RETURN_IF_ERROR(enumerate(db_->atom_domain()));
      }
      if (step.kind == StepKind::kEnumAtom) return Status::OK();
      return enumerate(db_->set_domain());
    }
  }
  return Status::Internal("unknown plan step");
}

Status BottomUpEvaluator::ExecScan(const CompiledRule& rule,
                                   const ExecPlan& plan, size_t i,
                                   ExecCtx* ctx) {
  const ExecStep& step = plan.steps[i];
  const Literal& lit = rule.clause->body[step.literal];
  const std::vector<SlotArg>& args = rule.body_args[step.literal];
  const TermStore& store = *program_->store();
  Tuple& key = ctx->keys[plan.base + i];
  key.assign(args.size(), kInvalidTerm);
  uint32_t mask = step.mask;
  if (step.dynamic_mask) {
    for (size_t k = 0; k < args.size(); ++k) {
      TermId v = Resolve(rule, args[k], ctx);
      if (store.is_ground(v) && ColumnBit(k) != 0) {
        mask |= ColumnBit(k);
        key[k] = v;
      }
    }
  } else {
    for (size_t k = 0; k < args.size(); ++k) {
      if (MaskHasColumn(mask, k)) key[k] = Resolve(rule, args[k], ctx);
    }
  }

  Relation* mrel = nullptr;  // sequential path only
  const Relation* rel;
  if (ctx->snapshot) {
    rel = db_->FindRelation(lit.pred);
    if (rel == nullptr) return Status::OK();
  } else {
    mrel = &db_->relation(lit.pred);
    rel = mrel;
  }
  const DeltaSpec* delta = ctx->delta;
  const bool is_delta =
      delta != nullptr && delta->literal_index == step.literal;

  if (is_delta && delta->rows != nullptr) {
    // Explicit-rows delta (incremental maintenance): the rows sit at
    // scattered arena positions, so skip the index probe and re-check
    // every column per row. The maintainer picked the rows
    // deliberately; they are iterated as given, tombstoned or not.
    for (size_t k = delta->begin; k < delta->end; ++k) {
      LPS_RETURN_IF_ERROR(
          MatchRow(rule, plan, i, rel->row((*delta->rows)[k]), 0, ctx));
    }
    return Status::OK();
  }
  if (mask == 0) {
    // Unbound scan: walk the rows present now (inserts made while the
    // scan runs are not visited), or the delta's contiguous window.
    size_t begin = is_delta ? delta->begin : 0;
    size_t end = is_delta ? delta->end : rel->size();
    for (size_t r = begin; r < end; ++r) {
      if (!rel->IsLive(static_cast<RowId>(r))) continue;
      LPS_RETURN_IF_ERROR(
          MatchRow(rule, plan, i, rel->row(static_cast<RowId>(r)), 0, ctx));
    }
    return Status::OK();
  }
  if (mask == AllColumns(args.size())) {
    // Fully bound: one dedup probe (Find skips tombstones), and no
    // full-tuple index ever gets built.
    RowId r = rel->Find(key);
    if (r == Relation::kNoRow) return Status::OK();
    if (is_delta && (r < delta->begin || r >= delta->end)) {
      return Status::OK();
    }
    return MatchRow(rule, plan, i, rel->row(r), mask, ctx);
  }
  // Index probe, clipped to the delta window (postings are ascending,
  // so the clip is a binary search). The sequential path copies the
  // hits: its inserts and nested probes invalidate Lookup's span.
  std::vector<RowId>& hits = ctx->hits[plan.base + i];
  std::span<const RowId> probe;
  if (ctx->snapshot) {
    if (!rel->LookupSnapshot(mask, key, rel->size(), &hits)) {
      ++ctx->snapshot_fallbacks;
    }
    probe = hits;
  } else {
    probe = mrel->Lookup(mask, key);
  }
  if (is_delta) {
    auto first = std::lower_bound(probe.begin(), probe.end(),
                                  static_cast<RowId>(delta->begin));
    auto last = std::lower_bound(first, probe.end(),
                                 static_cast<RowId>(delta->end));
    probe = probe.subspan(first - probe.begin(), last - first);
  }
  if (!ctx->snapshot) {
    hits.assign(probe.begin(), probe.end());
    probe = hits;
  }
  for (RowId r : probe) {
    if (!rel->IsLive(r)) continue;
    LPS_RETURN_IF_ERROR(MatchRow(rule, plan, i, rel->row(r), mask, ctx));
  }
  return Status::OK();
}

Status BottomUpEvaluator::MatchRow(const CompiledRule& rule,
                                   const ExecPlan& plan, size_t i,
                                   TupleRef row, uint32_t mask,
                                   ExecCtx* ctx) {
  const ExecStep& step = plan.steps[i];
  const std::vector<SlotArg>& args = rule.body_args[step.literal];
  const TermStore& store = *program_->store();
  const size_t mark = ctx->trail.size();
  bool ok = true;
  bool complex = false;
  for (size_t k = 0; k < args.size() && ok; ++k) {
    if (MaskHasColumn(mask, k)) continue;  // matched by the probe
    const SlotArg& a = args[k];
    if (a.kind == SlotArg::kConst) {
      ok = a.term == row[k];
    } else if (a.kind == SlotArg::kComplex) {
      complex = true;
    } else if (TermId cur = ctx->slots[a.slot]; cur == kInvalidTerm) {
      ok = SortAllowsBinding(store, a.term, row[k]);
      if (ok) ctx->Bind(a.slot, row[k]);
    } else if (store.is_ground(cur)) {
      ok = cur == row[k];  // bound earlier, or repeated in this literal
    } else {
      complex = true;  // bound to a non-ground term: unify below
    }
  }
  Status st;
  if (ok && !complex) {
    st = Exec(rule, plan, i + 1, ctx);
  } else if (ok) {
    // Complex patterns (set / function terms with variables): unify
    // them against the row's values under the bindings so far. The
    // row is read here, before any recursion can grow its arena.
    Tuple& pat = ctx->out;
    std::vector<TermId> val;
    pat.clear();
    for (size_t k = 0; k < args.size(); ++k) {
      if (MaskHasColumn(mask, k)) continue;
      const SlotArg& a = args[k];
      if (a.kind == SlotArg::kConst) continue;
      TermId p = a.kind == SlotArg::kComplex ? a.term : ctx->slots[a.slot];
      if (a.kind == SlotArg::kSlot && store.is_ground(p)) continue;
      pat.push_back(Instantiate(rule, p, ctx));
      val.push_back(row[k]);
    }
    std::vector<Substitution>& unifiers = ctx->unifiers[plan.base + i];
    unifiers.clear();
    Unifier unifier(program_->store(), options_.builtins.unify);
    st = unifier.EnumerateTuples(pat, val, &unifiers);
    for (size_t u = 0; st.ok() && u < unifiers.size(); ++u) {
      size_t umark = ctx->trail.size();
      BindFrom(rule, unifiers[u], ctx);
      st = Exec(rule, plan, i + 1, ctx);
      ctx->Undo(umark);
    }
  }
  ctx->Undo(mark);
  return st;
}

Result<bool> BottomUpEvaluator::Holds(const CompiledRule& rule, size_t li,
                                      ExecCtx* ctx) {
  TermStore* store = program_->store();
  const Literal& lit = rule.clause->body[li];
  const std::vector<SlotArg>& args = rule.body_args[li];
  Tuple& vals = ctx->out;
  vals.resize(args.size());
  for (size_t k = 0; k < args.size(); ++k) {
    vals[k] = Resolve(rule, args[k], ctx);
    if (!store->is_ground(vals[k])) {
      return Status::SafetyError(
          "literal " + program_->signature().Name(lit.pred) +
          " is not ground where a ground check is required (unsafe "
          "clause?)");
    }
  }
  if (program_->signature().IsBuiltin(lit.pred)) {
    return CheckBuiltin(store, lit.pred, vals, options_.builtins);
  }
  return db_->Contains(lit.pred, vals);
}

Status BottomUpEvaluator::Quantify(const CompiledRule& rule, ExecCtx* ctx) {
  const Clause& clause = *rule.clause;
  TermStore* store = program_->store();

  // Resolve the ranges; all must be ground sets here. Their elements
  // are copied out: verification can intern terms, which may move the
  // store's argument arena.
  ctx->q_elems.clear();
  ctx->q_begin.clear();
  for (size_t q = 0; q < clause.quantifiers.size(); ++q) {
    TermId r = Resolve(rule, rule.range_args[q], ctx);
    if (!store->is_ground(r) || store->kind(r) != TermKind::kSet) {
      return Status::SafetyError(
          "quantifier range not bound: " +
          TermToString(*store, clause.quantifiers[q].range));
    }
    // An empty range is vacuous truth: the empty-range branch covers it.
    if (store->args(r).empty()) return Status::OK();
    ctx->q_begin.push_back(ctx->q_elems.size());
    auto elems = store->args(r);
    ctx->q_elems.insert(ctx->q_elems.end(), elems.begin(), elems.end());
  }
  ctx->q_begin.push_back(ctx->q_elems.size());

  if (rule.plan.quantified_literals.empty()) return RunTail(rule, ctx);
  if (rule.seed_slots.empty()) {
    LPS_ASSIGN_OR_RETURN(bool ok, VerifyAll(rule, ctx));
    return ok ? RunTail(rule, ctx) : Status::OK();
  }

  // Division with first-element seeding: solve the quantified literals
  // at the first combination to obtain candidate bindings for the seed
  // variables, then verify each candidate on all combinations.
  ++stats_.seed_joins;
  ctx->seen.clear();
  ctx->q_mark = ctx->trail.size();
  for (size_t q = 0; q < rule.qvar_slots.size(); ++q) {
    ctx->Bind(rule.qvar_slots[q], ctx->q_elems[ctx->q_begin[q]]);
  }
  Status st = Run(rule, rule.seed, ctx);
  ctx->Undo(ctx->q_mark);
  return st;
}

Status BottomUpEvaluator::SeedCandidate(const CompiledRule& rule,
                                        ExecCtx* ctx) {
  // Dedup candidates by their seed-variable values.
  const size_t k = rule.seed_slots.size();
  const size_t first = ctx->seen.size();
  for (uint32_t s : rule.seed_slots) {
    TermId v = ctx->slots[s];
    ctx->seen.push_back(v == kInvalidTerm ? rule.slot_vars[s] : v);
  }
  for (size_t at = 0; at < first; at += k) {
    if (std::equal(ctx->seen.begin() + at, ctx->seen.begin() + at + k,
                   ctx->seen.begin() + first)) {
      ctx->seen.resize(first);
      return Status::OK();
    }
  }

  // Switch to the candidate - the bindings Quantify was entered with
  // plus the seed values - setting aside everything bound since then
  // (the quantifier variables and the seed plan's own bindings), and
  // restore the seed plan's state afterwards so its scans resume.
  const size_t top = ctx->trail.size();
  ctx->saved_trail.assign(ctx->trail.begin() + ctx->q_mark,
                          ctx->trail.end());
  ctx->saved_vals.clear();
  for (const auto& [s, old] : ctx->saved_trail) {
    ctx->saved_vals.push_back(ctx->slots[s]);
  }
  ctx->Undo(ctx->q_mark);
  for (size_t j = 0; j < k; ++j) {
    ctx->Bind(rule.seed_slots[j], ctx->seen[first + j]);
  }
  Result<bool> ok = VerifyAll(rule, ctx);
  Status st = !ok.ok() ? ok.status()
              : *ok    ? RunTail(rule, ctx)
                       : Status::OK();
  ctx->Undo(ctx->q_mark);
  for (size_t j = 0; j < ctx->saved_trail.size(); ++j) {
    ctx->trail.push_back(ctx->saved_trail[j]);
    ctx->slots[ctx->saved_trail[j].first] = ctx->saved_vals[j];
  }
  assert(ctx->trail.size() == top);
  (void)top;
  return st;
}

Result<bool> BottomUpEvaluator::VerifyAll(const CompiledRule& rule,
                                          ExecCtx* ctx) {
  // Every combination of quantifier values must satisfy every
  // quantified literal; the quantifier slots are set in place (first
  // quantifier fastest) and restored on the way out.
  const Clause& clause = *rule.clause;
  const size_t nq = rule.qvar_slots.size();
  ctx->q_idx.assign(nq, 0);
  const size_t mark = ctx->trail.size();
  for (size_t q = 0; q < nq; ++q) {
    ctx->Bind(rule.qvar_slots[q], ctx->q_elems[ctx->q_begin[q]]);
  }
  Status st;
  bool ok = true;
  for (;;) {
    ++stats_.combos_checked;
    for (size_t li : rule.plan.quantified_literals) {
      Result<bool> holds = Holds(rule, li, ctx);
      if (!holds.ok()) st = holds.status();
      if (!holds.ok() || *holds != clause.body[li].positive) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    size_t q = 0;
    while (q < nq) {
      size_t size = ctx->q_begin[q + 1] - ctx->q_begin[q];
      if (++ctx->q_idx[q] < size) break;
      ctx->q_idx[q] = 0;
      ctx->slots[rule.qvar_slots[q]] = ctx->q_elems[ctx->q_begin[q]];
      ++q;
    }
    if (q == nq) break;
    ctx->slots[rule.qvar_slots[q]] =
        ctx->q_elems[ctx->q_begin[q] + ctx->q_idx[q]];
  }
  ctx->Undo(mark);
  LPS_RETURN_IF_ERROR(st);
  return ok;
}

Status BottomUpEvaluator::EmptyRange(const CompiledRule& rule,
                                     ExecCtx* ctx) {
  TermStore* store = program_->store();
  for (const SlotArg& range : rule.range_args) {
    TermId r = Resolve(rule, range, ctx);
    if (!store->is_ground(r) || store->kind(r) != TermKind::kSet) {
      return Status::SafetyError(
          "quantifier range not bound in empty-range branch");
    }
    if (store->args(r).empty()) return RunTail(rule, ctx);
  }
  return Status::OK();
}

Status BottomUpEvaluator::BuildHead(const CompiledRule& rule,
                                    ExecCtx* ctx) const {
  const TermStore& store = *program_->store();
  Tuple& out = ctx->out;
  out.clear();
  for (const SlotArg& a : rule.head_args) {
    TermId t = Resolve(rule, a, ctx);
    if (!store.is_ground(t)) {
      return Status::SafetyError(
          "head variable not bound by the body in clause for " +
          program_->signature().Name(rule.clause->head.pred) +
          " (unsafe clause)");
    }
    out.push_back(t);
  }
  return Status::OK();
}

Status BottomUpEvaluator::RunTail(const CompiledRule& rule, ExecCtx* ctx) {
  const PredicateId pred = rule.clause->head.pred;
  switch (ctx->tail) {
    case Tail::kInsert:
      LPS_RETURN_IF_ERROR(BuildHead(rule, ctx));
      if (db_->AddTuple(pred, ctx->out)) {
        if (++stats_.tuples_derived > options_.max_tuples) {
          return Status::ResourceExhausted("tuple limit exceeded");
        }
      }
      return Status::OK();
    case Tail::kBuffer:
      // Contains reads the frozen database; the real dedup happens when
      // the coordinator merges.
      LPS_RETURN_IF_ERROR(BuildHead(rule, ctx));
      if (db_->Contains(pred, ctx->out)) return Status::OK();
      ctx->heads->Upsert(ctx->out);
      if (ctx->heads->num_groups() > options_.max_tuples) {
        return Status::ResourceExhausted("tuple limit exceeded");
      }
      return Status::OK();
    case Tail::kCollect:
      LPS_RETURN_IF_ERROR(BuildHead(rule, ctx));
      ctx->derived.insert(ctx->derived.end(), ctx->out.begin(),
                          ctx->out.end());
      ++ctx->derived_rows;
      return Status::OK();
    case Tail::kWitness:
      ctx->found = true;
      return Status(StatusCode::kAlreadyExists, std::string());
    case Tail::kGroup:
      break;
  }
  // Grouping: key = head args except the grouped position.
  const TermStore& store = *program_->store();
  const GroupSpec& g = *rule.clause->grouping;
  Tuple& key = ctx->out;
  key.clear();
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (i == g.arg_index) continue;
    TermId v = Resolve(rule, rule.head_args[i], ctx);
    if (!store.is_ground(v)) {
      return Status::SafetyError(
          "unbound head variable in grouping clause for " +
          program_->signature().Name(pred));
    }
    key.push_back(v);
  }
  TermId gv = Resolve(rule, rule.grouped, ctx);
  if (!store.is_ground(gv)) {
    return Status::SafetyError(
        "grouped variable not bound by the body of the grouping clause "
        "for " +
        program_->signature().Name(pred));
  }
  if (ctx->group != nullptr) {
    ctx->group->AppendPair(key, gv);
  } else {
    ctx->group_keys.insert(ctx->group_keys.end(), key.begin(), key.end());
    ctx->group_elems.push_back(gv);
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
