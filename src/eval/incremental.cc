#include "eval/incremental.h"

#include <unordered_map>
#include <unordered_set>

#include "unify/unify.h"

namespace lps {

namespace {

// Early-stop sentinel threaded out of ExecSteps by the re-derivation
// continuation: the first witness ends the search. kAlreadyExists is
// never produced by body execution, so the pair (code, message) cannot
// collide with a real error.
constexpr char kWitnessMsg[] = "incremental rederive witness";

bool IsWitness(const Status& st) {
  return st.code() == StatusCode::kAlreadyExists &&
         st.message() == kWitnessMsg;
}

}  // namespace

const std::vector<PlanStep>& IncrementalMaintainer::DeltaSteps(
    const BottomUpEvaluator::CompiledRule& rule, size_t pos) {
  const RulePlan& plan = rule.plan;
  if (pos < plan.delta_plans.size() &&
      !plan.delta_plans[pos].steps.empty()) {
    return plan.delta_plans[pos].steps;
  }
  return plan.free_plan.steps;
}

IncrementalMaintainer::IncrementalMaintainer(const Program* program,
                                             Database* db,
                                             EvalOptions options)
    : program_(program), db_(db), eval_(program, db, [&options] {
        // The maintainer drives the sequential join machinery only;
        // deltas here are far too small to amortize a pool.
        options.threads = 1;
        return options;
      }()) {}

Result<bool> IncrementalMaintainer::Maintain(
    const std::vector<FactOp>& inserts,
    const std::vector<FactOp>& retracts, const FactCounts* edb_counts) {
  ineligible_reason_.clear();
  edb_counts_ = edb_counts;
  LPS_RETURN_IF_ERROR(eval_.CompileRules());

  // Eligibility: deletion is only invertible rule-by-rule in the Horn
  // fragment. Negation and grouping are non-monotone (a deletion can
  // create tuples), and quantified / enumerating rules observe whole
  // domains rather than deltas; any of them forces a full re-fixpoint.
  for (const auto& rule : eval_.rules_) {
    if (!rule.horn_simple) {
      ineligible_reason_ =
          "rule outside the Horn fragment (quantifier, grouping, or "
          "domain enumeration): " +
          program_->signature().Name(rule.clause->head.pred);
      return false;
    }
    for (const Literal& lit : rule.clause->body) {
      if (!lit.positive) {
        ineligible_reason_ =
            "negated body literal in rule for " +
            program_->signature().Name(rule.clause->head.pred);
        return false;
      }
    }
  }

  LPS_RETURN_IF_ERROR(Retract(retracts));
  LPS_RETURN_IF_ERROR(Insert(inserts));

  // Tombstones accrue under retract-heavy churn; compact once they
  // outnumber half the live rows. The batch's watermarks and row lists
  // are dead by now, so renumbering rows is safe.
  eval_.stats_.compactions = db_->CompactTombstones();
  Database::StorageStats storage = db_->storage_stats();
  eval_.stats_.arena_bytes = storage.arena_bytes;
  eval_.stats_.index_bytes = storage.index_bytes;
  eval_.stats_.dedup_probes = storage.dedup_probes;
  return true;
}

Status IncrementalMaintainer::Retract(const std::vector<FactOp>& retracts) {
  const Signature& sig = program_->signature();
  TermStore* store = program_->store();

  // The over-deleted set, per predicate: `rows` in discovery order (the
  // frontier is a slice of it), `member` for dedup. References into
  // this map stay valid across inserts (unordered_map is node-based).
  struct Deleted {
    std::vector<RowId> rows;
    std::unordered_set<RowId> member;
  };
  std::unordered_map<PredicateId, Deleted> deleted;
  size_t total = 0;
  auto record = [&](PredicateId pred, RowId r) {
    Deleted& d = deleted[pred];
    if (!d.member.insert(r).second) return false;
    d.rows.push_back(r);
    ++total;
    return true;
  };
  for (const FactOp& op : retracts) {
    RowId r = db_->FindRow(op.pred, op.args);
    if (r != Relation::kNoRow) record(op.pred, r);  // absent: no-op
  }
  if (total == 0) return Status::OK();

  // Over-delete fixpoint (DRed phase 1): grow the set with every tuple
  // that has a derivation through an already-condemned one. All rows
  // stay live for the duration - the over-estimate deliberately joins
  // against the pre-batch database - so the condemned frontier is fed
  // to the scans as an explicit-rows delta.
  std::unordered_map<PredicateId, size_t> frontier_done;
  for (;;) {
    ++eval_.stats_.delta_rounds;
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> frontier;
    for (auto& [pred, d] : deleted) {
      size_t begin = frontier_done.count(pred) ? frontier_done[pred] : 0;
      if (begin < d.rows.size()) frontier[pred] = {begin, d.rows.size()};
      frontier_done[pred] = d.rows.size();
    }
    if (frontier.empty()) break;
    for (auto& rule : eval_.rules_) {
      const Literal& head = rule.clause->head;
      auto condemn_tuple = [&](const Tuple& out) -> Status {
        RowId r = db_->FindRow(head.pred, out);
        if (r != Relation::kNoRow) {
          if (record(head.pred, r)) ++eval_.stats_.tuples_derived;
        }
        return Status::OK();
      };
      auto condemn = [&](Substitution* theta) -> Status {
        Tuple out;
        out.reserve(head.args.size());
        for (TermId a : head.args) {
          TermId t = theta->Apply(store, a);
          if (!store->is_ground(t)) {
            return Status::SafetyError(
                "head variable not bound by the body in clause for " +
                sig.Name(head.pred) + " (unsafe clause)");
          }
          out.push_back(t);
        }
        return condemn_tuple(out);
      };
      const bool flat = FlatEligible(rule);
      for (size_t pos = 0; pos < rule.plan.free_literals.size(); ++pos) {
        size_t li = rule.plan.free_literals[pos];
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto fit = frontier.find(lit.pred);
        if (fit == frontier.end()) continue;
        BottomUpEvaluator::DeltaSpec spec{li, fit->second.first,
                                          fit->second.second,
                                          &deleted[lit.pred].rows};
        ++eval_.stats_.rule_runs;
        if (flat) {
          LPS_RETURN_IF_ERROR(
              FlatDeltaJoin(rule, DeltaSteps(rule, pos), spec,
                            condemn_tuple));
        } else {
          Substitution theta;
          LPS_RETURN_IF_ERROR(eval_.ExecSteps(
              rule, DeltaSteps(rule, pos), 0, &theta, &spec, condemn));
        }
      }
    }
  }
  eval_.stats_.overdeleted_tuples += total;

  // Phase boundary: tombstone the whole over-deleted set at once, so
  // re-derivation sees exactly the surviving under-approximation.
  for (auto& [pred, d] : deleted) {
    for (RowId r : d.rows) db_->EraseRow(pred, r);
  }

  std::unordered_map<PredicateId,
                     std::vector<const BottomUpEvaluator::CompiledRule*>>
      rules_by_head;
  for (const auto& rule : eval_.rules_) {
    rules_by_head[rule.clause->head.pred].push_back(&rule);
  }

  // Tuple -> still-dead condemned row, so the propagation pass can
  // recognize a freshly derived head as a revivable casualty.
  std::unordered_map<PredicateId,
                     std::unordered_map<Tuple, RowId, TupleHash>>
      dead_index;
  for (auto& [pred, d] : deleted) {
    const Relation* rel = db_->FindRelation(pred);
    auto& by_tuple = dead_index[pred];
    for (RowId r : d.rows) {
      TupleRef t = rel->row(r);
      by_tuple.emplace(Tuple(t.begin(), t.end()), r);
    }
  }

  // Revived rows per predicate in revival order; the propagation
  // frontier below is a window of it (same shape as the over-delete
  // pass). Reviving keeps the arena row, so RowIds stay stable.
  std::unordered_map<PredicateId, std::vector<RowId>> revived;
  auto revive = [&](PredicateId pred, RowId r) {
    db_->ReviveRow(pred, r);
    revived[pred].push_back(r);
    ++eval_.stats_.rederived_tuples;
  };

  // Re-derivation (DRed phase 2). The maintainable fragment is
  // positive Horn, so re-derivation is a *monotone* fixpoint and needs
  // no stratification. EDB facts of the post-batch program revive
  // unconditionally first. With a borrowed fact-count index this is
  // one probe per casualty; without one, one pass over the program's
  // facts probing the dead index (not a per-batch set of every fact -
  // the fact list is usually far larger than the casualty list).
  if (edb_counts_ != nullptr) {
    for (const auto& [pred, by_tuple] : dead_index) {
      auto pit = edb_counts_->find(pred);
      if (pit == edb_counts_->end()) continue;
      const Relation* rel = db_->FindRelation(pred);
      for (const auto& [args, row] : by_tuple) {
        if (!rel->IsLive(row) && pit->second.count(args) > 0) {
          revive(pred, row);
        }
      }
    }
  } else {
    // Dense pred-id pre-filter: typically no EDB predicate has
    // casualties at all, so the per-fact check must be an array index,
    // not a hash find.
    PredicateId max_dead = 0;
    for (const auto& [pred, by_tuple] : dead_index) {
      if (pred > max_dead) max_dead = pred;
    }
    std::vector<char> pred_dead(static_cast<size_t>(max_dead) + 1, 0);
    for (const auto& [pred, by_tuple] : dead_index) pred_dead[pred] = 1;
    for (const Literal& f : program_->facts()) {
      if (f.pred >= pred_dead.size() || !pred_dead[f.pred]) continue;
      auto& by_tuple = dead_index[f.pred];
      auto hit = by_tuple.find(f.args);
      if (hit != by_tuple.end() &&
          !db_->FindRelation(f.pred)->IsLive(hit->second)) {
        revive(f.pred, hit->second);
      }
    }
  }

  // Then one counting-style witness sweep: a casualty revives iff the
  // surviving database still derives it (head-bound body search, first
  // witness wins). For non-recursive programs this sweep is already
  // complete.
  Tuple tuple;
  for (auto& [pred, d] : deleted) {
    auto rit = rules_by_head.find(pred);
    const Relation* rel = db_->FindRelation(pred);
    for (RowId r : d.rows) {
      if (rel->IsLive(r)) continue;  // already revived as an EDB fact
      {
        TupleRef view = rel->row(r);
        tuple.assign(view.begin(), view.end());
      }
      bool alive = false;
      if (rit != rules_by_head.end()) {
        for (const auto* rule : rit->second) {
          if (FlatEligible(*rule)) {
            alive = FlatWitness(*rule, tuple);
          } else {
            LPS_ASSIGN_OR_RETURN(alive, DerivesTuple(*rule, tuple));
          }
          if (alive) break;
        }
      }
      if (alive) revive(pred, r);
    }
  }

  // Then propagate: each revival can re-support further casualties, so
  // delta-join the newly revived rows through the rules (explicit-rows
  // delta, exactly like the over-delete pass) and revive any derived
  // head that is a still-dead casualty - never a repeated sweep over
  // the whole condemned set.
  std::unordered_map<PredicateId, size_t> prop_done;
  for (;;) {
    ++eval_.stats_.delta_rounds;
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> frontier;
    for (auto& [pred, rows] : revived) {
      size_t begin = prop_done.count(pred) ? prop_done[pred] : 0;
      if (begin < rows.size()) frontier[pred] = {begin, rows.size()};
      prop_done[pred] = rows.size();
    }
    if (frontier.empty()) break;
    for (auto& rule : eval_.rules_) {
      const Literal& head = rule.clause->head;
      auto dit = dead_index.find(head.pred);
      if (dit == dead_index.end()) continue;  // head cannot be dead
      auto rederive_tuple = [&](const Tuple& out) -> Status {
        auto hit = dit->second.find(out);
        if (hit != dit->second.end() &&
            !db_->FindRelation(head.pred)->IsLive(hit->second)) {
          revive(head.pred, hit->second);
        }
        return Status::OK();
      };
      auto rederive = [&](Substitution* theta) -> Status {
        Tuple out;
        out.reserve(head.args.size());
        for (TermId a : head.args) {
          TermId t = theta->Apply(store, a);
          if (!store->is_ground(t)) {
            return Status::SafetyError(
                "head variable not bound by the body in clause for " +
                sig.Name(head.pred) + " (unsafe clause)");
          }
          out.push_back(t);
        }
        return rederive_tuple(out);
      };
      const bool flat = FlatEligible(rule);
      for (size_t pos = 0; pos < rule.plan.free_literals.size(); ++pos) {
        size_t li = rule.plan.free_literals[pos];
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto fit = frontier.find(lit.pred);
        if (fit == frontier.end()) continue;
        BottomUpEvaluator::DeltaSpec spec{li, fit->second.first,
                                          fit->second.second,
                                          &revived[lit.pred]};
        ++eval_.stats_.rule_runs;
        if (flat) {
          LPS_RETURN_IF_ERROR(
              FlatDeltaJoin(rule, DeltaSteps(rule, pos), spec,
                            rederive_tuple));
        } else {
          Substitution theta;
          LPS_RETURN_IF_ERROR(eval_.ExecSteps(
              rule, DeltaSteps(rule, pos), 0, &theta, &spec, rederive));
        }
      }
    }
  }
  return Status::OK();
}

bool IncrementalMaintainer::FlatEligible(
    const BottomUpEvaluator::CompiledRule& rule) {
  if (!rule.parallel_safe) return false;
  // parallel_safe admits kNegated steps, but Maintain() already
  // rejected negation; re-check so the fast paths never have to.
  for (const PlanStep& s : rule.plan.free_plan.steps) {
    if (s.kind != StepKind::kScan) return false;
  }
  return true;
}

Status IncrementalMaintainer::FlatDeltaJoin(
    const BottomUpEvaluator::CompiledRule& rule,
    const std::vector<PlanStep>& steps,
    const BottomUpEvaluator::DeltaSpec& spec,
    const std::function<Status(const Tuple&)>& emit) {
  if (wit_rows_.size() < steps.size()) {
    wit_rows_.resize(steps.size());
    wit_keys_.resize(steps.size());
  }
  BottomUpEvaluator::FlatBindings binds;
  return FlatDeltaStep(rule, steps, 0, spec, &binds, emit);
}

Status IncrementalMaintainer::FlatDeltaStep(
    const BottomUpEvaluator::CompiledRule& rule,
    const std::vector<PlanStep>& steps, size_t step,
    const BottomUpEvaluator::DeltaSpec& spec,
    BottomUpEvaluator::FlatBindings* binds,
    const std::function<Status(const Tuple&)>& emit) {
  const TermStore& store = *program_->store();
  if (step == steps.size()) {
    const Literal& head = rule.clause->head;
    Tuple& out = flat_out_;
    out.clear();
    out.reserve(head.args.size());
    for (TermId a : head.args) {
      TermId v = binds->Apply(store, a);
      if (store.IsVariable(v)) {
        return Status::SafetyError(
            "head variable not bound by the body in clause for " +
            program_->signature().Name(head.pred) + " (unsafe clause)");
      }
      out.push_back(v);
    }
    return emit(out);
  }
  const Literal& lit = rule.clause->body[steps[step].literal_index];
  Relation& rel = db_->relation(lit.pred);
  // Bind a candidate row and recurse. TermIds are stable, and the row
  // view is not read past the recursive call, so arena growth from
  // emitted inserts is safe.
  auto try_row = [&](RowId r) -> Status {
    TupleRef row = rel.row(r);
    size_t mark = binds->Mark();
    bool ok = true;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      TermId v = binds->Apply(store, lit.args[i]);
      if (store.IsVariable(v)) {
        binds->Bind(v, row[i]);
      } else if (v != row[i]) {
        ok = false;
        break;
      }
    }
    Status st = ok ? FlatDeltaStep(rule, steps, step + 1, spec, binds, emit)
                   : Status::OK();
    binds->Undo(mark);
    return st;
  };
  if (steps[step].literal_index == spec.literal_index) {
    // The delta literal: enumerate the (small) delta directly and let
    // the bind loop re-check any bound columns - probing an index to
    // then intersect with a handful of rows would cost more.
    const bool rows_mode = spec.rows != nullptr;
    for (size_t i = spec.begin; i < spec.end; ++i) {
      RowId r = rows_mode ? (*spec.rows)[i] : static_cast<RowId>(i);
      if (!rows_mode && !rel.IsLive(r)) continue;
      LPS_RETURN_IF_ERROR(try_row(r));
    }
    return Status::OK();
  }
  Tuple& key = wit_keys_[step];
  key.assign(lit.args.size(), TermId{});
  uint32_t mask = 0;
  size_t ground_cols = 0;
  for (size_t i = 0; i < lit.args.size(); ++i) {
    TermId v = binds->Apply(store, lit.args[i]);
    if (!store.IsVariable(v)) {
      mask |= ColumnBit(i);
      key[i] = v;
      ++ground_cols;
    }
  }
  if (ground_cols == lit.args.size()) {
    // Fully bound: one dedup probe (Find skips tombstones itself).
    if (rel.Find(key) == Relation::kNoRow) return Status::OK();
    return FlatDeltaStep(rule, steps, step + 1, spec, binds, emit);
  }
  std::vector<RowId>& rows = wit_rows_[step];
  if (mask == 0) {
    rows.resize(rel.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<RowId>(r);
    }
  } else {
    const std::span<const RowId> hits = rel.Lookup(mask, key);
    rows.assign(hits.begin(), hits.end());
  }
  for (RowId r : rows) {
    if (!rel.IsLive(r)) continue;
    LPS_RETURN_IF_ERROR(try_row(r));
  }
  return Status::OK();
}

bool IncrementalMaintainer::FlatWitness(
    const BottomUpEvaluator::CompiledRule& rule, const Tuple& t) {
  const TermStore& store = *program_->store();
  const Literal& head = rule.clause->head;
  if (head.args.size() != t.size()) return false;
  BottomUpEvaluator::FlatBindings binds;
  for (size_t i = 0; i < head.args.size(); ++i) {
    TermId a = head.args[i];
    if (store.IsVariable(a)) {
      TermId cur = binds.Apply(store, a);
      if (cur == a) {
        binds.Bind(a, t[i]);
      } else if (cur != t[i]) {
        return false;  // repeated head variable, mismatched columns
      }
    } else if (a != t[i]) {
      return false;  // ground head column differs from the target
    }
  }
  size_t depth = rule.plan.free_plan.steps.size();
  if (wit_rows_.size() < depth) {
    wit_rows_.resize(depth);
    wit_keys_.resize(depth);
  }
  ++eval_.stats_.rule_runs;
  return FlatWitnessStep(rule, 0, &binds);
}

bool IncrementalMaintainer::FlatWitnessStep(
    const BottomUpEvaluator::CompiledRule& rule, size_t step,
    BottomUpEvaluator::FlatBindings* binds) {
  const std::vector<PlanStep>& steps = rule.plan.free_plan.steps;
  if (step == steps.size()) return true;
  const TermStore& store = *program_->store();
  const Literal& lit = rule.clause->body[steps[step].literal_index];
  Relation& rel = db_->relation(lit.pred);
  Tuple& key = wit_keys_[step];
  key.assign(lit.args.size(), TermId{});
  uint32_t mask = 0;
  size_t ground_cols = 0;
  for (size_t i = 0; i < lit.args.size(); ++i) {
    TermId v = binds->Apply(store, lit.args[i]);
    if (!store.IsVariable(v)) {
      mask |= ColumnBit(i);
      key[i] = v;
      ++ground_cols;
    }
  }
  if (ground_cols == lit.args.size()) {
    // Fully bound: one dedup probe (Find skips tombstones), and no
    // full-tuple-mask index ever gets built.
    return rel.Find(key) != Relation::kNoRow &&
           FlatWitnessStep(rule, step + 1, binds);
  }
  std::vector<RowId>& rows = wit_rows_[step];
  if (mask == 0) {
    rows.resize(rel.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<RowId>(r);
    }
  } else {
    const std::span<const RowId> hits = rel.Lookup(mask, key);
    rows.assign(hits.begin(), hits.end());
  }
  for (RowId r : rows) {
    if (!rel.IsLive(r)) continue;
    TupleRef row = rel.row(r);
    size_t mark = binds->Mark();
    bool ok = true;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      TermId v = binds->Apply(store, lit.args[i]);
      if (store.IsVariable(v)) {
        binds->Bind(v, row[i]);
      } else if (v != row[i]) {
        ok = false;  // unindexed or repeated-variable column mismatch
        break;
      }
    }
    if (ok && FlatWitnessStep(rule, step + 1, binds)) return true;
    binds->Undo(mark);
  }
  return false;
}

Result<bool> IncrementalMaintainer::DerivesTuple(
    const BottomUpEvaluator::CompiledRule& rule, const Tuple& t) {
  const Literal& head = rule.clause->head;
  if (head.args.size() != t.size()) return false;
  // Pre-bind the head against the target tuple; each unifier seeds a
  // body search whose scans then run with those columns bound.
  Unifier unifier(program_->store(), eval_.options_.builtins.unify);
  std::vector<Substitution> unifiers;
  LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(
      std::span<const TermId>(head.args.data(), head.args.size()),
      std::span<const TermId>(t.data(), t.size()), &unifiers));
  for (const Substitution& u : unifiers) {
    Substitution theta = u;
    ++eval_.stats_.rule_runs;
    Status st = eval_.ExecSteps(
        rule, rule.plan.free_plan.steps, 0, &theta, nullptr,
        [](Substitution*) {
          return Status::AlreadyExists(kWitnessMsg);
        });
    if (IsWitness(st)) return true;
    LPS_RETURN_IF_ERROR(st);
  }
  return false;
}

Status IncrementalMaintainer::Insert(const std::vector<FactOp>& inserts) {
  const Signature& sig = program_->signature();

  // Watermark every scanned predicate at its pre-batch size, then
  // append the net-new EDB rows: the first delta round joins exactly
  // the batch, later rounds exactly the previous round's derivations
  // (appends are contiguous, so range-mode deltas suffice here).
  std::unordered_map<PredicateId, size_t> mark;
  auto ensure_mark = [&](PredicateId pred) {
    if (!mark.count(pred)) mark[pred] = db_->RelationSize(pred);
  };
  for (const auto& rule : eval_.rules_) {
    for (size_t li : rule.plan.free_literals) {
      const Literal& lit = rule.clause->body[li];
      if (lit.positive && !sig.IsBuiltin(lit.pred)) ensure_mark(lit.pred);
    }
  }
  for (const FactOp& op : inserts) ensure_mark(op.pred);

  // An insert that lands on a tuple DRed tombstoned earlier *revives*
  // its original row, which sits below the watermark - range deltas
  // would silently miss it. Log every reviving insert (seed facts and
  // in-round derivations alike) and feed the rows back as explicit
  // rows-mode deltas each round.
  db_->EnableReviveLog();
  struct ReviveLogGuard {
    Database* db;
    ~ReviveLogGuard() { db->DisableReviveLog(); }
  } revive_guard{db_};

  size_t added = 0;
  for (const FactOp& op : inserts) {
    if (db_->AddTuple(op.pred, op.args)) {
      ++eval_.stats_.tuples_derived;
      ++added;
    }
  }
  if (added == 0) return Status::OK();

  for (;;) {
    if (++eval_.stats_.delta_rounds > eval_.options_.max_iterations) {
      return Status::ResourceExhausted("iteration limit exceeded");
    }
    uint64_t version_before = db_->version();
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> delta;
    for (auto& [pred, m] : mark) {
      size_t end = db_->RelationSize(pred);
      if (m < end) delta[pred] = {m, end};
      m = end;
    }
    // Below-watermark revives since the previous round (revived rows
    // never overlap the append ranges: no erase runs during Insert, so
    // every revived RowId predates the initial marks). Revives on
    // unscanned predicates are dropped, exactly like appends to them.
    std::unordered_map<PredicateId, std::vector<RowId>> revived;
    for (const Database::ReviveEvent& ev : db_->TakeReviveLog()) {
      if (mark.count(ev.pred)) revived[ev.pred].push_back(ev.row);
    }
    if (delta.empty() && revived.empty()) break;
    for (auto& rule : eval_.rules_) {
      auto emit_tuple = [&](const Tuple& out) -> Status {
        if (db_->AddTuple(rule.clause->head.pred, out)) {
          if (++eval_.stats_.tuples_derived > eval_.options_.max_tuples) {
            return Status::ResourceExhausted("tuple limit exceeded");
          }
        }
        return Status::OK();
      };
      const bool flat = FlatEligible(rule);
      for (size_t pos = 0; pos < rule.plan.free_literals.size(); ++pos) {
        size_t li = rule.plan.free_literals[pos];
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto it = delta.find(lit.pred);
        auto rv = revived.find(lit.pred);
        if (it == delta.end() && rv == revived.end()) continue;
        auto run_spec =
            [&](const BottomUpEvaluator::DeltaSpec& spec) -> Status {
          ++eval_.stats_.rule_runs;
          if (flat) {
            return FlatDeltaJoin(rule, DeltaSteps(rule, pos), spec,
                                 emit_tuple);
          }
          Substitution theta;
          return eval_.ExecSteps(
              rule, DeltaSteps(rule, pos), 0, &theta, &spec,
              [&](Substitution* t) { return eval_.EmitHead(rule, t); });
        };
        if (it != delta.end()) {
          LPS_RETURN_IF_ERROR(run_spec(BottomUpEvaluator::DeltaSpec{
              li, it->second.first, it->second.second}));
        }
        if (rv != revived.end()) {
          LPS_RETURN_IF_ERROR(run_spec(BottomUpEvaluator::DeltaSpec{
              li, 0, rv->second.size(), &rv->second}));
        }
      }
    }
    if (db_->version() == version_before) break;
  }
  return Status::OK();
}

}  // namespace lps
