#include "eval/incremental.h"

#include <bit>
#include <span>
#include <unordered_map>

#include "unify/unify.h"

namespace lps {

const BottomUpEvaluator::ExecPlan& IncrementalMaintainer::DeltaPlan(
    const BottomUpEvaluator::CompiledRule& rule, size_t pos) {
  const RulePlan& plan = rule.plan;
  if (pos < plan.delta_plans.size() &&
      !plan.delta_plans[pos].steps.empty()) {
    return rule.delta[pos];
  }
  return rule.free;
}

Status IncrementalMaintainer::RunDelta(
    const BottomUpEvaluator::CompiledRule& rule, size_t pos,
    const BottomUpEvaluator::DeltaSpec& spec,
    BottomUpEvaluator::Tail tail) {
  ++eval_.stats_.rule_runs;
  BottomUpEvaluator::ExecCtx& ctx = eval_.seq_ctx_;
  BottomUpEvaluator::ResetCtx(rule, tail, &spec, /*snapshot=*/false, &ctx);
  return eval_.Run(rule, DeltaPlan(rule, pos), &ctx);
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

namespace {

// Why `clause` keeps a program out of the maintainable fragment, or
// "". Deletion is only invertible rule-by-rule in the Horn fragment:
// negation and grouping are non-monotone (a deletion can create
// tuples), and quantified or enumerating rules observe whole domains
// rather than deltas; any of them forces a full re-fixpoint.
std::string ClauseIneligibility(const Clause& clause, bool horn_simple,
                                const Signature& sig) {
  if (!horn_simple) {
    return "rule outside the Horn fragment (quantifier, grouping, or "
           "domain enumeration): " +
           sig.Name(clause.head.pred);
  }
  for (const Literal& lit : clause.body) {
    if (!lit.positive) {
      return "negated body literal in rule for " +
             sig.Name(clause.head.pred);
    }
  }
  return "";
}

// One relation's casualties in a Retract: the over-deleted rows in
// discovery order with a RowId bitmap for membership, and the revived
// rows in revival order. Both passes consume their list as a frontier
// window, like semi-naive watermarks.
struct Casualties {
  std::vector<RowId> rows;
  std::vector<uint64_t> bits;  // sized to the relation on first use
  std::vector<RowId> revived;
  size_t condemned_done = 0;  // rows[0, condemned_done) joined already
  size_t revived_done = 0;    // revived[0, revived_done) propagated

  bool Has(RowId r) const {
    const size_t word = r >> 6;
    return word < bits.size() && ((bits[word] >> (r & 63)) & 1) != 0;
  }
  /// Sets r's bit; false when it was set already.
  bool Insert(RowId r, size_t relation_rows) {
    if (bits.empty()) bits.assign((relation_rows + 63) / 64, 0);
    uint64_t& word = bits[r >> 6];
    const uint64_t bit = uint64_t{1} << (r & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }
};

}  // namespace

Result<std::string> IncrementalMaintainer::IneligibleReason(
    const Program& program) {
  for (const Clause& c : program.clauses()) {
    LPS_ASSIGN_OR_RETURN(
        RulePlan plan,
        BuildRulePlan(*program.store(), program.signature(), c));
    std::string why = ClauseIneligibility(
        c, BottomUpEvaluator::HornSimple(c, plan), program.signature());
    if (!why.empty()) return why;
  }
  return std::string();
}

Result<bool> IncrementalMaintainer::Maintain(
    const std::vector<FactOp>& inserts,
    const std::vector<FactOp>& retracts, const FactCounts* edb_counts) {
  ineligible_reason_.clear();
  edb_counts_ = edb_counts;
  LPS_RETURN_IF_ERROR(eval_.CompileRules(/*witness_plans=*/true));
  const Signature& sig = program_->signature();
  for (const auto& rule : eval_.rules_) {
    ineligible_reason_ =
        ClauseIneligibility(*rule.clause, rule.horn_simple, sig);
    if (!ineligible_reason_.empty()) return false;
  }

  // Where each predicate feeds a delta join, and which rules derive it.
  uses_.assign(sig.size(), {});
  rules_by_head_.assign(sig.size(), {});
  for (const auto& rule : eval_.rules_) {
    rules_by_head_[rule.clause->head.pred].push_back(&rule);
    for (size_t pos = 0; pos < rule.plan.free_literals.size(); ++pos) {
      const size_t li = rule.plan.free_literals[pos];
      const Literal& lit = rule.clause->body[li];
      if (lit.positive && !sig.IsBuiltin(lit.pred)) {
        uses_[lit.pred].push_back({&rule, pos, li});
      }
    }
  }

  // Indexes first built by this batch's joins (say, a closure indexed
  // by its second column for a delta on the edge relation) serve
  // maintenance only; they stay in the session but out of snapshots.
  const std::vector<size_t> indexes_before = db_->IndexCounts();
  std::vector<RoundTrip> round_trips;
  LPS_RETURN_IF_ERROR(Retract(retracts, &round_trips));
  LPS_RETURN_IF_ERROR(Insert(inserts));
  db_->MarkIndexesSessionOnly(indexes_before);
  // A relation that got every casualty back and that the insert pass
  // left alone holds exactly its pre-batch content (on a clustered
  // closure, the common case): it takes back its pre-batch content
  // tick, so a copy-on-write republish shares it instead of cloning it
  // and the server keeps its side indexes.
  for (const RoundTrip& trip : round_trips) {
    const Relation* rel = db_->FindRelation(trip.pred);
    if (rel->size() == trip.rows && rel->dead_count() == trip.dead) {
      db_->RestoreContentTick(trip.pred, trip.tick);
    }
  }

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

Status IncrementalMaintainer::Retract(const std::vector<FactOp>& retracts,
                                      std::vector<RoundTrip>* round_trips) {
  EvalStats& stats = eval_.stats_;
  std::vector<Casualties> dead(program_->signature().size());
  std::vector<PredicateId> touched;  // with casualties, in first-casualty
                                     // order (body predicates come first)
  size_t total = 0;
  auto condemn = [&](PredicateId pred, RowId r) {
    Casualties& c = dead[pred];
    if (c.rows.empty()) touched.push_back(pred);
    if (!c.Insert(r, db_->RelationSize(pred))) return false;
    c.rows.push_back(r);
    ++total;
    return true;
  };
  for (const FactOp& op : retracts) {
    RowId r = db_->FindRow(op.pred, op.args);
    if (r != Relation::kNoRow) condemn(op.pred, r);  // absent: no-op
  }
  if (total == 0) return Status::OK();

  // Over-delete fixpoint (DRed phase 1): grow the set with every tuple
  // that has a derivation through an already-condemned one. All rows
  // stay live for the duration - the over-estimate deliberately joins
  // against the pre-batch database - so the condemned frontier is fed
  // to the scans as an explicit-rows delta.
  for (;;) {
    ++stats.delta_rounds;
    std::vector<std::pair<PredicateId, std::pair<size_t, size_t>>> frontier;
    for (PredicateId pred : touched) {
      Casualties& c = dead[pred];
      if (c.condemned_done == c.rows.size()) continue;
      frontier.push_back({pred, {c.condemned_done, c.rows.size()}});
      c.condemned_done = c.rows.size();
    }
    if (frontier.empty()) break;
    for (const auto& [pred, window] : frontier) {
      for (const DeltaUse& use : uses_[pred]) {
        const BottomUpEvaluator::DeltaSpec spec{use.literal, window.first,
                                                window.second,
                                                &dead[pred].rows};
        LPS_RETURN_IF_ERROR(RunDelta(*use.rule, use.pos, spec,
                                     BottomUpEvaluator::Tail::kCollect));
        // Condemn every derived head that is stored. Nothing is erased
        // before the phase boundary, so condemning after the join sees
        // the same database as condemning during it.
        const Literal& head = use.rule->clause->head;
        const BottomUpEvaluator::ExecCtx& ctx = eval_.seq_ctx_;
        const size_t arity = head.args.size();
        for (size_t k = 0; k < ctx.derived_rows; ++k) {
          RowId r = db_->FindRow(
              head.pred, TupleRef(ctx.derived.data() + k * arity, arity));
          if (r != Relation::kNoRow && condemn(head.pred, r)) {
            ++stats.tuples_derived;
          }
        }
      }
    }
  }
  stats.overdeleted_tuples += total;

  // Phase boundary: tombstone the whole over-deleted set at once, so
  // re-derivation sees exactly the surviving under-approximation.
  std::vector<RoundTrip> before;
  for (PredicateId pred : touched) {
    const Relation* rel = db_->FindRelation(pred);
    before.push_back(
        {pred, rel->content_tick(), rel->size(), rel->dead_count()});
    for (RowId r : dead[pred].rows) db_->EraseRow(pred, r);
  }

  // Re-derivation (DRed phase 2). Reviving keeps the arena row, so
  // RowIds stay stable and the bitmaps stay valid throughout.
  auto revive = [&](PredicateId pred, RowId r) {
    db_->ReviveRow(pred, r);
    dead[pred].revived.push_back(r);
    ++stats.rederived_tuples;
  };
  // Propagation: delta-join the revived rows not yet joined through
  // the rules and revive every derived head that is a still-dead
  // casualty, until no revival is left unjoined. A derived head was in
  // the pre-batch fixpoint (it is derived from live tuples, a subset
  // of it), so it is live or a casualty; the relation's dedup table,
  // which keeps tombstoned rows, maps it to its row.
  auto propagate = [&]() -> Status {
    for (;;) {
      bool joined = false;
      for (PredicateId pred : touched) {
        Casualties& c = dead[pred];
        if (c.revived_done == c.revived.size()) continue;
        joined = true;
        const size_t begin = c.revived_done;
        const size_t end = c.revived.size();
        c.revived_done = end;
        for (const DeltaUse& use : uses_[pred]) {
          const PredicateId head = use.rule->clause->head.pred;
          Casualties& heads = dead[head];
          if (heads.rows.empty()) continue;  // nothing there to revive
          const BottomUpEvaluator::DeltaSpec spec{use.literal, begin, end,
                                                  &c.revived};
          LPS_RETURN_IF_ERROR(RunDelta(*use.rule, use.pos, spec,
                                       BottomUpEvaluator::Tail::kCollect));
          const Relation* rel = db_->FindRelation(head);
          const BottomUpEvaluator::ExecCtx& ctx = eval_.seq_ctx_;
          const size_t arity = use.rule->clause->head.args.size();
          for (size_t k = 0; k < ctx.derived_rows; ++k) {
            RowId r = rel->FindStored(
                TupleRef(ctx.derived.data() + k * arity, arity));
            if (r != Relation::kNoRow && !rel->IsLive(r) && heads.Has(r)) {
              revive(head, r);
            }
          }
        }
      }
      if (!joined) return Status::OK();
      ++stats.delta_rounds;
    }
  };

  // EDB facts of the post-batch program revive unconditionally first.
  // With a borrowed fact-count index this is one probe per casualty of
  // a predicate that has facts; without one, one pass over the
  // program's facts probing the casualty bitmaps (the fact list is
  // usually far larger than the casualty list).
  if (edb_counts_ != nullptr) {
    Tuple args;
    for (PredicateId pred : touched) {
      auto pit = edb_counts_->find(pred);
      if (pit == edb_counts_->end()) continue;
      const Relation* rel = db_->FindRelation(pred);
      for (RowId r : dead[pred].rows) {
        if (rel->IsLive(r)) continue;
        TupleRef view = rel->row(r);
        args.assign(view.begin(), view.end());
        if (pit->second.count(args) > 0) revive(pred, r);
      }
    }
  } else {
    for (const Literal& f : program_->facts()) {
      if (f.pred >= dead.size() || dead[f.pred].rows.empty()) continue;
      const Relation* rel = db_->FindRelation(f.pred);
      RowId r = rel->FindStored(f.args);
      if (r != Relation::kNoRow && !rel->IsLive(r) && dead[f.pred].Has(r)) {
        revive(f.pred, r);
      }
    }
  }
  LPS_RETURN_IF_ERROR(propagate());

  // Then the witness sweep, interleaved with propagation: a casualty
  // still dead at its turn revives iff the current database derives it
  // (head-bound body search, first witness wins), and each revival is
  // propagated before the next casualty is looked at. A casualty whose
  // support comes back only later is revived by that propagation: the
  // last body tuple of its derivation to revive is joined as a delta
  // against the others, already live. The sweep walks each relation's
  // casualties in RowId order (its bitmap's bit order), which is the
  // order the fixpoint first derived them in: a tuple's original
  // support sits on earlier rows, so by its turn that support has had
  // its own chance to revive, and on a cluster the first few revivals
  // propagate to nearly all the rest.
  for (PredicateId pred : touched) {
    const auto& rules = rules_by_head_[pred];
    if (rules.empty()) continue;  // EDB only: revived above or gone
    const Relation* rel = db_->FindRelation(pred);
    const std::vector<uint64_t>& bits = dead[pred].bits;
    for (size_t word = 0; word < bits.size(); ++word) {
      for (uint64_t w = bits[word]; w != 0; w &= w - 1) {
        const RowId r =
            static_cast<RowId>(word * 64 + std::countr_zero(w));
        if (rel->IsLive(r)) continue;
        bool alive = false;
        for (const BottomUpEvaluator::CompiledRule* rule : rules) {
          ++stats.witness_searches;
          LPS_ASSIGN_OR_RETURN(alive, Witness(*rule, rel->row(r)));
          if (alive) break;
        }
        if (!alive) continue;
        revive(pred, r);
        LPS_RETURN_IF_ERROR(propagate());
      }
    }
  }
  for (const RoundTrip& trip : before) {
    const Casualties& c = dead[trip.pred];
    if (c.revived.size() == c.rows.size()) round_trips->push_back(trip);
  }
  return Status::OK();
}

Result<bool> IncrementalMaintainer::Witness(
    const BottomUpEvaluator::CompiledRule& rule, TupleRef t) {
  const Literal& head = rule.clause->head;
  if (head.args.size() != t.size()) return false;
  BottomUpEvaluator::ExecCtx& ctx = eval_.seq_ctx_;
  BottomUpEvaluator::ResetCtx(rule, BottomUpEvaluator::Tail::kWitness, nullptr,
                              /*snapshot=*/false, &ctx);
  auto search = [&]() -> Result<bool> {
    ++eval_.stats_.rule_runs;
    Status st = eval_.Run(rule, rule.witness, &ctx);
    if (ctx.found) return true;
    LPS_RETURN_IF_ERROR(st);
    return false;
  };
  // Bind the head against the target: constants and plain variables
  // directly (a repeated variable must see equal columns), complex head
  // terms through the Unifier, each unifier seeding one search.
  bool complex = false;
  for (size_t i = 0; i < t.size() && !complex; ++i) {
    const BottomUpEvaluator::SlotArg& a = rule.head_args[i];
    if (a.kind == BottomUpEvaluator::SlotArg::kConst) {
      if (a.term != t[i]) return false;
    } else if (a.kind == BottomUpEvaluator::SlotArg::kComplex) {
      complex = true;
    } else if (TermId cur = ctx.slots[a.slot]; cur == kInvalidTerm) {
      ctx.Bind(a.slot, t[i]);
    } else if (cur != t[i]) {
      return false;
    }
  }
  if (!complex) return search();
  ctx.Undo(0);
  Unifier unifier(program_->store(), eval_.options_.builtins.unify);
  std::vector<Substitution> unifiers;
  LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(
      std::span<const TermId>(head.args.data(), head.args.size()), t,
      &unifiers));
  for (const Substitution& u : unifiers) {
    ctx.Undo(0);
    BottomUpEvaluator::BindFrom(rule, u, &ctx);
    LPS_ASSIGN_OR_RETURN(bool found, search());
    if (found) return true;
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

  // The limit counts this pass's rounds only: delta_rounds already
  // holds the retract pass's (one per propagation round).
  for (size_t rounds = 1;; ++rounds) {
    ++eval_.stats_.delta_rounds;
    if (rounds > eval_.options_.max_iterations) {
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
      for (size_t pos = 0; pos < rule.plan.free_literals.size(); ++pos) {
        size_t li = rule.plan.free_literals[pos];
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto it = delta.find(lit.pred);
        if (it != delta.end()) {
          LPS_RETURN_IF_ERROR(RunDelta(
              rule, pos,
              BottomUpEvaluator::DeltaSpec{li, it->second.first,
                                           it->second.second},
              BottomUpEvaluator::Tail::kInsert));
        }
        auto rv = revived.find(lit.pred);
        if (rv != revived.end()) {
          LPS_RETURN_IF_ERROR(RunDelta(
              rule, pos,
              BottomUpEvaluator::DeltaSpec{li, 0, rv->second.size(),
                                           &rv->second},
              BottomUpEvaluator::Tail::kInsert));
        }
      }
    }
    if (db_->version() == version_before) break;
  }
  return Status::OK();
}

}  // namespace lps
