// Bottom-up fixpoint evaluation (Section 3.2): computes the least
// Herbrand model M_P = lfp(T_P) = T_P ^ omega (Theorem 5) restricted to
// the active domain, stratum by stratum when negation or grouping is
// present (Section 4.2 / 6.2).
//
// Two evaluation modes:
//  * naive        - every iteration re-derives from the full relations;
//  * semi-naive   - Horn-shaped rules use per-literal delta joins;
//                   quantified / enumerating / grouping rules re-run only
//                   when something they can observe changed.
// Both reach the same fixpoint; bench_fixpoint measures the gap.
//
// Restricted universal quantifiers are evaluated as relational division
// with first-element seeding, with a separate vacuous-truth branch for
// empty quantifier ranges (Definition 4; see DESIGN.md section 6).
#ifndef LPS_EVAL_BOTTOMUP_H_
#define LPS_EVAL_BOTTOMUP_H_

#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>

#include "base/worker_pool.h"
#include "eval/builtins.h"
#include "eval/database.h"
#include "eval/groupby.h"
#include "eval/plan.h"
#include "lang/program.h"
#include "transform/stratify.h"

namespace lps {

class IncrementalMaintainer;

struct EvalOptions {
  bool semi_naive = true;
  size_t max_iterations = 100000;
  size_t max_tuples = 2000000;
  /// Worker lanes for the sharded delta joins and grouping body
  /// scans: 1 = the exact sequential path (bit-identical results and
  /// stats), 0 = hardware concurrency, N > 1 = that many lanes. Only
  /// semi-naive evaluation parallelizes; naive mode always runs
  /// sequentially (grouping included).
  size_t threads = 1;
  /// Cost-based join ordering (eval/plan.h PlannerStats): body literals
  /// reorder by estimated bound-selectivity from relation statistics
  /// taken at rule-compile time. Off = the boundness-heuristic source
  /// order, byte-exact legacy plans (the debugging escape hatch).
  bool reorder = true;
  /// Cooperative evaluation deadline (steady clock); the default
  /// (epoch, i.e. time_point{}) means no deadline. Checked once per
  /// fixpoint iteration and every ~1k join steps, so evaluation
  /// returns a typed kDeadlineExceeded within a bounded overshoot
  /// instead of running to fixpoint. Set by the serve-path admission
  /// control (serve/server.h); deliberately NOT mirrored through
  /// api::Options - sessions own their evaluations, only the server
  /// imposes per-request budgets.
  std::chrono::steady_clock::time_point deadline{};
  BuiltinOptions builtins;
};

struct EvalStats {
  size_t strata = 0;
  size_t iterations = 0;
  size_t rule_runs = 0;
  size_t tuples_derived = 0;
  size_t combos_checked = 0;   // quantifier verification work
  size_t seed_joins = 0;       // division seedings performed
  size_t empty_branch_runs = 0;
  // ---- Parallel-phase counters (all 0 on the sequential path) --------
  size_t threads_used = 0;      // resolved lane count when parallel ran
  size_t parallel_tasks = 0;    // sharded delta chunks executed
  size_t parallel_tuples = 0;   // tuples buffered by workers (pre-merge)
  size_t snapshot_fallbacks = 0;  // probes that missed a prebuilt index
  // ---- Cost-based join planning (eval/plan.h; DESIGN.md section 17) --
  size_t plan_reorders = 0;   // plans whose cost order differs from the
                              // boundness-heuristic order
  double plan_estimated_tuples = 0;  // summed per-rule output estimates
                                     // (compare against tuples_derived
                                     // for the estimate error)
  size_t subsumption_hits = 0;  // 1 when this demand execution was
                                // answered from a cached broader-mask
                                // result (api/query.cc), else 0
  // ---- Storage-engine footprint at fixpoint (eval/relation.h) --------
  size_t arena_bytes = 0;       // row arenas across all relations
  size_t index_bytes = 0;       // dedup tables + per-mask indexes
  uint64_t dedup_probes = 0;    // insert-side open-addressing probes
  // ---- Grouping (Definition 14) and set interning ---------------------
  size_t groups_emitted = 0;    // group tuples produced by grouping rules
  size_t group_elements = 0;    // elements accumulated pre-dedup
  size_t set_interns = 0;       // canonical-set intern requests this run
  size_t set_intern_hits = 0;   // requests satisfied by the intern table
  // ---- Demand (magic-set) evaluation, filled by the api layer when a
  // prepared query executes goal-directed (transform/magic.h). All
  // zero/empty after a plain full-fixpoint Evaluate(). ------------------
  size_t magic_predicates = 0;  // magic predicates in the rewrite
  size_t magic_tuples = 0;      // demand tuples derived into them
  // Why the last demand-mode execution fell back to the full fixpoint;
  // empty when the rewrite applied (or demand was never attempted).
  std::string demand_fallback_reason;
  // ---- Incremental maintenance (eval/incremental.h), filled when a
  // mutation batch commits through the delta path; all zero after a
  // plain full-fixpoint Evaluate(). -------------------------------------
  size_t delta_rounds = 0;        // semi-naive rounds seeded from the batch
  size_t overdeleted_tuples = 0;  // tuples tombstoned by DRed over-delete
  size_t rederived_tuples = 0;    // over-deleted tuples saved by rederive
  size_t compactions = 0;         // relations rebuilt from their live rows
                                  // after the batch (tombstones > half
                                  // the live rows)
  // ---- Bulk ingestion (api/ingest.cc), filled by the last
  // Session::LoadFactsParallel; all zero otherwise. Unlike the rest of
  // EvalStats this block survives later evaluations and mutation
  // commits - it always describes the most recent bulk load. ------------
  struct IngestStats {
    size_t lanes = 0;           // parser lanes the load actually used
    size_t chunks = 0;          // newline-aligned chunks parsed
    size_t facts_parsed = 0;    // fact literals produced by the lanes
    size_t facts_inserted = 0;  // net-new rows after dedup in the merge
    size_t scratch_terms = 0;   // terms interned across lane scratches
    size_t remap_hits = 0;      // fact arguments already session-valid
                                // (prefix-stable Clone: no re-intern)
    size_t presize_rehashes_avoided = 0;  // dedup doublings skipped by
                                          // Relation::Reserve presizing
    double parse_ms = 0;  // wall time of the parallel parse phase
    double merge_ms = 0;  // wall time of the merge (intern/translate/
                          // insert passes together)
  };
  IngestStats ingest;
};

class BottomUpEvaluator {
 public:
  /// `program` and `db` must outlive the evaluator. Facts are loaded
  /// into `db` by Evaluate().
  BottomUpEvaluator(const Program* program, Database* db,
                    EvalOptions options = {});

  /// Runs to fixpoint. Repeatable: already-present tuples are kept.
  Status Evaluate();

  const EvalStats& stats() const { return stats_; }

 private:
  // The incremental maintainer (eval/incremental.h) reuses the compiled
  // rules and the delta-driven join machinery (RunRule + DeltaSpec) to
  // re-converge after a mutation batch without a from-scratch fixpoint.
  friend class IncrementalMaintainer;

  struct CompiledRule {
    const Clause* clause = nullptr;
    RulePlan plan;
    bool horn_simple = false;   // eligible for delta joins
    // Flat fragment: only kScan / kNegated-on-user-predicate steps and
    // every literal and head argument is ground or a plain variable
    // (ground set and function terms included - Substitution::Apply
    // short-circuits on ground terms, so set-carrying EDB scans shard
    // like any other flat rule). Executing such a rule provably never
    // interns new terms or touches the database's mutable state, so its
    // delta joins can be sharded across worker threads against a frozen
    // snapshot.
    bool parallel_safe = false;
    // Grouping rules in the same flat fragment (no quantifiers, flat
    // key and body args): the grouping body scan can be sharded, with
    // per-task (key, element) buffers merged in deterministic task
    // order into the group accumulator.
    bool group_parallel_safe = false;
    // For parallel_safe rules: the bound-column mask of each free_plan
    // step (meaningful for kScan steps only). Static because boundness
    // at any plan position is determined by the plan alone.
    std::vector<uint32_t> scan_masks;
    std::vector<size_t> in_stratum_literals;  // positive user literals on
                                              // same-stratum predicates
    uint64_t last_version = UINT64_MAX;       // for complex-rule gating
  };

  // Delta restriction for one scan literal. Range mode (rows ==
  // nullptr) restricts the scan to arena rows [begin, end) - the
  // contiguous semi-naive watermark window. Rows mode (rows != nullptr)
  // restricts it to the explicit RowIds rows[begin..end), which sit at
  // arbitrary arena positions - incremental maintenance's deltas
  // (over-deleted or re-inserted rows) are not contiguous. Rows-mode
  // scans skip the index probe and re-check every bound column per row.
  struct DeltaSpec {
    size_t literal_index;
    size_t begin;
    size_t end;
    const std::vector<RowId>* rows = nullptr;
  };

  // One sharded unit of parallel work: a chunk of a rule's delta range.
  struct ParallelTask {
    const CompiledRule* rule;
    DeltaSpec spec;
  };

  // Per-task worker state: derived tuples buffered for the merge, a
  // per-depth scratch pool for snapshot probes, and local counters.
  struct FlatResult {
    std::vector<std::pair<PredicateId, Tuple>> derived;
    // Grouping-mode buffers (FlatCtx::group != nullptr): pair i is the
    // key span at [i * key_width, (i + 1) * key_width) in group_keys
    // plus group_elems[i]. Flat so a task's accumulation allocates
    // nothing per body row.
    std::vector<TermId> group_keys;
    std::vector<TermId> group_elems;
    Status status;
    size_t snapshot_fallbacks = 0;
  };
  // Trail-based variable bindings for the flat fragment: flat rules
  // bind only plain variables, so a small undo stack with linear
  // lookup replaces the per-row Substitution (hash map) copies that
  // used to dominate the flat executor's allocation profile.
  struct FlatBindings {
    std::vector<std::pair<TermId, TermId>> binds;
    size_t Mark() const { return binds.size(); }
    void Undo(size_t mark) { binds.resize(mark); }
    void Bind(TermId var, TermId value) { binds.emplace_back(var, value); }
    TermId Apply(const TermStore& store, TermId term) const {
      if (store.node(term).kind != TermKind::kVariable) return term;
      for (auto it = binds.rbegin(); it != binds.rend(); ++it) {
        if (it->first == term) return it->second;
      }
      return term;
    }
  };
  struct FlatCtx {
    FlatResult* result;
    // Non-null: grouping accumulation - the tail buffers (key, element)
    // pairs instead of head tuples.
    const GroupSpec* group = nullptr;
    FlatBindings binds;
    std::vector<std::vector<uint32_t>> scratch;  // probe hits, per depth
    std::vector<Tuple> patterns;                 // scan patterns, per depth
    std::vector<Tuple> keys;                     // probe keys, per depth
    Tuple out;                                   // head-emission scratch
    // Task-local dedup (a task derives for exactly one head predicate):
    // keeps `derived` and the max_tuples check counting distinct
    // tuples, not join multiplicity.
    std::unordered_set<Tuple, TupleHash> emitted;
    // Per-task cooperative deadline countdown (CheckDeadline). Lives
    // here rather than on the evaluator because ExecFlatSteps is const
    // and runs concurrently on worker lanes - a shared counter would
    // be a data race.
    uint32_t deadline_tick = 0;

    void SizeToPlan(size_t depth) {
      scratch.resize(depth);
      patterns.resize(depth);
      keys.resize(depth);
    }
  };

  /// (Re)compiles every clause into rules_: plans, horn/flat analysis,
  /// static scan masks. Shared by Evaluate() and the incremental
  /// maintainer, which drives RunRule with hand-built DeltaSpecs.
  Status CompileRules();

  Status EvaluateStratum(const std::vector<size_t>& clause_indices,
                         const Stratification& strat, size_t stratum);
  Status RunRule(CompiledRule* rule, const DeltaSpec* delta);
  Status RunGroupingRule(CompiledRule* rule);
  /// Shards the grouping body scan of a flat grouping rule across the
  /// pool and merges per-task (key, element) buffers into group_acc_ in
  /// task order. Returns false (without touching group_acc_) when the
  /// rule is better run sequentially (no scan step / tiny relation).
  Result<bool> RunGroupingParallel(CompiledRule* rule);
  Status RunEmptyBranch(CompiledRule* rule);

  /// Decides parallel-safety and precomputes static scan masks.
  void AnalyzeRuleForParallel(CompiledRule* rule) const;

  /// Phase A of a parallel iteration: shards every parallel-safe rule's
  /// delta range across the pool, runs the chunks against the frozen
  /// database, then merges the buffered derivations in deterministic
  /// task order.
  Status RunParallelDeltaPhase(
      const std::vector<size_t>& clause_indices,
      const std::unordered_map<PredicateId, std::pair<size_t, size_t>>&
          delta);

  /// Read-only flat-rule interpreter used by workers (and, for flat
  /// grouping rules, by the coordinator). Must not touch the term
  /// store, database, stats_, or any other shared mutable state (the
  /// database is frozen for the duration of the phase). Bindings live
  /// in ctx->binds (trail-based, undone on backtrack).
  Status ExecFlatSteps(const CompiledRule& rule, size_t idx,
                       const DeltaSpec& delta, FlatCtx* ctx) const;

  // Executes plan steps [idx..) extending theta; calls cont on success.
  Status ExecSteps(const CompiledRule& rule,
                   const std::vector<PlanStep>& steps, size_t idx,
                   Substitution* theta, const DeltaSpec* delta,
                   const std::function<Status(Substitution*)>& cont);

  Status HandleQuantifiers(const CompiledRule& rule, Substitution* theta,
                           const std::function<Status(Substitution*)>& cont);

  // True if the (ground) literal holds in the current database.
  Result<bool> LiteralHolds(const Literal& lit, const Substitution& theta);

  Status EmitHead(const CompiledRule& rule, Substitution* theta);

  /// Cooperative deadline probe: reads the clock only on every 1024th
  /// call (counted through *tick, which the caller owns - a member for
  /// the sequential path, FlatCtx::deadline_tick per worker task), so
  /// the per-step cost is one branch and an increment. Returns
  /// kDeadlineExceeded once options_.deadline has passed, OK before
  /// (and always OK when no deadline is set).
  Status CheckDeadline(uint32_t* tick) const;

  const Program* program_;
  Database* db_;
  EvalOptions options_;
  EvalStats stats_;
  uint32_t deadline_tick_ = 0;  // CheckDeadline countdown, sequential path

  // Recycled scratch buffers for the sequential join loop: ExecSteps
  // frames lease a buffer on entry and return it on exit, so steady-
  // state scans allocate nothing per row (see Lease in bottomup.cc).
  std::vector<Tuple> tuple_pool_;
  std::vector<std::vector<RowId>> rowid_pool_;

  // Non-null iff the resolved thread count is > 1 and semi-naive mode
  // is on; reused across iterations and strata.
  std::unique_ptr<WorkerPool> pool_;

  std::vector<CompiledRule> rules_;
  // Arena-backed accumulator for the grouping rule being run, plus the
  // reusable set builder that canonicalizes each group's element
  // stream at emission; both reach allocation-free steady state across
  // rule runs (eval/groupby.h, term/term.h).
  GroupAccumulator group_acc_;
  SetBuilder set_builder_;
};

/// Convenience: load facts, stratify, evaluate; returns stats.
Result<EvalStats> EvaluateProgram(const Program& program, Database* db,
                                  EvalOptions options = {});

}  // namespace lps

#endif  // LPS_EVAL_BOTTOMUP_H_
