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

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/worker_pool.h"
#include "eval/builtins.h"
#include "eval/database.h"
#include "eval/groupby.h"
#include "eval/plan.h"
#include "lang/program.h"
#include "term/substitution.h"
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
  BuiltinOptions builtins;
};

/// How a MutationBatch commit on an evaluated session re-converged.
enum class CommitRoute : uint8_t {
  kNone,         // no commit since the last Evaluate()
  kIncremental,  // delta rules (eval/incremental.h)
  kFull,         // from-scratch re-evaluation
};

/// "none", "incremental" or "full".
const char* CommitRouteName(CommitRoute route);

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
  size_t witness_searches = 0;    // head-bound rederive searches (DRed
                                  // revives the other casualties by
                                  // propagating revivals)
  // How the last MutationBatch commit re-converged the database, and
  // why it fell back when it took the full route (the maintainer's
  // ineligible_reason(), or that Options::incremental is off). kNone
  // after a plain Evaluate().
  CommitRoute commit_route = CommitRoute::kNone;
  std::string commit_fallback_reason;
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
  // rules and the join executor (Run + DeltaSpec) to re-converge after a
  // mutation batch without a from-scratch fixpoint.
  friend class IncrementalMaintainer;

  // ---- The slot-compiled join executor (DESIGN.md section 6) ---------
  //
  // CompileRules numbers every variable of a rule densely; bindings are
  // then a TermId array indexed by slot (kInvalidTerm = unbound) with an
  // undo trail, and every argument is pre-classified so the join reads a
  // constant or a slot without touching a hash map. One executor (Exec)
  // runs every plan of every rule: the sequential fixpoint, the parallel
  // delta shards, grouping bodies, quantifier seeding and the incremental
  // maintainer's passes. What happens to a complete body is selected by
  // the context's Tail, not by a continuation.

  /// How a rule argument is read from the slots.
  struct SlotArg {
    enum Kind : uint8_t {
      kConst,    // ground term (set and function constants included)
      kSlot,     // plain variable: slots[slot]
      kComplex,  // non-ground set or function term: instantiated through
                 // Substitution::Apply, the only place it interns
    };
    Kind kind = kConst;
    uint32_t slot = 0;
    TermId term = kInvalidTerm;  // the constant, variable or term itself
  };

  /// A plan step compiled against the rule's slots.
  struct ExecStep {
    StepKind kind;
    uint32_t literal = 0;  // body literal (scan / builtin / negated)
    uint32_t slot = 0;     // enumeration steps: the variable's slot
    // Scan steps: the bound-column mask, fixed at compile time unless a
    // builtin or a complex unification earlier in the plan makes
    // boundness data-dependent (then `dynamic_mask`, and the mask is
    // read off the slots per execution).
    uint32_t mask = 0;
    bool dynamic_mask = false;
  };

  /// What a plan does when its last step has matched.
  enum class PlanEnd : uint8_t {
    kTail,        // hand the bindings to the context's Tail
    kQuantify,    // verify the rule's forall quantifiers, then the Tail
    kSeed,        // division seeding: collect a seed-variable candidate
    kEmptyRange,  // empty-range branch (Definition 4): some range empty?
  };

  struct ExecPlan {
    std::vector<ExecStep> steps;
    uint32_t base = 0;  // offset of steps[0] in ExecCtx's per-step scratch
    PlanEnd end = PlanEnd::kTail;
  };

  struct CompiledRule {
    const Clause* clause = nullptr;
    RulePlan plan;
    bool horn_simple = false;   // eligible for delta joins
    // Flat fragment: only kScan / kNegated-on-user-predicate steps and
    // every literal and head argument is a constant or a plain variable
    // (ground set and function terms are constants). Executing such a
    // rule provably never interns new terms or touches the database's
    // mutable state, so its delta joins can be sharded across worker
    // threads against a frozen snapshot.
    bool parallel_safe = false;
    // Grouping rules in the same flat fragment (no quantifiers, flat
    // key and body args): the grouping body scan can be sharded, with
    // per-task (key, element) buffers merged in deterministic task
    // order into the group accumulator.
    bool group_parallel_safe = false;
    std::vector<size_t> in_stratum_literals;  // positive user literals on
                                              // same-stratum predicates
    uint64_t last_version = UINT64_MAX;       // for complex-rule gating

    // Slot compilation (CompileSlots).
    std::vector<TermId> slot_vars;  // slot -> variable
    std::unordered_map<TermId, uint32_t> slot_of;  // variable -> slot
    std::vector<std::vector<SlotArg>> body_args;   // per body literal
    std::vector<SlotArg> head_args;
    std::vector<SlotArg> range_args;  // per quantifier
    std::vector<uint32_t> qvar_slots;  // per quantifier
    std::vector<uint32_t> seed_slots;  // plan.seed_vars
    SlotArg grouped;                   // grouping rules: the grouped var
    ExecPlan free;                     // plan.free_plan
    std::vector<ExecPlan> delta;       // plan.delta_plans (may be empty)
    ExecPlan seed;                     // plan.seed_plan
    ExecPlan empty_branch;             // plan.empty_branch_plan
    // Horn rules compiled for the incremental maintainer: the body
    // planned with the head bound, for its rederive searches
    // (witness_plan empty otherwise).
    BodyPlan witness_plan;
    ExecPlan witness;
    uint32_t num_steps = 0;  // total steps over all compiled plans
  };

  // Delta restriction for one scan literal. Range mode (rows ==
  // nullptr) restricts the scan to arena rows [begin, end) - the
  // contiguous semi-naive watermark window. Rows mode (rows != nullptr)
  // restricts it to the explicit RowIds rows[begin..end), which sit at
  // arbitrary arena positions - incremental maintenance's deltas
  // (over-deleted or re-inserted rows) are not contiguous. Rows-mode
  // scans skip the index probe, re-check every column per row, and
  // take the rows as given, tombstoned or not.
  struct DeltaSpec {
    size_t literal_index;
    size_t begin;
    size_t end;
    const std::vector<RowId>* rows = nullptr;
  };

  /// What the executor does with each complete body.
  enum class Tail : uint8_t {
    kInsert,   // add the head to the database (sequential fixpoint,
               // empty-range branch, incremental insert)
    kBuffer,   // parallel shard: buffer heads the frozen database lacks
    kGroup,    // grouping: accumulate (key, grouped value)
    kCollect,  // buffer every head (incremental over-delete/propagate)
    kWitness,  // stop at the first complete body (incremental rederive)
  };

  /// Executor state for one run: the slot bindings and their trail,
  /// per-step scratch, and the Tail's buffers. The sequential path
  /// reuses one context; each parallel lane has its own (cache-line
  /// aligned: lanes write their contexts on every step).
  struct alignas(64) ExecCtx {
    Tail tail = Tail::kInsert;
    // Frozen database (parallel phases): scans use LookupSnapshot and
    // nothing shared is mutated, so any number of lanes may run.
    bool snapshot = false;
    const DeltaSpec* delta = nullptr;
    GroupAccumulator* group = nullptr;  // kGroup: accumulate here, or
                                        // into group_keys/elems if null
    std::vector<TermId> slots;
    std::vector<std::pair<uint32_t, TermId>> trail;  // (slot, old value)
    std::vector<std::vector<RowId>> hits;            // per step
    std::vector<Tuple> keys;                         // per step
    std::vector<std::vector<Substitution>> unifiers;  // per step
    Tuple out;                 // head / literal argument scratch
    Substitution sub;          // complex-term instantiation scratch
    // kBuffer: the distinct heads the frozen database lacks, in first
    // derivation order (the accumulator's key arena; a task derives for
    // one head predicate), so the buffer and the max_tuples check count
    // distinct tuples, not join multiplicity.
    GroupAccumulator* heads = nullptr;
    // kCollect: every head, flat.
    std::vector<TermId> derived;
    size_t derived_rows = 0;
    std::vector<TermId> group_keys;   // kGroup without `group`: pair i is
    std::vector<TermId> group_elems;  // the key span i plus elems[i]
    size_t snapshot_fallbacks = 0;
    bool found = false;  // kWitness
    // Quantifier scratch (sequential only; quantifier handling never
    // nests).
    std::vector<TermId> q_elems;   // every range's elements, flat
    std::vector<size_t> q_begin;   // range q is q_elems[q_begin[q]..[q+1])
    std::vector<size_t> q_idx;
    std::vector<TermId> seen;      // seed candidates, flat
    size_t q_mark = 0;             // trail mark before seeding
    std::vector<std::pair<uint32_t, TermId>> saved_trail;
    std::vector<TermId> saved_vals;

    void Bind(uint32_t s, TermId v) {
      trail.emplace_back(s, slots[s]);
      slots[s] = v;
    }
    void Undo(size_t mark) {
      while (trail.size() > mark) {
        slots[trail.back().first] = trail.back().second;
        trail.pop_back();
      }
    }
  };

  // One unit of delta work for the parallel phase: a rule's delta (or
  // a chunk of it).
  struct ParallelTask {
    const CompiledRule* rule;
    DeltaSpec spec;
  };
  // A parallel task's output, moved out of its lane's context for the
  // merge (cache-line aligned: neighbouring tasks run on other lanes).
  struct alignas(64) TaskResult {
    Status status;
    GroupAccumulator heads;  // kBuffer tasks write here directly
    std::vector<TermId> group_keys;
    std::vector<TermId> group_elems;
    size_t snapshot_fallbacks = 0;
    void TakeFrom(ExecCtx* ctx) {
      group_keys.swap(ctx->group_keys);
      group_elems.swap(ctx->group_elems);
      snapshot_fallbacks = ctx->snapshot_fallbacks;
    }
  };

  /// (Re)compiles every clause into rules_: plans, slots, horn/flat
  /// analysis. Shared by Evaluate() and the incremental maintainer,
  /// which alone asks for `witness_plans` (each Horn rule's body planned
  /// with the head bound, for its rederive searches).
  Status CompileRules(bool witness_plans = false);
  /// CompiledRule::horn_simple: no quantifiers, no grouping head and no
  /// domain-enumeration step, so delta joins cover the rule.
  static bool HornSimple(const Clause& clause, const RulePlan& plan);
  void CompileSlots(CompiledRule* rule) const;

  Status EvaluateStratum(const std::vector<size_t>& clause_indices,
                         const Stratification& strat, size_t stratum);
  /// Sequential run of the free plan (restricted by `delta` when set)
  /// inserting straight into the database.
  Status RunRule(CompiledRule* rule, const DeltaSpec* delta);
  Status RunGroupingRule(CompiledRule* rule);
  /// Runs a flat grouping rule across the pool: tasks shard the body
  /// scan into per-task (key, element) buffers, then every lane
  /// accumulates and canonicalizes the groups whose key hashes to it,
  /// and this thread interns and emits them in first-witness order.
  /// Returns false (having done nothing) when the rule is better run
  /// inline (no pool / no scan step / tiny relation).
  Result<bool> RunGroupingParallel(CompiledRule* rule);
  /// Inserts the group tuple: `key` with `set` at the grouped position.
  Status EmitGroup(const CompiledRule& rule, TupleRef key, TermId set);
  Status RunEmptyBranch(CompiledRule* rule);

  /// Builds every index `rule`'s free-plan scans probe, so snapshot
  /// probes during a parallel phase never fall back to scanning.
  void EnsureScanIndexes(const CompiledRule& rule);

  /// Decides parallel-safety from the compiled slots.
  void AnalyzeRuleForParallel(CompiledRule* rule) const;

  /// Phase A of a parallel iteration: runs every parallel-safe rule's
  /// delta joins in chunks. A phase whose delta is large enough to pay
  /// for a fork runs them across the pool against the frozen database
  /// into task buffers, merged in deterministic task order; a smaller
  /// one runs them in order on this thread, inserting directly, when
  /// that provably derives the same tuples in the same order (and forks
  /// otherwise).
  Status RunParallelDeltaPhase(
      const std::vector<size_t>& clause_indices,
      const std::unordered_map<PredicateId, std::pair<size_t, size_t>>&
          delta);

  /// Resets `ctx` for a run of `rule` (all slots unbound).
  static void ResetCtx(const CompiledRule& rule, Tail tail,
                       const DeltaSpec* delta, bool snapshot,
                       ExecCtx* ctx);

  /// Runs `plan` from step 0 with ctx's current bindings.
  Status Run(const CompiledRule& rule, const ExecPlan& plan, ExecCtx* ctx) {
    return Exec(rule, plan, 0, ctx);
  }

  /// The executor: matches plan.steps[i..] and, past the last step,
  /// acts on plan.end. In snapshot mode it reads only frozen state and
  /// writes only ctx, so lanes can run it concurrently.
  Status Exec(const CompiledRule& rule, const ExecPlan& plan, size_t i,
              ExecCtx* ctx);
  Status ExecScan(const CompiledRule& rule, const ExecPlan& plan, size_t i,
                  ExecCtx* ctx);
  /// Binds the unmasked columns of `row` against literal `args`, then
  /// continues with step i + 1 (through the Unifier when a column is a
  /// complex term); undoes its bindings before returning.
  Status MatchRow(const CompiledRule& rule, const ExecPlan& plan, size_t i,
                  TupleRef row, uint32_t mask, ExecCtx* ctx);
  Status Quantify(const CompiledRule& rule, ExecCtx* ctx);
  Status SeedCandidate(const CompiledRule& rule, ExecCtx* ctx);
  Result<bool> VerifyAll(const CompiledRule& rule, ExecCtx* ctx);
  Status EmptyRange(const CompiledRule& rule, ExecCtx* ctx);
  Status RunTail(const CompiledRule& rule, ExecCtx* ctx);

  /// Current value of `arg`: the constant, the slot's value (the
  /// variable itself when unbound), or the instantiated complex term.
  TermId Resolve(const CompiledRule& rule, const SlotArg& arg,
                 ExecCtx* ctx) const {
    switch (arg.kind) {
      case SlotArg::kConst:
        return arg.term;
      case SlotArg::kSlot: {
        TermId v = ctx->slots[arg.slot];
        return v == kInvalidTerm ? arg.term : v;
      }
      case SlotArg::kComplex:
        break;
    }
    return Instantiate(rule, arg.term, ctx);
  }
  /// Applies the bound slots to `term` (Substitution at the boundary).
  TermId Instantiate(const CompiledRule& rule, TermId term,
                     ExecCtx* ctx) const;
  /// Copies a Unifier / EvalBuiltin result into the slots (trailed).
  static void BindFrom(const CompiledRule& rule, const Substitution& ext,
                       ExecCtx* ctx);
  /// ctx->out := the ground head (SafetyError if a head arg is unbound).
  Status BuildHead(const CompiledRule& rule, ExecCtx* ctx) const;
  /// True if ground body literal `li` holds (user relation or builtin).
  Result<bool> Holds(const CompiledRule& rule, size_t li, ExecCtx* ctx);

  const Program* program_;
  Database* db_;
  EvalOptions options_;
  EvalStats stats_;
  ExecCtx seq_ctx_;  // the sequential path's reusable context

  // Non-null iff the resolved thread count is > 1 and semi-naive mode
  // is on; reused across iterations and strata.
  std::unique_ptr<WorkerPool> pool_;
  std::vector<ExecCtx> lane_ctx_;  // one per pool lane

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
