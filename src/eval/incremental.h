// Incremental view maintenance (DESIGN.md section 16): re-converges an
// already-evaluated database after a batch of EDB fact mutations
// without a from-scratch fixpoint.
//
//  * Inserts run a delta semi-naive pass seeded from only the new EDB
//    rows, reusing the evaluator's delta-join machinery over the live
//    arena: per-predicate watermarks are taken at the pre-batch
//    relation sizes, so the first round joins exactly the batch.
//  * Retracts run delete-rederive (DRed): an over-delete fixpoint
//    tombstones every tuple with a derivation through a retracted one
//    (explicit-rows delta joins against the still-intact pre-batch
//    database); re-derivation then revives each casualty that still
//    has a derivation. It interleaves two moves: a casualty that is
//    still dead when its turn comes gets one head-bound witness search
//    against the surviving database, and every revival - by witness or
//    as a surviving EDB fact - is propagated through the delta rules
//    before the next casualty is looked at. The fragment is positive
//    Horn, so re-derivation is a monotone fixpoint: a derivation whose
//    body comes back piece by piece fires when its last piece revives,
//    exactly as in semi-naive evaluation, and needs no stratification.
//    On a strongly connected cluster almost every casualty is revived
//    by propagation, so the pass costs a few delta joins per casualty
//    rather than a body search each. Casualties are tracked in
//    per-relation RowId bitmaps, and a re-derived head finds its
//    tombstoned row through the relation's own dedup table (which
//    keeps dead rows), so the pass allocates nothing per casualty.
//
// The result is tuple-for-tuple identical to re-evaluating the mutated
// program from scratch (Database::ToCanonicalString equality; arena
// insertion order legitimately differs). Only the Horn fragment is
// maintained this way - negation, grouping, quantifiers, and domain
// enumeration are non-monotone under deletion (and grouping even under
// insertion), so Maintain() declines and the caller falls back to a
// full re-evaluation.
#ifndef LPS_EVAL_INCREMENTAL_H_
#define LPS_EVAL_INCREMENTAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "eval/bottomup.h"

namespace lps {

class IncrementalMaintainer {
 public:
  /// `program` and `db` must outlive the maintainer. Preconditions for
  /// Maintain(): `program` already reflects the batch (retracted facts
  /// removed, inserted facts appended), and `db` holds the converged
  /// fixpoint of the pre-batch program.
  IncrementalMaintainer(const Program* program, Database* db,
                        EvalOptions options = {});

  /// One mutation, as a ground tuple over program->store().
  struct FactOp {
    PredicateId pred;
    Tuple args;
  };

  /// Multiset of the post-batch program's facts: (pred, args) ->
  /// physical copy count. Session keeps one as a persistent index;
  /// Maintain() can borrow it to answer "is this condemned tuple still
  /// an EDB fact" per casualty instead of scanning the whole fact list.
  using FactCounts =
      std::unordered_map<PredicateId,
                         std::unordered_map<Tuple, size_t, TupleHash>>;

  /// Applies the batch: retracts (DRed) first, then inserts (delta
  /// semi-naive). Returns true when the database was incrementally
  /// re-converged; false when the program is outside the maintainable
  /// fragment (see ineligible_reason()), in which case the database is
  /// untouched and the caller must re-evaluate from scratch. Errors
  /// propagate from rule execution (safety violations, tuple limits).
  /// `edb_counts`, when given, must describe exactly the post-batch
  /// program's fact multiset and must outlive the call; DRed's
  /// EDB-protection pass then costs O(casualties) instead of O(facts).
  Result<bool> Maintain(const std::vector<FactOp>& inserts,
                        const std::vector<FactOp>& retracts,
                        const FactCounts* edb_counts = nullptr);

  /// Why `program` is outside the maintainable fragment, or "" when
  /// every rule is positive Horn without quantifiers, grouping or
  /// domain enumeration. Depends only on the rules, so callers decide
  /// once per rule set (Session caches it per rule epoch) instead of
  /// compiling the program on every commit only to decline it.
  static Result<std::string> IneligibleReason(const Program& program);

  /// Why the last Maintain() returned false; empty when it ran.
  const std::string& ineligible_reason() const {
    return ineligible_reason_;
  }

  /// Work counters: delta_rounds / overdeleted_tuples /
  /// rederived_tuples / witness_searches, plus the usual rule-run and
  /// storage numbers.
  const EvalStats& stats() const { return eval_.stats(); }

 private:
  /// A relation's state before a Retract erased its casualties.
  struct RoundTrip {
    PredicateId pred;
    uint64_t tick;  // Relation::content_tick()
    size_t rows;    // Relation::size()
    size_t dead;    // Relation::dead_count()
  };

  /// DRed. Appends to `round_trips` the pre-erase state of every
  /// relation whose casualties all revived.
  Status Retract(const std::vector<FactOp>& retracts,
                 std::vector<RoundTrip>* round_trips);
  Status Insert(const std::vector<FactOp>& inserts);

  /// The plan for joining a delta on `rule`'s free_literals[pos]: the
  /// planner's delta-first variant when built (always, for the Horn
  /// fragment the maintainer accepts), else the general free plan.
  /// Leading with the delta literal keeps a maintenance round's cost
  /// proportional to the delta, not to the largest body relation.
  static const BottomUpEvaluator::ExecPlan& DeltaPlan(
      const BottomUpEvaluator::CompiledRule& rule, size_t pos);

  /// Runs `rule`'s delta plan for free_literals[pos] on the evaluator's
  /// join executor, restricted by `spec`: kInsert adds the derived
  /// heads, kCollect leaves them in the executor context's buffer.
  Status RunDelta(const BottomUpEvaluator::CompiledRule& rule, size_t pos,
                  const BottomUpEvaluator::DeltaSpec& spec,
                  BottomUpEvaluator::Tail tail);

  /// True when some instance of `rule` derives exactly the tuple `t`
  /// from the current (live) database: binds the head to `t` and runs
  /// the body head-bound, stopping at the first witness. `t` may view
  /// a stored row: nothing is inserted while the search runs.
  Result<bool> Witness(const BottomUpEvaluator::CompiledRule& rule,
                       TupleRef t);

  /// A positive user literal of a rule, where a delta on its
  /// predicate enters the rule: free_literals[pos] == literal.
  struct DeltaUse {
    const BottomUpEvaluator::CompiledRule* rule;
    size_t pos;
    size_t literal;
  };

  const Program* program_;
  Database* db_;
  BottomUpEvaluator eval_;  // compiled rules + delta-join machinery
  std::string ineligible_reason_;
  const FactCounts* edb_counts_ = nullptr;  // borrowed for one Maintain()
  // Rebuilt by every Maintain() over its compiled rules, by PredicateId:
  // the delta entry points of each predicate and the rules deriving it.
  std::vector<std::vector<DeltaUse>> uses_;
  std::vector<std::vector<const BottomUpEvaluator::CompiledRule*>>
      rules_by_head_;
};

}  // namespace lps

#endif  // LPS_EVAL_INCREMENTAL_H_
