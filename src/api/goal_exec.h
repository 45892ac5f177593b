// Shared goal-execution machinery behind PreparedQuery (api/query.cc)
// and the concurrent query server (serve/server.cc): streaming a
// relation's rows that match a partially ground goal pattern, and
// running a builtin goal plan.
//
// RelationScanSource has two modes with identical answer semantics:
//
//  * session mode (mutable Relation*): Lookup() may lazily build the
//    relation's per-mask index on first use - the single-caller
//    PreparedQuery path;
//  * snapshot mode (const Relation*): LookupSnapshot() probes only
//    prebuilt indexes (falling back to a bounded scan) and provably
//    never mutates the relation, so any number of threads may stream
//    over one frozen relation concurrently. Snapshots freeze their
//    indexes at publication (Database::FreezeIndexes), so the fallback
//    scan only triggers for masks never indexed before the freeze.
#ifndef LPS_API_GOAL_EXEC_H_
#define LPS_API_GOAL_EXEC_H_

#include <unordered_set>
#include <vector>

#include "api/answer_cursor.h"
#include "eval/builtins.h"
#include "eval/database.h"
#include "eval/plan.h"
#include "term/substitution.h"
#include "unify/unify.h"

namespace lps {

// Lazily streams the rows of one relation that match the (partially
// ground) goal argument patterns, using the relation's hash index on
// the ground positions. This is the Execute() fast path: answers are
// produced one Next() at a time as zero-copy views straight into the
// relation's row arena (the database is frozen while a cursor streams
// - Evaluate()/ResetDatabase() invalidate cursors), so callers that
// stop pulling stop paying and matched rows are never copied.
//
// Row matching follows the join executor's scan step
// (BottomUpEvaluator::ExecScan / MatchRow in eval/bottomup.cc): bound
// columns come from the index probe, plain variables bind with a sort
// check, complex patterns go through the Unifier. A goal needs only
// match-or-not per row, so it keeps its own Substitution-based
// matcher instead of compiled slots.
class RelationScanSource final : public AnswerSource {
 public:
  /// Session mode: `rel` may be null (predicate never stored - the
  /// stream is empty); Lookup() may build its per-mask index lazily.
  RelationScanSource(TermStore* store, UnifyOptions unify, Relation* rel,
                     std::vector<TermId> patterns);

  /// Snapshot mode: read-only against a frozen relation. `store` is
  /// the *caller's* store (a worker's private clone when serving): it
  /// must share the relation's TermId prefix, i.e. be the snapshot
  /// store itself or a TermStore::Clone() descendant of it.
  /// `side_index`, when given, is an index over `rel` built outside it
  /// (the query server's side indexes); it answers the probe when its
  /// mask is the bound mask and it covers every row.
  RelationScanSource(TermStore* store, UnifyOptions unify,
                     const Relation* rel, std::vector<TermId> patterns,
                     const MaskIndex* side_index = nullptr);

  Result<bool> Next(TupleRef* out) override;
  void Rewind() override { pos_ = 0; }

  /// Snapshot mode: false when the probe had to fall back to scanning
  /// because no prebuilt index covered the mask (ServeStats counts
  /// these). Always true in session mode (Lookup builds on demand).
  bool index_hit() const { return index_hit_; }

 private:
  void InitMask(Tuple* key);
  // One row matches when the non-indexed positions can be consistently
  // bound: repeated variables must agree, complex patterns (set or
  // function terms containing variables) go through set unification.
  Result<bool> Matches(TupleRef row);

  TermStore* store_;
  UnifyOptions unify_;
  const Relation* rel_;
  std::vector<TermId> patterns_;
  uint32_t mask_ = 0;
  bool index_hit_ = true;
  std::vector<RowId> indices_;
  size_t pos_ = 0;
};

// Runs a builtin goal plan (active-domain enumeration steps followed by
// the builtin itself) eagerly, emitting one tuple of substituted goal
// arguments per distinct solution. Only reads the database's active
// domains, so it can run against a frozen snapshot database; new terms
// a builtin computes (sums, unions) intern into `store`, which must be
// private to the caller on concurrent paths.
class GoalPlanExecutor {
 public:
  GoalPlanExecutor(TermStore* store, const Database* db,
                   const BuiltinOptions& builtins, const Literal& goal)
      : store_(store), db_(db), builtins_(builtins), goal_(goal) {}

  Status Run(const std::vector<PlanStep>& steps,
             const Substitution& initial, std::vector<Tuple>* out);

 private:
  Status Emit(Substitution* theta);
  Status Exec(const std::vector<PlanStep>& steps, size_t idx,
              Substitution* theta);

  TermStore* store_;
  const Database* db_;
  const BuiltinOptions& builtins_;
  const Literal& goal_;
  std::vector<Tuple>* out_ = nullptr;
  std::unordered_set<Tuple, TupleHash> seen_;
};

}  // namespace lps

#endif  // LPS_API_GOAL_EXEC_H_
