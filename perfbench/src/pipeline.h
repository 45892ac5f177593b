// The pipeline every workload runs through the engine's public API:
//
//   setup    (kSetupRounds times; setup_s is the median)
//            Load / LoadFactsParallel -> Evaluate -> Freeze -> Publish
//            -> QueryServer + Prepare
//   measure  rounds of fixed work until --seconds are spent, each:
//            reads:   closed-loop QueryServer::Execute, one caller
//            batches: closed-loop ExecuteBatch of a fixed size
//            churn:   MutationBatch::Commit -> FreezeIncremental ->
//                     Publish, then reads (and batches) on the new
//                     snapshot
//   referee  sampled served answers against a sequential ground truth,
//            plus the workload's own whole-state check, all outside the
//            timed region
//
// A workload supplies its inputs, requests, churn and state referee
// through the Workload interface and sets the work of one round.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "lps/lps.h"

namespace perfbench {

/// A served goal whose first argument is bound per request: the server
/// prepares "pred(X, A1, ...)" and a request binds X.
struct QuerySpec {
  std::string pred;
  size_t arity = 2;

  std::string ServeGoal() const;
  /// The same goal with X replaced by `value`, for Session::Query.
  std::string TruthGoal(const std::string& value) const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Session options: defaults except threads = lanes, a raised
  /// max_tuples and, where the workload says so, incremental.
  virtual lps::Options SessionOptions(size_t lanes) const = 0;
  /// Loads the generated input into a fresh session; timed as setup.
  /// Wraps each engine call in a span.
  virtual void Load(lps::Session* session, Context* ctx) = 0;
  virtual std::vector<QuerySpec> Queries() const = 0;
  /// Next request of the workload's key distribution. Its `query` is
  /// the index into Queries(), which is also the server's query id.
  virtual lps::serve::ServeRequest NextRequest(Rng* rng) = 0;
  /// Stages one commit's churn into `batch` and applies it to the
  /// workload's own model of the fact set; returns the ops staged.
  virtual size_t StageChurn(lps::Session* session, lps::MutationBatch* batch,
                            Rng* rng) = 0;
  /// Whole-state referee against the workload's own model (outside
  /// timing).
  virtual void CheckState(lps::Session* session, Context* ctx) = 0;

  // ---- Shape of the measure phase ------------------------------------
  // One round of fixed work, repeated until --seconds are spent; sized
  // to take about a second. A fixed round keeps fixed per-round costs
  // (workers re-binding after a publish) the same share of every run.
  size_t reads_per_round = 0;    // closed-loop Execute calls
  size_t batches_per_round = 0;  // closed-loop ExecuteBatch calls
  size_t commits_per_round = 0;  // churn steps
  size_t batch_size = 32;
  size_t reads_per_publish = 1;
  size_t batches_per_publish = 0;
  /// Run CheckState after every this many commits (0 = never mid-run).
  size_t check_every_commits = 0;
};

/// Runs setup, measure and referee for `workload` and fills ctx->report.
void RunPipeline(Context* ctx, Workload* workload);

/// Rendered rows "(t1, ..., tn)" of a sequential Session::Query.
std::vector<std::string> QueryRows(lps::Session* session,
                                   const std::string& goal);

/// Aborts unless `st` is OK (a workload guarantees every call succeeds).
void MustOk(const lps::Status& st, const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
