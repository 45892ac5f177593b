// Incremental maintenance vs full re-evaluation under fact churn.
//
// Each iteration commits one MutationBatch that retracts ~0.5% of the
// churned EDB facts and re-inserts the ~0.5% retracted by the previous
// iteration (steady-state 1% churn), on two recursive workloads:
//
//   * Ancestry - ancestor closure over a forest of random trees,
//     churning parent edges (local topology churn)
//   * BomReach - reachability + part explosion over a BOM assembly
//     DAG, churning part_of annotations (catalog churn under a stable
//     topology)
//
// BM_*ChurnFull commits with Options::incremental off (every commit
// pays a from-scratch fixpoint); BM_*ChurnIncremental keeps the default
// (delta semi-naive inserts + DRed retracts, eval/incremental.h). The
// CI gate (scripts/check_bench.py --min-ratio) requires incremental to
// be >= 20x faster on both workloads. BM_ClusterReachChurn* covers the
// opposite shape - clustered closure, where nearly every over-deleted
// tuple is re-derived - under its own floor. BM_ChurnDrift (at the
// end) gates that a commit's cost stays flat as commits pile up.
//
// Before measuring, the bench verifies correctness: several churn
// rounds through the incremental path must leave a database whose
// canonical string equals a from-scratch fixpoint of the same mutated
// program - it aborts on divergence, so the speedup can never come
// from wrong answers.
#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace lps::bench {
namespace {

// Ancestry closure over a forest of random trees: the closure (and so
// a full re-evaluation) scales with the whole forest, while a
// retracted parent edge can only condemn ancestor pairs routed through
// it - subtree x ancestor chain, a handful of tuples. This is the
// locality incremental maintenance exists to exploit (org charts,
// file-system hierarchies, ownership trees: closures that are huge in
// aggregate and churn locally). The opposite extreme - transitive
// closure of one dense strongly-connected digraph, where retracting
// any edge condemns nearly every closure tuple - makes DRed degenerate
// to a full re-evaluation by construction and is called out as a
// non-goal in DESIGN.md section 16.
constexpr int kForestTrees = 400;
constexpr int kTreeNodes = 25;

std::string AncestrySource() {
  Rng rng(1234);
  std::string out;
  for (int t = 0; t < kForestTrees; ++t) {
    for (int i = 1; i < kTreeNodes; ++i) {
      int p = static_cast<int>(rng.Below(i));  // parent: earlier node
      out += "parent(t" + std::to_string(t) + "n" + std::to_string(i) +
             ", t" + std::to_string(t) + "n" + std::to_string(p) +
             ").\n";
    }
  }
  return out +
         "anc(X, Y) :- parent(X, Y).\n"
         "anc(X, Z) :- anc(X, Y), parent(Y, Z).\n";
}

// BOM reachability: Horn-only (no grouping), so the incremental
// maintainer keeps it instead of falling back. Churn hits the part_of
// annotations - the part catalog turns over fast while the assembly
// topology (and so the expensive `uses` closure) holds still, which is
// the classic view-maintenance deployment shape.
std::string BomReachSource() {
  return BomAssembly(/*objects=*/420, /*parts_per=*/3, /*universe=*/300,
                     /*seed=*/77) +
         "uses(O, S) :- sub(O, S).\n"
         "uses(O, T) :- uses(O, S), sub(S, T).\n"
         "haspart(O, P) :- part_of(P, O).\n"
         "haspart(O, P) :- uses(O, S), part_of(P, S).\n";
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench_incremental: %s: %s\n", what,
                 st.ToString().c_str());
    std::abort();
  }
}

// The fact texts of `pred` in the session's compiled program.
std::vector<std::string> FactTexts(Session* session,
                                   const std::string& pred) {
  std::vector<std::string> out;
  const Signature& sig = session->program()->signature();
  for (const Literal& f : session->program()->facts()) {
    if (sig.Name(f.pred) == pred) {
      out.push_back(LiteralToString(*session->store(), sig, f));
    }
  }
  return out;
}

// A churn workload: two disjoint chunks of ~0.5% of the `pred` facts.
// Each Step() retracts one chunk and re-inserts the other, so in
// steady state every commit is half retracts, half inserts, and the
// program oscillates between two states. Ops go through the typed
// Add/Retract path - programmatic churn holds interned tuples, not
// fact text to re-parse per commit (the text path is what Load and
// the referee use).
class Churn {
 public:
  Churn(Session* session, const std::string& pred) : session_(session) {
    const Signature& sig = session->program()->signature();
    std::vector<Tuple> edges;
    for (const Literal& f : session->program()->facts()) {
      if (sig.Name(f.pred) == pred) {
        pred_ = f.pred;
        edges.push_back(f.args);
      }
    }
    size_t k = (edges.size() + 199) / 200;  // 0.5% per chunk, 1%/batch
    // Stride the picks across the whole fact list so the churn spreads
    // over the workload instead of clustering at the front.
    size_t stride = edges.size() / (2 * k);
    if (stride == 0) stride = 1;
    for (size_t i = 0; i < k; ++i) a_.push_back(edges[(2 * i) * stride]);
    for (size_t i = 0; i < k; ++i) {
      b_.push_back(edges[(2 * i + 1) * stride]);
    }
    // Pre-retract chunk B so the first Step() has real inserts too.
    MutationBatch batch = session_->Mutate();
    for (const Tuple& e : b_) MustOk(batch.Retract(pred_, e), "stage");
    MustOk(batch.Commit(), "prime commit");
  }

  void Step() {
    const std::vector<Tuple>& out = flip_ ? b_ : a_;
    const std::vector<Tuple>& in = flip_ ? a_ : b_;
    MutationBatch batch = session_->Mutate();
    for (const Tuple& e : in) MustOk(batch.Add(pred_, e), "stage");
    for (const Tuple& e : out) MustOk(batch.Retract(pred_, e), "stage");
    MustOk(batch.Commit(), "churn commit");
    flip_ = !flip_;
  }

  size_t batch_ops() const { return a_.size() + b_.size(); }

 private:
  Session* session_;
  PredicateId pred_ = kInvalidPredicate;
  std::vector<Tuple> a_;
  std::vector<Tuple> b_;
  bool flip_ = false;
};

std::unique_ptr<Session> EvaluatedSession(const std::string& source,
                                          bool incremental) {
  Options options;
  options.incremental = incremental;
  auto session =
      std::make_unique<Session>(LanguageMode::kLPS, options);
  MustOk(session->Load(source), "load");
  MustOk(session->Evaluate(), "evaluate");
  return session;
}

// Divergence check: churn the incremental session a few rounds, then
// compare against a from-scratch fixpoint of its mutated program.
void VerifyChurnConverges(const std::string& source,
                          const std::string& pred) {
  auto inc = EvaluatedSession(source, /*incremental=*/true);
  Churn churn(inc.get(), pred);
  for (int i = 0; i < 3; ++i) churn.Step();
  if (inc->eval_stats().delta_rounds == 0) {
    std::fprintf(stderr,
                 "bench_incremental: incremental path did not run "
                 "(fell back to full re-evaluation?)\n");
    std::abort();
  }

  // Referee: same source, the same net mutations, full fixpoint.
  auto ref = EvaluatedSession(source, /*incremental=*/false);
  {
    const Signature& sig = inc->program()->signature();
    std::vector<std::pair<std::string, std::string>> facts;
    for (const Literal& f : inc->program()->facts()) {
      facts.emplace_back(sig.Name(f.pred),
                         LiteralToString(*inc->store(), sig, f));
    }
    // Rebuild the referee's fact multiset to match: clear by retract
    // of everything it has, then re-add the incremental session's.
    MutationBatch wipe = ref->Mutate();
    for (const std::string& e : FactTexts(ref.get(), pred)) {
      MustOk(wipe.RetractText(e), "referee stage");
    }
    for (const auto& [name, text] : facts) {
      if (name == pred) MustOk(wipe.AddText(text), "referee stage");
    }
    MustOk(wipe.Commit(), "referee commit");
  }
  std::string got =
      inc->database()->ToCanonicalString(inc->program()->signature());
  std::string want =
      ref->database()->ToCanonicalString(ref->program()->signature());
  if (got != want) {
    std::fprintf(stderr,
                 "bench_incremental: incremental database diverged "
                 "from the from-scratch fixpoint on %s churn\n",
                 pred.c_str());
    std::abort();
  }
}

void ChurnLoop(benchmark::State& state, const std::string& source,
               const std::string& pred, bool incremental) {
  auto session = EvaluatedSession(source, incremental);
  Churn churn(session.get(), pred);
  churn.Step();  // settle into the steady-state oscillation
  for (auto _ : state) {
    churn.Step();
  }
  state.counters["batch_ops"] =
      static_cast<double>(churn.batch_ops());
  state.counters["tuples"] =
      static_cast<double>(session->database()->TupleCount());
}

void BM_AncestryChurnFull(benchmark::State& state) {
  ChurnLoop(state, AncestrySource(), "parent", /*incremental=*/false);
}
BENCHMARK(BM_AncestryChurnFull)->Unit(benchmark::kMicrosecond);

void BM_AncestryChurnIncremental(benchmark::State& state) {
  static const bool verified = [] {
    VerifyChurnConverges(AncestrySource(), "parent");
    return true;
  }();
  (void)verified;
  ChurnLoop(state, AncestrySource(), "parent", /*incremental=*/true);
}
BENCHMARK(BM_AncestryChurnIncremental)->Unit(benchmark::kMicrosecond);

void BM_BomReachChurnFull(benchmark::State& state) {
  ChurnLoop(state, BomReachSource(), "part_of", /*incremental=*/false);
}
BENCHMARK(BM_BomReachChurnFull)->Unit(benchmark::kMicrosecond);

void BM_BomReachChurnIncremental(benchmark::State& state) {
  static const bool verified = [] {
    VerifyChurnConverges(BomReachSource(), "part_of");
    return true;
  }();
  (void)verified;
  ChurnLoop(state, BomReachSource(), "part_of", /*incremental=*/true);
}
BENCHMARK(BM_BomReachChurnIncremental)->Unit(benchmark::kMicrosecond);

// ---- Clustered closure: the rederive-heavy shape ----------------------
//
// The social-graph shape: kClusters clusters of kClusterSize nodes, each
// node following the next member of its ring, the member three ahead,
// and one seeded member of its cluster, under the transitive closure.
// Every cluster is strongly connected, so its closure is all
// kClusterSize^2 pairs, and re-pointing one node's seeded edge condemns
// most of its cluster's closure in DRed's over-delete - nearly all of
// which survives and must be re-derived. Each commit moves
// kClusterMoves seeded edges. BM_ClusterReachChurnFull re-evaluates
// from scratch (Options::incremental off), BM_ClusterReachChurnIncremental
// maintains; CI gates their ratio. Before timing, the incremental
// session's database after several commits must equal a from-scratch
// evaluation of the same edges.

constexpr size_t kClusters = 24;
constexpr size_t kClusterSize = 64;
constexpr size_t kClusterMoves = 4;

class ClusterGraph {
 public:
  ClusterGraph() : extra_(kClusters * kClusterSize, kNone) {
    for (size_t u = 0; u < extra_.size(); ++u) extra_[u] = PickExtra(u);
  }

  std::string Source() const {
    std::string src =
        "reach(X, Y) :- follows(X, Y).\n"
        "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n";
    for (size_t u = 0; u < extra_.size(); ++u) {
      for (size_t v : Follows(u)) {
        src += "follows(" + Node(u) + ", " + Node(v) + ").\n";
      }
    }
    return src;
  }

  /// Stages one commit: kClusterMoves nodes re-point their seeded edge.
  void Stage(Session* session, MutationBatch* batch) {
    TermStore* store = session->store();
    std::vector<size_t> moved;
    while (moved.size() < kClusterMoves) {
      const size_t u = rng_.Below(extra_.size());
      if (std::find(moved.begin(), moved.end(), u) != moved.end()) continue;
      moved.push_back(u);
      const size_t next = PickExtra(u);
      const TermId from = store->MakeConstant(Node(u));
      MustOk(batch->Retract("follows",
                            {from, store->MakeConstant(Node(extra_[u]))}),
             "cluster retract");
      MustOk(batch->Add("follows", {from, store->MakeConstant(Node(next))}),
             "cluster add");
      extra_[u] = next;
    }
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  static std::string Node(size_t u) { return "u" + std::to_string(u); }
  static size_t Ring(size_t u, size_t hop) {
    const size_t base = u / kClusterSize * kClusterSize;
    return base + (u - base + hop) % kClusterSize;
  }
  std::vector<size_t> Follows(size_t u) const {
    return {Ring(u, 1), Ring(u, 3), extra_[u]};
  }
  // A member of u's cluster other than u, its ring and skip edges and
  // its current seeded edge, so every edge stays one distinct fact.
  size_t PickExtra(size_t u) {
    const size_t base = u / kClusterSize * kClusterSize;
    for (;;) {
      const size_t v = base + rng_.Below(kClusterSize);
      if (v != u && v != Ring(u, 1) && v != Ring(u, 3) && v != extra_[u]) {
        return v;
      }
    }
  }

  Rng rng_{2718};
  std::vector<size_t> extra_;
};

void ClusterChurnLoop(benchmark::State& state, bool incremental) {
  ClusterGraph graph;
  auto session = EvaluatedSession(graph.Source(), incremental);
  size_t overdeleted = 0;
  size_t witnesses = 0;
  size_t commits = 0;
  for (auto _ : state) {
    MutationBatch batch = session->Mutate();
    graph.Stage(session.get(), &batch);
    MustOk(batch.Commit(), "cluster commit");
    overdeleted += session->eval_stats().overdeleted_tuples;
    witnesses += session->eval_stats().witness_searches;
    ++commits;
  }
  state.counters["tuples"] =
      static_cast<double>(session->database()->TupleCount());
  if (incremental) {
    state.counters["overdeleted_per_commit"] =
        static_cast<double>(overdeleted) / static_cast<double>(commits);
    state.counters["witnesses_per_commit"] =
        static_cast<double>(witnesses) / static_cast<double>(commits);
  }
}

void BM_ClusterReachChurnFull(benchmark::State& state) {
  ClusterChurnLoop(state, /*incremental=*/false);
}
BENCHMARK(BM_ClusterReachChurnFull)->Unit(benchmark::kMicrosecond);

void BM_ClusterReachChurnIncremental(benchmark::State& state) {
  static const bool verified = [] {
    ClusterGraph graph;
    auto inc = EvaluatedSession(graph.Source(), /*incremental=*/true);
    for (int i = 0; i < 5; ++i) {
      MutationBatch batch = inc->Mutate();
      graph.Stage(inc.get(), &batch);
      MustOk(batch.Commit(), "cluster commit");
    }
    if (inc->eval_stats().commit_route != CommitRoute::kIncremental) {
      std::fprintf(stderr,
                   "bench_incremental: cluster churn did not commit "
                   "incrementally\n");
      std::abort();
    }
    auto ref = EvaluatedSession(graph.Source(), /*incremental=*/false);
    if (inc->database()->ToCanonicalString(inc->program()->signature()) !=
        ref->database()->ToCanonicalString(ref->program()->signature())) {
      std::fprintf(stderr,
                   "bench_incremental: cluster churn diverged from the "
                   "from-scratch fixpoint\n");
      std::abort();
    }
    return true;
  }();
  (void)verified;
  ClusterChurnLoop(state, /*incremental=*/true);
}
BENCHMARK(BM_ClusterReachChurnIncremental)->Unit(benchmark::kMicrosecond);

// ---- Commit cost under drift churn ----------------------------------
//
// The write loop of perfbench's churn_serve workload without its
// reads: kDriftFamilies ancestry families over forests of random
// trees, every commit re-parenting kDriftMoves nodes of one family
// (retract the old parent edge, add a new one, so rows are retracted
// for good rather than toggled), then FreezeIncremental + Publish. A
// first-column index on every anc<k> - the one a bound point query
// builds - rides along. Commit cost must not grow with the commits
// before it: tombstoned rows, ragged fact-ledger chunks and
// per-bucket posting copies each made it climb. The last kDriftWindow
// commits run twice, alternating commit by commit: on the aged session
// and on a fresh one rebuilt from the same facts, staging the same
// moves (a copy of the forest and its random stream). drift_ratio is
// the aged session's p50 commit -> publish CPU time over the fresh
// one's; CI bounds it at 1.25. Both halves run in the same seconds, so
// a host that speeds up or slows down moves them together. The run
// aborts unless both final databases equal a from-scratch evaluation.

constexpr size_t kDriftFamilies = 8;
constexpr size_t kDriftTrees = 250;
constexpr size_t kDriftNodes = 25;
constexpr size_t kDriftMoves = 100;
constexpr size_t kDriftCommits = 2000;
constexpr size_t kDriftWindow = 200;

class DriftForest {
 public:
  DriftForest() : parent_(kDriftFamilies * kDriftTrees * kDriftNodes, 0) {
    for (size_t f = 0; f < kDriftFamilies; ++f) {
      for (size_t t = 0; t < kDriftTrees; ++t) {
        for (size_t i = 1; i < kDriftNodes; ++i) {
          parent_[Slot(f, t, i)] = rng_.Below(i);
        }
      }
    }
  }

  std::string Source() const {
    std::string src;
    for (size_t f = 0; f < kDriftFamilies; ++f) {
      const std::string k = std::to_string(f);
      src += "anc" + k + "(X, Y) :- par" + k + "(X, Y).\n";
      src += "anc" + k + "(X, Z) :- anc" + k + "(X, Y), par" + k +
             "(Y, Z).\n";
    }
    for (size_t f = 0; f < kDriftFamilies; ++f) {
      for (size_t t = 0; t < kDriftTrees; ++t) {
        for (size_t i = 1; i < kDriftNodes; ++i) {
          src += "par" + std::to_string(f) + "(" + Node(f, t, i) + ", " +
                 Node(f, t, parent_[Slot(f, t, i)]) + ").\n";
        }
      }
    }
    return src;
  }

  /// Stages one commit's re-parentings of a random family.
  void Stage(Session* session, MutationBatch* batch) {
    TermStore* store = session->store();
    const size_t f = rng_.Below(kDriftFamilies);
    const std::string pred = "par" + std::to_string(f);
    std::vector<size_t> moved;
    while (moved.size() < kDriftMoves) {
      const size_t t = rng_.Below(kDriftTrees);
      const size_t i = 2 + rng_.Below(kDriftNodes - 2);
      const size_t slot = Slot(f, t, i);
      if (std::find(moved.begin(), moved.end(), slot) != moved.end()) {
        continue;
      }
      moved.push_back(slot);
      size_t& p = parent_[slot];
      size_t np = rng_.Below(i);
      while (np == p) np = rng_.Below(i);
      const TermId child = store->MakeConstant(Node(f, t, i));
      MustOk(batch->Retract(pred, {child, store->MakeConstant(Node(f, t, p))}),
             "drift retract");
      MustOk(batch->Add(pred, {child, store->MakeConstant(Node(f, t, np))}),
             "drift add");
      p = np;
    }
  }

 private:
  static size_t Slot(size_t f, size_t t, size_t i) {
    return (f * kDriftTrees + t) * kDriftNodes + i;
  }
  static std::string Node(size_t f, size_t t, size_t i) {
    std::string name = "f";
    return name += std::to_string(f) + "t" + std::to_string(t) + "n" +
                   std::to_string(i);
  }

  Rng rng_{4242};
  std::vector<size_t> parent_;
};

double CpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One drift-churn chain: a session with the anc<k> point-query index,
/// committed and republished copy-on-write one batch at a time.
class DriftChain {
 public:
  explicit DriftChain(const DriftForest& forest)
      : session_(EvaluatedSession(forest.Source(), /*incremental=*/true)) {
    for (size_t f = 0; f < kDriftFamilies; ++f) {
      const std::string k = std::to_string(f);
      MustOk(session_->Query("anc" + k + "(f" + k + "t0n1, Y)").status(),
             "point query");
    }
    auto first = session_->FreezeIncremental(nullptr);
    MustOk(first.status(), "freeze");
    prev_ = *first;
    registry_.Publish(prev_);
  }

  /// Stages `forest`'s next moves and returns the CPU milliseconds of
  /// commit -> FreezeIncremental -> Publish.
  double Commit(DriftForest* forest) {
    MutationBatch batch = session_->Mutate();
    forest->Stage(session_.get(), &batch);
    const double t0 = CpuMillis();
    MustOk(batch.Commit(), "drift commit");
    auto snap = session_->FreezeIncremental(prev_);
    MustOk(snap.status(), "freeze incremental");
    prev_ = *snap;
    registry_.Publish(prev_);
    const double ms = CpuMillis() - t0;
    compactions_ += session_->eval_stats().compactions;
    return ms;
  }

  Session& session() { return *session_; }
  size_t compactions() const { return compactions_; }

 private:
  std::unique_ptr<Session> session_;
  serve::SnapshotRegistry registry_;
  std::shared_ptr<const serve::Snapshot> prev_;
  size_t compactions_ = 0;
};

void BM_ChurnDrift(benchmark::State& state) {
  double drift_ratio = 0;
  double arena_per_live = 0;
  size_t compactions = 0;
  for (auto _ : state) {
    DriftForest forest;
    DriftChain aged(forest);
    double total = 0;
    for (size_t c = 0; c < kDriftCommits - kDriftWindow; ++c) {
      total += aged.Commit(&forest);
    }
    DriftForest fresh_forest = forest;
    DriftChain fresh(fresh_forest);
    std::vector<double> aged_ms;
    std::vector<double> fresh_ms;
    for (size_t c = 0; c < kDriftWindow; ++c) {
      aged_ms.push_back(aged.Commit(&forest));
      fresh_ms.push_back(fresh.Commit(&fresh_forest));
      total += aged_ms.back();
    }
    state.SetIterationTime(total / 1e3);
    drift_ratio = MedianOf(aged_ms) / MedianOf(fresh_ms);
    compactions = aged.compactions();

    size_t arena = 0;
    size_t live = 0;
    for (const auto& [pred, rs] : aged.session().database()->CollectStats()) {
      arena += rs.arena_rows;
      live += rs.live_rows;
    }
    arena_per_live = static_cast<double>(arena) / static_cast<double>(live);
    auto ref = EvaluatedSession(forest.Source(), /*incremental=*/false);
    const std::string want =
        ref->database()->ToCanonicalString(ref->program()->signature());
    for (DriftChain* chain : {&aged, &fresh}) {
      Session& s = chain->session();
      if (s.database()->ToCanonicalString(s.program()->signature()) != want) {
        std::fprintf(stderr,
                     "bench_incremental: drift churn diverged from the "
                     "from-scratch fixpoint\n");
        std::abort();
      }
    }
  }
  state.counters["drift_ratio"] = drift_ratio;
  state.counters["arena_rows_per_live_row"] = arena_per_live;
  state.counters["compactions"] = static_cast<double>(compactions);
}
BENCHMARK(BM_ChurnDrift)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lps::bench

BENCHMARK_MAIN();
