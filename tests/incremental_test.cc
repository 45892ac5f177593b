// Tests for incremental view maintenance (eval/incremental.h) and the
// transactional MutationBatch surface (api/mutation.h): delta
// re-convergence equals the from-scratch fixpoint tuple for tuple,
// retraction runs DRed with re-derivation, the epoch split keeps
// rule_epoch() stable across fact-only commits, and Abort()/deferred
// commits leave the expected state behind.
#include "eval/incremental.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "serve/snapshot.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                      \
  do {                                       \
    ::lps::Status _st = (expr);              \
    ASSERT_TRUE(_st.ok()) << _st.ToString(); \
  } while (0)

constexpr const char* kGraph = R"(
  edge(a, b). edge(b, c). edge(c, d).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
)";

Options Incremental() {
  Options o;
  o.incremental = true;
  return o;
}

// The from-scratch comparator: every commit re-evaluates.
Options FullRecompute() {
  Options o;
  o.incremental = false;
  return o;
}

// The canonical database of `source` after `mutate` ran against an
// evaluated session, computed the trusted way: full re-evaluation.
template <typename Fn>
std::string GroundTruth(const std::string& source, Fn mutate) {
  Session session(LanguageMode::kLPS, FullRecompute());
  EXPECT_TRUE(session.Load(source).ok());
  EXPECT_TRUE(session.Evaluate().ok());
  mutate(session);
  return session.database()->ToCanonicalString(
      session.program()->signature());
}

TEST(IncrementalTest, InsertBatchMatchesFromScratch) {
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.AddText("edge(e, a)"));  // closes a cycle
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
  // The delta pass ran (and left its counters) instead of a rebuild.
  EXPECT_GT(session.eval_stats().delta_rounds, 0u);
  EXPECT_TRUE(session.converged());
}

TEST(IncrementalTest, RetractRunsDRedWithRederivation) {
  // Two derivations of path(a, c); retracting edge(b, c) kills one but
  // re-derivation must revive path(a, c) through edge(a, c).
  constexpr const char* kDiamond = R"(
    edge(a, b). edge(b, c). edge(a, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )";
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.RetractText("edge(b, c)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kDiamond));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kDiamond, mutate));
  EXPECT_GT(session.eval_stats().overdeleted_tuples, 0u);
  EXPECT_GT(session.eval_stats().rederived_tuples, 0u);
  EXPECT_TRUE(*session.Holds("path(a, c)"));   // revived
  EXPECT_FALSE(*session.Holds("path(b, c)"));  // gone for good
}

TEST(IncrementalTest, MixedBatchAndNetEffectSemantics) {
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.RetractText("edge(a, b)"));
    // Same tuple added and retracted in one batch: later op wins, so
    // the commit must leave edge(c, d) in place.
    ASSERT_OK(batch.RetractText("edge(c, d)"));
    ASSERT_OK(batch.AddText("edge(c, d)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
  EXPECT_TRUE(*session.Holds("edge(c, d)"));
  EXPECT_FALSE(*session.Holds("path(a, b)"));
  EXPECT_TRUE(*session.Holds("path(c, e)"));
}

TEST(IncrementalTest, IneligibleFragmentFallsBackExactly) {
  // Negation is outside the maintainable fragment: Commit() must
  // detect that and re-evaluate from scratch - same final database.
  constexpr const char* kNegation = R"(
    edge(a, b). edge(b, c). node(a). node(b). node(c). node(d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    unreachable(Y) :- node(Y), not path(a, Y).
  )";
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(c, d)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kNegation));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kNegation, mutate));
  EXPECT_FALSE(*session.Holds("unreachable(d)"));
}

TEST(IncrementalTest, DefaultCommitMaintainsIncrementally) {
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.RetractText("edge(a, b)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS);  // default Options
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_GT(session.eval_stats().delta_rounds, 0u);
  EXPECT_EQ(session.eval_stats().commit_route, CommitRoute::kIncremental);
  EXPECT_TRUE(session.eval_stats().commit_fallback_reason.empty());
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
}

TEST(IncrementalTest, FullRecomputeComparatorReconverges) {
  // incremental=false: Commit() on a converged session re-evaluates
  // from scratch - behaviour identical, just without delta counters.
  Session session(LanguageMode::kLPS, FullRecompute());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
  EXPECT_EQ(session.eval_stats().delta_rounds, 0u);
  EXPECT_EQ(session.eval_stats().commit_route, CommitRoute::kFull);
  EXPECT_FALSE(session.eval_stats().commit_fallback_reason.empty());
}

TEST(IncrementalTest, IneligibleCommitReportsRouteAndReason) {
  // Decided once per rule epoch: every commit falls back, each with
  // the maintainer's reason.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    edge(a, b). node(a). node(b). node(c).
    unreachable(Y) :- node(Y), not edge(a, Y).
  )"));
  ASSERT_OK(session.Evaluate());
  for (const char* fact : {"edge(a, c)", "node(d)"}) {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.AddText(fact));
    ASSERT_OK(batch.Commit());
    EXPECT_EQ(session.eval_stats().commit_route, CommitRoute::kFull);
    EXPECT_NE(session.eval_stats().commit_fallback_reason.find("negated"),
              std::string::npos);
  }
  EXPECT_FALSE(*session.Holds("unreachable(c)"));
  EXPECT_TRUE(*session.Holds("unreachable(d)"));
}

// Two casualties that only support each other must stay dead: after
// edge(s, a) goes, reach(s, a) and reach(s, b) each have a derivation
// through the other, and none from the surviving database.
TEST(IncrementalTest, CyclicSupportStaysDead) {
  constexpr const char* kCycle = R"(
    edge(s, a). edge(a, b). edge(b, a).
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
  )";
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.RetractText("edge(s, a)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kCycle));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.eval_stats().commit_route, CommitRoute::kIncremental);
  EXPECT_FALSE(*session.Holds("reach(s, a)"));
  EXPECT_FALSE(*session.Holds("reach(s, b)"));
  EXPECT_TRUE(*session.Holds("reach(a, a)"));
  EXPECT_TRUE(*session.Holds("reach(b, b)"));
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kCycle, mutate));
}

// A 64-node ring with chords: the closure is the whole cluster, and
// re-pointing one chord condemns much of it, nearly all of which
// survives. Interleaved rederivation revives those casualties by
// propagating earlier revivals; only a small fraction needs a
// head-bound witness search.
std::string RingEdge(int from, int to) {
  return "edge(n" + std::to_string(from) + ", n" + std::to_string(to) + ")";
}

// The closure of a 64-node ring with skip-3 edges and the chord
// edge(n5, n40), and a commit that re-points the chord.
std::string RingSource() {
  constexpr int kNodes = 64;
  std::string source =
      "reach(X, Y) :- edge(X, Y).\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z).\n";
  for (int i = 0; i < kNodes; ++i) {
    source += RingEdge(i, (i + 1) % kNodes) + ".\n";
    source += RingEdge(i, (i + 3) % kNodes) + ".\n";
  }
  return source + RingEdge(5, 40) + ".\n";
}

void MoveRingChord(Session& s) {
  MutationBatch batch = s.Mutate();
  ASSERT_OK(batch.RetractText(RingEdge(5, 40)));
  ASSERT_OK(batch.AddText(RingEdge(5, 20)));
  ASSERT_OK(batch.Commit());
}

TEST(IncrementalTest, RingClusterRederivesByPropagation) {
  const std::string source = RingSource();
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(source));
  ASSERT_OK(session.Evaluate());
  const Signature& sig = session.program()->signature();
  const Relation* reach =
      session.database()->FindRelation(sig.Lookup("reach", 2));
  const Relation* edges =
      session.database()->FindRelation(sig.Lookup("edge", 2));
  ASSERT_NE(reach, nullptr);
  ASSERT_NE(edges, nullptr);
  const uint64_t reach_tick = reach->content_tick();
  const uint64_t edge_tick = edges->content_tick();
  MoveRingChord(session);
  const EvalStats& stats = session.eval_stats();
  EXPECT_EQ(stats.commit_route, CommitRoute::kIncremental);
  // The closure came back whole, so it keeps its content tick (a
  // copy-on-write republish shares it); the edge relation changed.
  EXPECT_EQ(reach->content_tick(), reach_tick);
  EXPECT_NE(edges->content_tick(), edge_tick);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(source, MoveRingChord));
  ASSERT_GT(stats.overdeleted_tuples, 1000u);
  // Every closure tuple survives the move: all but the chord revive.
  EXPECT_EQ(stats.rederived_tuples + 1, stats.overdeleted_tuples);
  EXPECT_LE(stats.witness_searches * 10, stats.overdeleted_tuples);
}

// max_iterations bounds each semi-naive pass, not the sum of a batch's
// rounds: the retract pass's propagation rounds must not use up the
// insert pass's budget.
TEST(IncrementalTest, IterationLimitBoundsEachPass) {
  Options options;
  options.max_iterations = 64;  // the ring's fixpoint needs ~25
  Session session(LanguageMode::kLPS, options);
  ASSERT_OK(session.Load(RingSource()));
  ASSERT_OK(session.Evaluate());
  MoveRingChord(session);
  EXPECT_GT(session.eval_stats().delta_rounds, options.max_iterations);
  EXPECT_EQ(session.eval_stats().commit_route, CommitRoute::kIncremental);
}

TEST(IncrementalTest, MaintainerReportsIneligibleReason) {
  Session session(LanguageMode::kLDL);  // grouping heads need LDL
  ASSERT_OK(session.Load(R"(
    g(a, {1}). g(a, {2}).
    merged(X, <S>) :- g(X, S).
  )"));
  ASSERT_OK(session.Evaluate());
  IncrementalMaintainer maintainer(session.program(), session.database());
  auto ran = maintainer.Maintain({}, {});
  ASSERT_OK(ran.status());
  EXPECT_FALSE(*ran);
  EXPECT_FALSE(maintainer.ineligible_reason().empty());
}

// Indexes the maintainer builds for its own delta joins stay in the
// session; snapshot copies leave them out.
TEST(IncrementalTest, MaintenanceIndexesStayOutOfSnapshots) {
  std::string source =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  for (int i = 0; i < 32; ++i) {
    source += "edge(n" + std::to_string(i) + ", n" +
              std::to_string((i + 1) % 32) + ").\n";
  }
  Options options;
  options.reorder = false;  // source-order plans: path, then edge
  Session session(LanguageMode::kLPS, options);
  ASSERT_OK(session.Load(source));
  ASSERT_OK(session.Evaluate());
  const PredicateId path = session.program()->signature().Lookup("path", 2);
  // The fixpoint joins a path delta with edge; a delta on edge(Y, Z)
  // probes path by its second column, which only maintenance does.
  constexpr uint32_t kSecond = 0b10;
  ASSERT_FALSE(
      session.database()->FindRelation(path)->HasIndexBuilt(kSecond));
  auto first = session.Freeze();
  ASSERT_OK(first.status());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.RetractText("edge(n3, n4)"));
  ASSERT_OK(batch.Commit());
  EXPECT_TRUE(session.database()->FindRelation(path)->HasIndexBuilt(kSecond));
  auto next = session.FreezeIncremental(*first);
  ASSERT_OK(next.status());
  auto deep = session.Freeze();
  ASSERT_OK(deep.status());
  for (const auto* snap : {next->get(), deep->get()}) {
    const Relation* rel = snap->database().FindRelation(path);
    ASSERT_NE(rel, nullptr);
    EXPECT_FALSE(rel->HasIndexBuilt(kSecond));
  }
  EXPECT_EQ((*next)->database().ToCanonicalString((*next)->signature()),
            (*deep)->database().ToCanonicalString((*deep)->signature()));
}

TEST(MutationBatchTest, FactCommitBumpsFactEpochOnly) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const uint64_t rules = session.rule_epoch();
  const uint64_t facts = session.fact_epoch();
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(session.rule_epoch(), rules);      // rewrite caches survive
  EXPECT_EQ(session.fact_epoch(), facts + 1);  // fact readers refresh
  // A rule commit moves rule_epoch() as before.
  ASSERT_OK(session.Load("path(X, Y) :- back(X, Y). back(a, q)."));
  ASSERT_OK(session.Compile());
  EXPECT_GT(session.rule_epoch(), rules);
}

TEST(MutationBatchTest, AbortLeavesNoTrace) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const uint64_t epoch = session.program_epoch();
  const std::string before = session.database()->ToCanonicalString(
      session.program()->signature());
  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.RetractText("edge(a, b)"));
    EXPECT_EQ(batch.pending(), 2u);
    batch.Abort();
    EXPECT_FALSE(batch.Commit().ok());  // consumed
  }
  {
    MutationBatch dropped = session.Mutate();
    ASSERT_OK(dropped.AddText("edge(x, y)"));
    // Destruction without Commit() == Abort().
  }
  EXPECT_EQ(session.program_epoch(), epoch);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            before);
  EXPECT_FALSE(*session.Holds("edge(d, e)"));
}

TEST(MutationBatchTest, DeferredCommitTakesEffectAtEvaluate) {
  // Committing before the first Evaluate() only updates the program,
  // like the deprecated AddFact always did.
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Compile());  // AddText parses against the signature
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_FALSE(session.converged());
  EXPECT_EQ(session.database()->TupleCount(), 0u);
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
}

TEST(MutationBatchTest, StagingValidatesWithoutMutating) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  TermStore* store = session.store();
  // Arity mismatch and non-ground arguments are rejected at staging;
  // the batch stays usable. (The *named* Add overload would instead
  // declare a fresh edge/1 by inference - the AddFact contract.)
  PredicateId edge = session.program()->signature().Lookup("edge", 2);
  EXPECT_FALSE(batch.Add(edge, {store->MakeConstant("a")}).ok());
  EXPECT_FALSE(
      batch.AddText("edge(X, b)").ok());  // variables are not ground
  ASSERT_OK(batch.AddText("edge(d, e)"));
  // Retracting through an unknown predicate name is a no-op.
  ASSERT_OK(batch.Retract("never_declared", {store->MakeConstant("a")}));
  EXPECT_EQ(batch.pending(), 1u);
  ASSERT_OK(batch.Commit());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
}

TEST(MutationBatchTest, RetractEverythingEmptiesDerivations) {
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.RetractText("edge(a, b)"));
  ASSERT_OK(batch.RetractText("edge(b, c)"));
  ASSERT_OK(batch.RetractText("edge(c, d)"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(session.database()->TupleCount(), 0u);
  EXPECT_TRUE(session.converged());
}

TEST(IncrementalTest, ToggleReAddRevivesRowAndRederivesDownstream) {
  // Retract-then-re-add toggles: the re-add lands on the tombstoned
  // arena row of the original fact (revive-on-insert) *below* the
  // maintainer's watermark, so the incremental pass must pick it up
  // via the revive log rather than a range delta - and re-derive every
  // downstream path tuple, which sits on tombstoned rows itself. The
  // x-chain keeps the retract's dead rows below half the live ones, so
  // no relation is compacted in between.
  const std::string source =
      std::string(kGraph) +
      "edge(x1, x2). edge(x2, x3). edge(x3, x4). edge(x4, x5).\n";
  auto mutate = [](Session& s) {
    {
      MutationBatch batch = s.Mutate();
      ASSERT_OK(batch.RetractText("edge(b, c)"));
      ASSERT_OK(batch.Commit());
    }
    {
      MutationBatch batch = s.Mutate();
      ASSERT_OK(batch.AddText("edge(b, c)"));
      ASSERT_OK(batch.Commit());
    }
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(source));
  ASSERT_OK(session.Evaluate());
  const size_t arena_bytes_before = session.eval_stats().arena_bytes;
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(source, mutate));
  EXPECT_TRUE(*session.Holds("path(a, d)"));
  EXPECT_TRUE(*session.Holds("path(b, c)"));
  // The toggle appended nothing: every fact and derivation revived its
  // original row, so the arena is exactly as large as before.
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(session.eval_stats().arena_bytes, arena_bytes_before);
}

// A retract that leaves more dead rows than half the live ones
// compacts the relation at the end of its commit; the re-add then
// appends to the compacted arena instead of reviving.
TEST(IncrementalTest, HeavyRetractCompactsBeforeReAdd) {
  auto retract = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.RetractText("edge(b, c)"));
    ASSERT_OK(batch.Commit());
  };
  auto re_add = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(b, c)"));
    ASSERT_OK(batch.Commit());
  };
  auto mutate = [&](Session& s) {
    retract(s);
    re_add(s);
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  retract(session);
  EXPECT_EQ(session.eval_stats().compactions, 1u);  // path: 4 of 6 dead
  re_add(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
  EXPECT_TRUE(*session.Holds("path(a, d)"));
  // The edge row revived in place; path was compacted, then its
  // re-derivations appended: no relation carries a dead row.
  const Signature& sig = session.program()->signature();
  for (const auto& [pred, rs] : session.database()->CollectStats()) {
    EXPECT_EQ(rs.arena_rows, rs.live_rows) << sig.Name(pred);
  }
}

// Re-parenting churn on a forest (retract one parent edge, add
// another) retracts rows for good, which revive-on-insert cannot
// recycle. Compaction after each commit keeps every relation's arena
// within 1.5x its live rows, and the maintained database equals a
// from-scratch evaluation throughout.
TEST(IncrementalTest, DriftChurnCompactsTombstones) {
  constexpr size_t kTrees = 12;
  constexpr size_t kNodes = 10;
  std::vector<size_t> parent(kTrees * kNodes, 0);
  uint64_t seed = 99;
  auto rand_below = [&](size_t n) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>((seed >> 33) % n);
  };
  auto node = [](size_t t, size_t i) {
    return "t" + std::to_string(t) + "n" + std::to_string(i);
  };
  for (size_t t = 0; t < kTrees; ++t) {
    for (size_t i = 1; i < kNodes; ++i) parent[t * kNodes + i] = rand_below(i);
  }
  auto source = [&] {
    std::string src =
        "anc(X, Y) :- par(X, Y).\n"
        "anc(X, Z) :- anc(X, Y), par(Y, Z).\n";
    for (size_t t = 0; t < kTrees; ++t) {
      for (size_t i = 1; i < kNodes; ++i) {
        src += "par(" + node(t, i) + ", " +
               node(t, parent[t * kNodes + i]) + ").\n";
      }
    }
    return src;
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(source()));
  ASSERT_OK(session.Evaluate());
  // The bound-first-column index a point query builds lazily: it must
  // survive (rebuilt) every compaction.
  ASSERT_OK(session.Query("anc(t0n5, Y)").status());
  size_t compactions = 0;
  for (int commit = 1; commit <= 500; ++commit) {
    MutationBatch batch = session.Mutate();
    for (int move = 0; move < 3; ++move) {
      const size_t t = rand_below(kTrees);
      const size_t i = 2 + rand_below(kNodes - 2);
      size_t& p = parent[t * kNodes + i];
      size_t np = rand_below(i);
      while (np == p) np = rand_below(i);
      ASSERT_OK(batch.RetractText("par(" + node(t, i) + ", " + node(t, p) +
                                  ")"));
      ASSERT_OK(batch.AddText("par(" + node(t, i) + ", " + node(t, np) +
                              ")"));
      p = np;
    }
    ASSERT_OK(batch.Commit());
    ASSERT_TRUE(session.converged());
    compactions += session.eval_stats().compactions;
    size_t arena = 0;
    size_t live = 0;
    for (const auto& [pred, rs] : session.database()->CollectStats()) {
      ASSERT_LE(2 * rs.arena_rows, 3 * rs.live_rows) << "commit " << commit;
      arena += rs.arena_rows;
      live += rs.live_rows;
    }
    ASSERT_LE(static_cast<double>(arena), 1.5 * static_cast<double>(live));
    if (commit % 100 == 0) {
      Session fresh(LanguageMode::kLPS);
      ASSERT_OK(fresh.Load(source()));
      ASSERT_OK(fresh.Evaluate());
      ASSERT_EQ(session.database()->ToCanonicalString(
                    session.program()->signature()),
                fresh.database()->ToCanonicalString(
                    fresh.program()->signature()))
          << "commit " << commit;
      auto got = session.Query("anc(t3n9, Y)");
      auto want = fresh.Query("anc(t3n9, Y)");
      ASSERT_OK(got.status());
      ASSERT_OK(want.status());
      EXPECT_EQ(got->size(), want->size()) << "commit " << commit;
    }
  }
  EXPECT_GT(compactions, 0u);
}

// Active-domain terms are registered only when a row is freshly
// appended (Database::AddTupleEx): a duplicate's or a revived row's
// terms were registered when that row was first appended, and domains
// are append-only. A program with kEnumAtom / kEnumSet steps reads the
// domains directly, so evaluating it over a database whose EDB rows
// went through insert, duplicate insert, retract, revive and
// compaction must reproduce a from-scratch evaluation - domains
// included, in registration order.
TEST(ActiveDomainTest, EnumerationAfterReviveAndCompactionMatchesScratch) {
  Session s(LanguageMode::kLPS);
  ASSERT_OK(s.Load(R"(
    q(a). q(b). r({a, c}). r({d}). r({}).
    nq(X) :- not q(X).
    allq(S) :- forall E in S : q(E).
  )"));
  ASSERT_OK(s.Compile());
  const Program& program = *s.program();
  const Signature& sig = program.signature();
  bool has_atom_enum = false, has_set_enum = false;
  for (const Clause& c : program.clauses()) {
    auto plan = BuildRulePlan(*s.store(), sig, c);
    ASSERT_OK(plan.status());
    for (const BodyPlan* bp : {&plan->free_plan, &plan->empty_branch_plan}) {
      for (const PlanStep& st : bp->steps) {
        has_atom_enum |= st.kind == StepKind::kEnumAtom;
        has_set_enum |= st.kind == StepKind::kEnumSet;
      }
    }
  }
  ASSERT_TRUE(has_atom_enum);
  ASSERT_TRUE(has_set_enum);

  Database scratch(s.store(), &sig);
  ASSERT_OK(EvaluateProgram(program, &scratch).status());

  Database churned(s.store(), &sig);
  const FactLedger& facts = program.facts();
  auto erase = [&](const Literal& f) {
    RowId r = churned.FindRow(f.pred, f.args);
    ASSERT_NE(r, Relation::kNoRow);
    ASSERT_TRUE(churned.EraseRow(f.pred, r));
  };
  for (const Literal& f : facts) EXPECT_TRUE(churned.AddTuple(f.pred, f.args));
  for (const Literal& f : facts) {
    EXPECT_FALSE(churned.AddTuple(f.pred, f.args));  // duplicate
  }
  for (const Literal& f : facts) erase(f);
  for (const Literal& f : facts) {  // revive every row in place
    Relation::InsertOutcome out = churned.AddTupleEx(f.pred, f.args);
    EXPECT_TRUE(out.added && out.revived);
  }
  for (const Literal& f : facts) erase(f);
  EXPECT_GT(churned.CompactTombstones(), 0u);  // every relation emptied
  EXPECT_EQ(churned.TupleCount(), 0u);
  for (const Literal& f : facts) {  // fresh appends after compaction
    Relation::InsertOutcome out = churned.AddTupleEx(f.pred, f.args);
    EXPECT_TRUE(out.added && !out.revived);
  }
  erase(facts[0]);  // evaluation re-adds it: one more revive
  ASSERT_OK(EvaluateProgram(program, &churned).status());

  EXPECT_EQ(churned.ToCanonicalString(sig), scratch.ToCanonicalString(sig));
  EXPECT_EQ(churned.atom_domain(), scratch.atom_domain());
  EXPECT_EQ(churned.set_domain(), scratch.set_domain());
  PredicateId nq = sig.Lookup("nq", 1);
  PredicateId allq = sig.Lookup("allq", 1);
  ASSERT_NE(nq, kInvalidPredicate);
  ASSERT_NE(allq, kInvalidPredicate);
  EXPECT_TRUE(churned.Contains(nq, {s.store()->MakeConstant("c")}));
  EXPECT_TRUE(churned.Contains(allq, {s.store()->EmptySet()}));
}

}  // namespace
}  // namespace lps
