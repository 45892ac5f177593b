// Tests for the concurrent serving subsystem (src/serve/): snapshot
// freezing and cloning invariants, registry epoch/refcount lifecycle
// (pin -> republish -> unpin -> reclamation), read-safe parameter
// resolution, the QueryServer execution paths (probe / scan / builtin
// / empty fast path), and a multi-threaded hammer whose per-thread
// answer checksums must match a sequential ground truth - including
// while a writer keeps republishing fresh epochs underneath the
// readers (the TSan target for the whole subsystem).
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "serve/registry.h"
#include "serve/resolve.h"
#include "serve/snapshot.h"
#include "term/printer.h"

namespace lps {
namespace {

using serve::MissKind;
using serve::PinnedSnapshot;
using serve::QueryServer;
using serve::Resolution;
using serve::ServeAnswer;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::Snapshot;
using serve::SnapshotRegistry;

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

constexpr const char* kGraph = R"(
  edge(a, b). edge(b, c). edge(c, d). edge(d, e).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
)";

std::shared_ptr<const Snapshot> FreezeGraph(Session* session) {
  auto frozen = session->Freeze();
  EXPECT_TRUE(frozen.ok()) << frozen.status().ToString();
  return *frozen;
}

// ---- TermStore const lookups ----------------------------------------

TEST(TryLookupTest, FindsInternedTermsAndMissesOthers) {
  TermStore store;
  TermId a = store.MakeConstant("a");
  TermId i = store.MakeInt(42);
  TermId f = store.MakeFunction("f", {a, i});
  TermId s = store.MakeSet({a, i});
  const TermStore& cs = store;
  const size_t size_before = store.size();

  EXPECT_EQ(cs.TryLookupConstant("a"), a);
  EXPECT_EQ(cs.TryLookupInt(42), i);
  Symbol fs = cs.symbols().Lookup("f");
  EXPECT_EQ(cs.TryLookupFunction(fs, {a, i}), f);
  Tuple elems(store.args(s).begin(), store.args(s).end());
  EXPECT_EQ(cs.TryLookupCanonicalSet(elems), s);

  EXPECT_EQ(cs.TryLookupConstant("zzz"), kInvalidTerm);
  EXPECT_EQ(cs.TryLookupInt(-7), kInvalidTerm);
  EXPECT_EQ(cs.TryLookupFunction(fs, {i, a}), kInvalidTerm);
  Tuple other = {a};
  EXPECT_EQ(cs.TryLookupCanonicalSet(other), kInvalidTerm);
  // Pure probes: nothing was interned by any of the misses.
  EXPECT_EQ(store.size(), size_before);
}

TEST(TryLookupTest, CloneIsPrefixStable) {
  TermStore store;
  TermId a = store.MakeConstant("a");
  TermId s = store.MakeSet({a, store.MakeInt(1)});
  std::unique_ptr<TermStore> clone = store.Clone();
  ASSERT_EQ(clone->size(), store.size());
  // Identical ids denote identical terms in the clone...
  EXPECT_EQ(clone->TryLookupConstant("a"), a);
  EXPECT_EQ(TermToString(*clone, s), TermToString(store, s));
  // ...and ids interned after the clone sit past the shared prefix in
  // both stores independently.
  TermId fresh_in_clone = clone->MakeConstant("post_freeze");
  EXPECT_GE(fresh_in_clone, static_cast<TermId>(store.size()));
  EXPECT_EQ(store.TryLookupConstant("post_freeze"), kInvalidTerm);
}

// ---- Ground-term resolution -----------------------------------------

TEST(ResolveTest, ClassifiesMisses) {
  TermStore store;
  TermId a = store.MakeConstant("a");
  store.MakeInt(5);

  auto hit = serve::TryResolveGroundTerm(store, "a");
  ASSERT_OK(hit.status());
  EXPECT_EQ(hit->id, a);
  EXPECT_EQ(hit->missing, MissKind::kNone);

  auto missing_const = serve::TryResolveGroundTerm(store, "b");
  ASSERT_OK(missing_const.status());
  EXPECT_EQ(missing_const->missing, MissKind::kConstant);

  auto missing_int = serve::TryResolveGroundTerm(store, "17");
  ASSERT_OK(missing_int.status());
  EXPECT_EQ(missing_int->missing, MissKind::kOther);

  // A set over present elements that was itself never interned.
  auto missing_set = serve::TryResolveGroundTerm(store, "{a, 5}");
  ASSERT_OK(missing_set.status());
  EXPECT_EQ(missing_set->missing, MissKind::kOther);

  // A missing constant dominates inside a composite.
  auto nested = serve::TryResolveGroundTerm(store, "{a, b}");
  ASSERT_OK(nested.status());
  EXPECT_EQ(nested->missing, MissKind::kConstant);

  // Malformed / non-ground text is an error, not a miss.
  EXPECT_FALSE(serve::TryResolveGroundTerm(store, "X").ok());
  EXPECT_FALSE(serve::TryResolveGroundTerm(store, "f(a,").ok());
  EXPECT_FALSE(serve::TryResolveGroundTerm(store, "a b").ok());

  // The probes interned nothing; InternGroundTerm does.
  const size_t size_before = store.size();
  EXPECT_EQ(store.size(), size_before);
  auto interned = serve::InternGroundTerm(&store, "{a, 5}");
  ASSERT_OK(interned.status());
  auto again = serve::TryResolveGroundTerm(store, "{a, 5}");
  ASSERT_OK(again.status());
  EXPECT_EQ(again->id, *interned);
  EXPECT_EQ(again->missing, MissKind::kNone);
}

// ---- Snapshot freezing ----------------------------------------------

TEST(SnapshotTest, FreezeIsImmutableUnderSessionMutation) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  auto snap = FreezeGraph(&session);
  ASSERT_NE(snap, nullptr);
  // Freeze brought the session to fixpoint: the derived relation is
  // materialized. The snapshot's program carries the rules only; its
  // facts live in the database.
  EXPECT_EQ(snap->database().RelationSize(snap->signature().Lookup("path", 2)),
            10u);
  EXPECT_EQ(snap->program().clauses().size(), 2u);
  EXPECT_EQ(snap->program().facts().size(), 0u);
  const size_t frozen_rows = snap->database().TupleCount();

  // Mutate the session heavily: the snapshot must not move.
  ASSERT_OK(session.Load("edge(e, f). edge(f, g)."));
  ASSERT_OK(session.Evaluate());
  EXPECT_GT(session.database()->TupleCount(), frozen_rows);
  EXPECT_EQ(snap->database().TupleCount(), frozen_rows);

  // Prepared queries execute against the snapshot: the post-freeze
  // edges are invisible there but visible in the live session.
  auto q = session.Prepare("path(a, X)");
  ASSERT_OK(q.status());
  auto live = q->Execute();
  ASSERT_OK(live.status());
  auto live_rows = live->ToVector();
  ASSERT_OK(live_rows.status());
  auto frozen = q->ExecuteSnapshot(snap);
  ASSERT_OK(frozen.status());
  auto frozen_answers = frozen->ToVector();
  ASSERT_OK(frozen_answers.status());
  EXPECT_EQ(frozen_answers->size(), 4u);  // b, c, d, e
  EXPECT_GT(live_rows->size(), frozen_answers->size());
}

TEST(SnapshotTest, CursorOutlivesRegistryRetirement) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));

  auto q = session.Prepare("edge(X, Y)");
  ASSERT_OK(q.status());
  PinnedSnapshot pin = registry.Pin();
  auto cursor = q->ExecuteSnapshot(pin.snapshot());
  ASSERT_OK(cursor.status());
  // Retire the pinned epoch and drop the pin mid-stream: the cursor's
  // shared ownership keeps the snapshot memory alive.
  registry.Publish(FreezeGraph(&session));
  pin.Release();
  EXPECT_EQ(registry.reclaimed_count(), 1u);
  auto rows = cursor->ToVector();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows->size(), 4u);
}

// ---- Registry lifecycle ---------------------------------------------

TEST(RegistryTest, PinRepublishUnpinReclamationOrder) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  EXPECT_EQ(registry.current_epoch(), 0u);
  EXPECT_EQ(registry.Pin().snapshot(), nullptr);

  uint64_t e1 = registry.Publish(FreezeGraph(&session));
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(registry.current_epoch(), 1u);

  PinnedSnapshot reader = registry.Pin();
  EXPECT_EQ(reader.epoch(), 1u);
  ASSERT_NE(reader.snapshot(), nullptr);

  // Republish while the reader still holds epoch 1: the old epoch is
  // retired but NOT reclaimed, and new pins land on epoch 2.
  uint64_t e2 = registry.Publish(FreezeGraph(&session));
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(registry.live_snapshots(), 2u);
  EXPECT_EQ(registry.reclaimed_count(), 0u);
  EXPECT_EQ(registry.Pin().epoch(), 2u);  // temp pin, unpins at once

  // The reader keeps draining on its pinned epoch 1 snapshot.
  EXPECT_EQ(reader->database().TupleCount(),
            registry.Pin().snapshot()->database().TupleCount());

  // Deferred reclamation: epoch 1 dies exactly when its pin drops.
  reader.Release();
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.reclaimed_count(), 1u);

  // An unpinned retired epoch reclaims immediately at Publish.
  registry.Publish(FreezeGraph(&session));
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.reclaimed_count(), 2u);
  EXPECT_EQ(registry.published_count(), 3u);

  // The current epoch never reclaims, however many pins come and go.
  { PinnedSnapshot p1 = registry.Pin(); PinnedSnapshot p2 = registry.Pin(); }
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.current_epoch(), 3u);
}

// ---- QueryServer ----------------------------------------------------

ServeOptions TwoThreads() {
  ServeOptions o;
  o.threads = 2;
  return o;
}

// The probe and scan routes and the empty fast path. Every snapshot
// holds the least model, so a parameter term it does not contain - a
// constant, or an int, set or function term - answers empty without
// touching a row.
TEST(QueryServerTest, ScanProbeAndEmptyFastPaths) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());

  auto path_q = server.Prepare("path(X, Y)");
  ASSERT_OK(path_q.status());
  auto edge_q = server.Prepare("edge(X, Y)");
  ASSERT_OK(edge_q.status());
  EXPECT_FALSE(server.Prepare("path({a}, Y)").ok());  // sort error

  // Point query on the derived relation: path(a, Y) has exactly
  // b, c, d, e.
  ServeRequest req;
  req.query = *path_q;
  req.params = {{"X", "a"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(ans->count, 4u);
  std::set<std::string> rows(ans->rows.begin(), ans->rows.end());
  EXPECT_TRUE(rows.count("(a, e)")) << ans->rows.size();

  // Nothing bound: a full scan of the edge relation.
  req.query = *edge_q;
  req.params.clear();
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 4u);

  // Unknown constant: trivially empty without touching a row, on the
  // base relation and on the derived one; so is an integer the
  // snapshot never interned.
  req.params = {{"X", "nowhere"}};
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 0u);
  req.query = *path_q;
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 0u);
  req.params = {{"X", "17"}};
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(ans->count, 0u);

  // Per-request errors land in the answer, not the batch.
  ServeRequest bad;
  bad.query = 999;
  auto batch = server.ExecuteBatch({bad});
  ASSERT_OK(batch.status());
  EXPECT_FALSE((*batch)[0].status.ok());

  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.queries, 6u);
  EXPECT_EQ(stats.probe_queries, 1u);
  EXPECT_EQ(stats.scan_queries, 2u);
  EXPECT_EQ(stats.empty_fast_path, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.index_misses, 0u);
  EXPECT_GT(stats.last_batch_qps, 0.0);
  ASSERT_EQ(stats.query_routes.size(), 2u);
  EXPECT_EQ(stats.query_routes[*path_q].route, serve::ServeRoute::kProbe);
  EXPECT_EQ(stats.query_routes[*edge_q].route, serve::ServeRoute::kScan);
}

// A snapshot holds the least model: bound queries probe it, through a
// server side index when the snapshot lacks one for the mask.
TEST(QueryServerTest, ConvergedSnapshotTakesProbeRoute) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  auto snap = FreezeGraph(&session);
  const Relation* path =
      snap->database().FindRelation(snap->signature().Lookup("path", 2));
  ASSERT_NE(path, nullptr);
  ASSERT_FALSE(path->HasIndexBuilt(0b01));  // the server must supply it
  registry.Publish(snap);
  QueryServer server(&registry, TwoThreads());
  auto path_q = server.Prepare("path(X, Y)");
  ASSERT_OK(path_q.status());
  auto edge_q = server.Prepare("edge(X, Y)");
  ASSERT_OK(edge_q.status());

  const std::map<std::string, size_t> expected = {
      {"a", 4}, {"b", 3}, {"c", 2}, {"d", 1}, {"e", 0}};
  std::vector<ServeRequest> batch;
  for (const auto& [c, n] : expected) {
    ServeRequest req;
    req.query = *path_q;
    req.params = {{"X", c}};
    batch.push_back(req);
  }
  for (int round = 0; round < 2; ++round) {
    auto answers = server.ExecuteBatch(batch);
    ASSERT_OK(answers.status());
    size_t i = 0;
    for (const auto& [c, n] : expected) {
      ASSERT_OK((*answers)[i].status);
      EXPECT_EQ((*answers)[i].count, n) << c;
      auto truth = session.Query("path(" + c + ", Y)");
      ASSERT_OK(truth.status());
      EXPECT_EQ((*answers)[i].count, truth->size()) << c;
      ++i;
    }
  }
  ServeRequest edge;
  edge.query = *edge_q;
  edge.params = {{"X", "b"}};
  auto ans = server.Execute(edge);
  ASSERT_OK(ans.status());
  ASSERT_EQ(ans->count, 1u);
  EXPECT_EQ(ans->rows[0], "(b, c)");
  // Nothing bound: the scan route.
  edge.params.clear();
  ans = server.Execute(edge);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 4u);

  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.index_misses, 0u);
  EXPECT_EQ(stats.probe_queries, 2 * expected.size() + 1);
  EXPECT_EQ(stats.scan_queries, stats.probe_queries + 1);
  // Each side index was built once, in the first batch that needed
  // it, and serves every later batch on this snapshot.
  EXPECT_GE(stats.side_index_builds, 1u);
  EXPECT_EQ(stats.side_indexes, stats.side_index_builds);
  ASSERT_OK(server.ExecuteBatch(batch).status());
  ASSERT_OK(server.Execute(edge).status());
  EXPECT_EQ(server.stats().side_index_builds, stats.side_index_builds);
  ASSERT_EQ(stats.query_routes.size(), 2u);
  EXPECT_EQ(stats.query_routes[*path_q].route, serve::ServeRoute::kProbe);
  EXPECT_STREQ(serve::ServeRouteName(stats.query_routes[*path_q].route),
               "probe");
  EXPECT_NE(std::string(stats.query_routes[*path_q].reason).find("side"),
            std::string::npos);
  EXPECT_EQ(stats.query_routes[*edge_q].route, serve::ServeRoute::kScan);
  // The snapshot itself was never touched.
  EXPECT_FALSE(path->HasIndexBuilt(0b01));
}

TEST(QueryServerTest, SideIndexCoversEveryBoundArgumentShape) {
  // A column is bound by a constant in the goal, by a parameter, or by
  // a parameter naming a variable that occurs in two columns; each
  // batch must find the side index it probes already provisioned.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Load("path(a, a)."));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  struct Case {
    std::string goal;
    std::vector<std::pair<std::string, std::string>> params;
    std::string truth;
  };
  const std::vector<Case> cases = {
      {"path(a, Y)", {}, "path(a, Y)"},
      {"path(X, Y)", {{"X", "b"}, {"Y", "d"}}, "path(b, d)"},
      {"path(X, X)", {{"X", "a"}}, "path(a, a)"},
      {"path(X, c)", {{"X", "a"}}, "path(a, c)"},
  };
  for (const Case& c : cases) {
    auto q = server.Prepare(c.goal);
    ASSERT_OK(q.status());
    ServeRequest req;
    req.query = *q;
    req.params = c.params;
    auto ans = server.ExecuteBatch({req, req});
    ASSERT_OK(ans.status());
    auto truth = session.Query(c.truth);
    ASSERT_OK(truth.status());
    for (const ServeAnswer& a : *ans) {
      ASSERT_OK(a.status);
      EXPECT_EQ(a.count, truth->size()) << c.goal;
    }
    EXPECT_EQ(server.stats().query_routes[*q].route,
              serve::ServeRoute::kProbe)
        << c.goal;
  }
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.index_misses, 0u);
  EXPECT_EQ(stats.probe_queries, 2 * cases.size());
}

TEST(QueryServerTest, RebindOnRepublishWithNewTerms) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 1;  // one worker, so bind accounting is deterministic
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ServeRequest req;
  req.query = *q;
  for (const char* c : {"a", "b", "a"}) {
    req.params = {{"X", c}};
    auto ans = server.Execute(req);
    ASSERT_OK(ans.status());
    ASSERT_OK(ans->status);
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.worker_rebinds, 1u);  // bound once, reused across requests

  // Publish a grown database with a new constant: the term store grew,
  // so the worker re-binds (fresh clone, plans dropped) and the new
  // edge becomes visible.
  ASSERT_OK(session.Load("edge(e, f)."));
  registry.Publish(FreezeGraph(&session));
  req.params = {{"X", "e"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_EQ(ans->count, 1u);
  EXPECT_EQ(ans->rows[0], "(e, f)");
  stats = server.stats();
  EXPECT_EQ(stats.worker_rebinds, 2u);  // initial bind + republish
  EXPECT_EQ(stats.worker_refreshes, 0u);
}

TEST(QueryServerTest, FactOnlyRepublishRefreshesWorkerInPlace) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 1;  // one worker, so bind accounting is deterministic
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "a"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 4u);

  // Mutate facts over already-interned terms: rule_epoch() and the
  // append-only term-id prefix both stand still, so the republished
  // snapshot is compatible with the worker's bound state. The worker
  // refreshes in place - store clone and plans kept - instead of
  // re-binding, and answers from the new snapshot.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(b, a)"));  // cycle: path(a, a) appears
  ASSERT_OK(batch.Commit());
  registry.Publish(FreezeGraph(&session));

  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 5u);  // the new cycle answer is served
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.worker_refreshes, 1u);
  EXPECT_EQ(stats.worker_rebinds, 1u);  // only the initial bind
}

TEST(QueryServerTest, BuiltinGoalsInternIntoWorkerScratch) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load("num(1). num(2). num(3)."));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("X < 3");
  ASSERT_OK(q.status());
  ServeRequest req;
  req.query = *q;
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  std::set<std::string> rows(ans->rows.begin(), ans->rows.end());
  EXPECT_EQ(rows, (std::set<std::string>{"(1, 3)", "(2, 3)"}));
}

// Sequential ground truth for the hammer tests: every path(c, _)
// answer set rendered and summarized the same way the server does.
std::map<std::string, size_t> GroundTruthCounts(
    Session* session, const std::vector<std::string>& consts) {
  std::map<std::string, size_t> counts;
  for (const std::string& c : consts) {
    auto rows = session->Query("path(" + c + ", Y)");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    counts[c] = rows->size();
  }
  return counts;
}

TEST(QueryServerTest, HammerMatchesSequentialGroundTruth) {
  // A denser random-ish graph so point queries have real answer sets.
  Session session(LanguageMode::kLPS);
  std::string facts;
  const size_t n = 24;
  for (size_t i = 0; i < n; ++i) {
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string((i * 7 + 3) % n) + ").\n";
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string((i * 5 + 1) % n) + ").\n";
  }
  ASSERT_OK(session.Load(facts));
  ASSERT_OK(session.Load(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  ASSERT_OK(session.Evaluate());

  std::vector<std::string> consts;
  for (size_t i = 0; i < n; ++i) consts.push_back("n" + std::to_string(i));
  std::map<std::string, size_t> truth = GroundTruthCounts(&session, consts);

  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 4;
  opts.record_answers = false;  // checksums only, as the bench runs
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  // First a sequential reference pass for the checksums themselves.
  ServeOptions seq_opts;
  seq_opts.threads = 1;
  seq_opts.record_answers = false;
  QueryServer reference(&registry, seq_opts);
  auto ref_q = reference.Prepare("path(X, Y)");
  ASSERT_OK(ref_q.status());
  std::map<std::string, uint64_t> ref_sums;
  for (const std::string& c : consts) {
    ServeRequest req;
    req.query = *ref_q;
    req.params = {{"X", c}};
    auto ans = reference.Execute(req);
    ASSERT_OK(ans.status());
    ASSERT_OK(ans->status);
    EXPECT_EQ(ans->count, truth[c]) << c;
    ref_sums[c] = ans->checksum;
  }

  // Hammer: many copies of every point query in one striped batch.
  std::vector<ServeRequest> batch;
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::string& c : consts) {
      ServeRequest req;
      req.query = *q;
      req.params = {{"X", c}};
      batch.push_back(req);
    }
  }
  auto answers = server.ExecuteBatch(batch);
  ASSERT_OK(answers.status());
  ASSERT_EQ(answers->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string& c = batch[i].params[0].second;
    const ServeAnswer& a = (*answers)[i];
    ASSERT_OK(a.status);
    EXPECT_EQ(a.count, truth[c]) << c;
    EXPECT_EQ(a.checksum, ref_sums[c]) << c;
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.p99_us + 1.0, stats.p50_us);
}

TEST(QueryServerTest, ConcurrentWriterRepublication) {
  // Reader threads run batches while the writer keeps growing the
  // session and publishing fresh epochs. Every answer must be
  // internally consistent with *some* published epoch: the path count
  // from n0 only ever grows as edges accumulate.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(
      "edge(n0, n1).\n"
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  std::atomic<bool> stop{false};
  std::atomic<size_t> batches{0};
  std::thread reader([&] {
    size_t last = 0;
    while (!stop.load()) {
      ServeRequest req;
      req.query = *q;
      req.params = {{"X", "n0"}};
      auto ans = server.Execute(req);
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
      ASSERT_TRUE(ans->status.ok()) << ans->status.ToString();
      // Monotone: each epoch only adds reachable nodes.
      ASSERT_GE(ans->count, last);
      last = ans->count;
      ++batches;
    }
  });
  for (int i = 1; i < 12; ++i) {
    ASSERT_OK(session.Load("edge(n" + std::to_string(i) + ", n" +
                           std::to_string(i + 1) + ")."));
    auto frozen = session.Freeze();
    ASSERT_OK(frozen.status());
    registry.Publish(*frozen);
  }
  // Let the reader observe the final epoch at least once.
  size_t seen = batches.load();
  while (batches.load() < seen + 2) std::this_thread::yield();
  stop.store(true);
  reader.join();

  // Exactly one epoch stays live once readers drain; the final answer
  // on a fresh pin sees the full chain.
  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "n0"}};
  auto final_ans = server.Execute(req);
  ASSERT_OK(final_ans.status());
  EXPECT_EQ(final_ans->count, 12u);
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.reclaimed_count(), registry.published_count() - 1);
}

// ---- Copy-on-write republication (Session::FreezeIncremental) -------

// Two independent predicate families, so a mutation confined to one
// leaves the other physically untouched.
constexpr const char* kTwoFamilies = R"(
  edge(a, b). edge(b, c).
  color(a, red). color(b, blue).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
  hue(Y) :- color(X, Y).
)";

// pred name -> relation pointer, the physical-sharing witness.
std::unordered_map<std::string, const Relation*> RelationPointers(
    const Snapshot& snap) {
  std::unordered_map<std::string, const Relation*> out;
  for (const auto& [pred, rel] : snap.database().Relations()) {
    out[snap.signature().Name(pred)] = rel;
  }
  return out;
}

TEST(CowSnapshotTest, SharesUnchangedClonesMutatedByteIdentical) {
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  ASSERT_OK(session.Load(kTwoFamilies));
  ASSERT_OK(session.Evaluate());
  auto base = session.Freeze();
  ASSERT_OK(base.status());
  // A full freeze clones everything and shares nothing.
  EXPECT_EQ((*base)->cow_stats().relations_shared, 0u);
  EXPECT_FALSE((*base)->cow_stats().store_shared);

  // Mutate the edge family only, over already-interned constants.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(c, a)"));
  ASSERT_OK(batch.Commit());

  auto inc = session.FreezeIncremental(*base);
  ASSERT_OK(inc.status());
  auto full = session.Freeze();
  ASSERT_OK(full.status());

  // Byte identity with the deep-clone freeze of the same state.
  EXPECT_EQ((*inc)->database().ToCanonicalString((*inc)->signature()),
            (*full)->database().ToCanonicalString((*full)->signature()));

  // Physical sharing: untouched family aliased, touched family cloned.
  auto base_rels = RelationPointers(**base);
  auto inc_rels = RelationPointers(**inc);
  EXPECT_EQ(inc_rels.at("color"), base_rels.at("color"));
  EXPECT_EQ(inc_rels.at("hue"), base_rels.at("hue"));
  EXPECT_NE(inc_rels.at("edge"), base_rels.at("edge"));
  EXPECT_NE(inc_rels.at("path"), base_rels.at("path"));

  const serve::CowStats& cow = (*inc)->cow_stats();
  EXPECT_GE(cow.relations_shared, 2u);  // color, hue
  EXPECT_GE(cow.relations_cloned, 2u);  // edge, path
  EXPECT_GT(cow.bytes_shared, 0u);
  // No new constant was interned, so the stores alias too.
  EXPECT_TRUE(cow.store_shared);
  EXPECT_EQ(&(*inc)->store(), &(*base)->store());

  // The chain serves correctly: a server over the COW snapshot answers
  // exactly like one over the deep clone.
  SnapshotRegistry registry;
  registry.Publish(*inc);
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "c"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(ans->count, 3u);  // c -> a -> b -> c
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.relations_shared, cow.relations_shared);
  EXPECT_TRUE(stats.store_shared);
}

// Sorted rendered rows of path(c, Y) for every c in `consts`.
std::vector<std::vector<std::string>> ServeAll(
    QueryServer* server, size_t query, const std::vector<std::string>& consts) {
  std::vector<ServeRequest> batch;
  for (const std::string& c : consts) {
    ServeRequest req;
    req.query = query;
    req.params = {{"X", c}};
    batch.push_back(req);
  }
  auto answers = server->ExecuteBatch(batch);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  std::vector<std::vector<std::string>> out;
  for (const ServeAnswer& a : *answers) {
    EXPECT_TRUE(a.status.ok()) << a.status.ToString();
    std::vector<std::string> rows = a.rows;
    std::sort(rows.begin(), rows.end());
    out.push_back(std::move(rows));
  }
  return out;
}

// Sorted rendered answers of path(c, Y) for every c in `consts`,
// evaluated goal-directed by `session`'s magic-set path
// (PreparedQuery::ExecuteDemand) without a full fixpoint.
std::vector<std::vector<std::string>> DemandAll(
    Session* session, const std::vector<std::string>& consts) {
  std::vector<std::vector<std::string>> out;
  auto q = session->Prepare("path(X, Y)");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  for (const std::string& c : consts) {
    EXPECT_TRUE(q->BindText("X", c).ok());
    auto cursor = q->ExecuteDemand();
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto tuples = cursor->ToVector();
    EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
    // The rewrite applied: the answer came from a magic-set
    // evaluation, not the full-fixpoint fallback.
    EXPECT_GT(session->eval_stats().magic_predicates, 0u) << c;
    EXPECT_EQ(session->eval_stats().demand_fallback_reason, "") << c;
    std::vector<std::string> rows;
    for (const Tuple& t : *tuples) rows.push_back(session->TupleToString(t));
    std::sort(rows.begin(), rows.end());
    out.push_back(std::move(rows));
  }
  return out;
}

// The probe route (a converged copy-on-write chain) and the session's
// magic-set demand evaluation of the same facts render byte-identical
// answers, before and after a republish.
TEST(CowSnapshotTest, ProbeAndDemandRoutesAgreeAcrossRepublish) {
  Options opt;
  opt.incremental = true;
  Session served(LanguageMode::kLPS, opt);
  ASSERT_OK(served.Load(kTwoFamilies));
  ASSERT_OK(served.Evaluate());
  Options lazy_opt;
  lazy_opt.demand = true;
  Session lazy(LanguageMode::kLPS, lazy_opt);
  ASSERT_OK(lazy.Load(kTwoFamilies));

  SnapshotRegistry probe_reg;
  auto prev = served.FreezeIncremental(nullptr);
  ASSERT_OK(prev.status());
  probe_reg.Publish(*prev);
  QueryServer probe(&probe_reg, TwoThreads());
  auto pq = probe.Prepare("path(X, Y)");
  ASSERT_OK(pq.status());
  const std::vector<std::string> consts = {"a", "b", "c"};

  auto check = [&](const char* when) {
    auto by_probe = ServeAll(&probe, *pq, consts);
    auto by_demand = DemandAll(&lazy, consts);
    EXPECT_EQ(by_probe, by_demand) << when;
    for (size_t i = 0; i < consts.size(); ++i) {
      auto truth = served.Query("path(" + consts[i] + ", Y)");
      ASSERT_OK(truth.status());
      std::vector<std::string> rows;
      for (const Tuple& t : *truth) rows.push_back(served.TupleToString(t));
      std::sort(rows.begin(), rows.end());
      EXPECT_EQ(by_probe[i], rows) << when << " " << consts[i];
    }
  };
  check("initial");
  // Demand evaluation never filled the referee's own database.
  EXPECT_FALSE(lazy.converged());

  for (Session* s : {&served, &lazy}) {
    MutationBatch batch = s->Mutate();
    ASSERT_OK(batch.AddText("edge(c, a)"));
    ASSERT_OK(batch.RetractText("edge(a, b)"));
    ASSERT_OK(batch.Commit());
  }
  auto next = served.FreezeIncremental(*prev);
  ASSERT_OK(next.status());
  probe_reg.Publish(*next);
  check("after republish");

  serve::ServeStats ps = probe.stats();
  EXPECT_EQ(ps.probe_queries, 2 * consts.size());
  EXPECT_EQ(ps.index_misses, 0u);
}

// Side indexes follow copy-on-write republication: one on a relation
// the commit did not touch is reused, one on a rewritten relation is
// rebuilt, and one whose relation left the snapshot is dropped.
TEST(CowSnapshotTest, SideIndexReusedForUnchangedRelations) {
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  ASSERT_OK(session.Load(R"(
    e0(a, b). e0(b, c).
    e1(x, y). e1(y, z).
    p0(X, Y) :- e0(X, Y).
    p0(X, Z) :- p0(X, Y), e0(Y, Z).
    p1(X, Y) :- e1(X, Y).
    p1(X, Z) :- p1(X, Y), e1(Y, Z).
  )"));
  ASSERT_OK(session.Evaluate());
  auto snap = session.FreezeIncremental(nullptr);
  ASSERT_OK(snap.status());
  SnapshotRegistry registry;
  registry.Publish(*snap);
  ServeOptions opts;
  opts.threads = 1;
  QueryServer server(&registry, opts);
  auto q0 = server.Prepare("p0(X, Y)");
  auto q1 = server.Prepare("p1(X, Y)");
  ASSERT_OK(q0.status());
  ASSERT_OK(q1.status());
  auto serve_both = [&] {
    ServeRequest r0;
    r0.query = *q0;
    r0.params = {{"X", "a"}};
    ServeRequest r1;
    r1.query = *q1;
    r1.params = {{"X", "x"}};
    auto answers = server.ExecuteBatch({r0, r1});
    EXPECT_TRUE(answers.ok());
    return std::make_pair((*answers)[0].count, (*answers)[1].count);
  };
  EXPECT_EQ(serve_both(), std::make_pair(size_t{2}, size_t{2}));
  EXPECT_EQ(server.stats().side_index_builds, 2u);

  // Touch the p0 family only: p1's relation is shared by the new
  // snapshot, so its side index is reused; p0's is rebuilt.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("e0(c, a)"));
  ASSERT_OK(batch.Commit());
  auto next = session.FreezeIncremental(*snap);
  ASSERT_OK(next.status());
  registry.Publish(*next);
  EXPECT_EQ(serve_both(), std::make_pair(size_t{3}, size_t{2}));
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.side_index_builds, 3u);
  EXPECT_EQ(stats.side_indexes, 2u);
  EXPECT_EQ(stats.index_misses, 0u);

  // Serve p1 only after another p0 commit: p0's side index belongs to
  // a relation the pinned snapshot no longer holds, so it is dropped.
  MutationBatch again = session.Mutate();
  ASSERT_OK(again.RetractText("e0(c, a)"));
  ASSERT_OK(again.Commit());
  auto third = session.FreezeIncremental(*next);
  ASSERT_OK(third.status());
  registry.Publish(*third);
  ServeRequest r1;
  r1.query = *q1;
  r1.params = {{"X", "x"}};
  auto ans = server.Execute(r1);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 2u);
  stats = server.stats();
  EXPECT_EQ(stats.side_index_builds, 3u);
  EXPECT_EQ(stats.side_indexes, 1u);
}

TEST(CowSnapshotTest, ClonesStoreWhenNewTermsIntern) {
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  ASSERT_OK(session.Load(kTwoFamilies));
  ASSERT_OK(session.Evaluate());
  auto base = session.Freeze();
  ASSERT_OK(base.status());

  // `d` is a fresh constant: the term store grew, so it cannot alias.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(c, d)"));
  ASSERT_OK(batch.Commit());
  auto inc = session.FreezeIncremental(*base);
  ASSERT_OK(inc.status());
  EXPECT_FALSE((*inc)->cow_stats().store_shared);
  EXPECT_NE(&(*inc)->store(), &(*base)->store());
  // Untouched relations still alias: store sharing and relation
  // sharing are independent decisions.
  EXPECT_GE((*inc)->cow_stats().relations_shared, 2u);
  auto full = session.Freeze();
  ASSERT_OK(full.status());
  EXPECT_EQ((*inc)->database().ToCanonicalString((*inc)->signature()),
            (*full)->database().ToCanonicalString((*full)->signature()));
}

TEST(CowSnapshotTest, RejectsForeignPrevAndNullPrevIsFullFreeze) {
  Session a(LanguageMode::kLPS);
  ASSERT_OK(a.Load(kGraph));
  auto a_snap = a.Freeze();
  ASSERT_OK(a_snap.status());

  Session b(LanguageMode::kLPS);
  ASSERT_OK(b.Load(kGraph));
  // Content ticks are only meaningful along one session's lineage.
  auto foreign = b.FreezeIncremental(*a_snap);
  EXPECT_FALSE(foreign.ok());

  // No previous snapshot: degrades to a full freeze, not an error.
  auto first = b.FreezeIncremental(nullptr);
  ASSERT_OK(first.status());
  EXPECT_EQ((*first)->cow_stats().relations_shared, 0u);
  EXPECT_FALSE((*first)->cow_stats().store_shared);
  EXPECT_EQ((*first)->database().TupleCount(),
            (*a_snap)->database().TupleCount());
}

// ---- Admission control ----------------------------------------------

TEST(QueryServerTest, ExpiredBatchDeadlineRejectsWithoutWork) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 2;
  opts.batch_timeout_micros = 1e-4;  // expired by the time any request starts
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "a"}};
  auto batch = server.ExecuteBatch({req, req, req});
  ASSERT_OK(batch.status());
  for (const ServeAnswer& ans : *batch) {
    EXPECT_EQ(ans.status.code(), StatusCode::kDeadlineExceeded)
        << ans.status.ToString();
    EXPECT_EQ(ans.count, 0u);  // rejected before any work
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.admission_rejected, 3u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.errors, 0u);  // a deadline is policy, not malfunction
}

TEST(QueryServerTest, MidScanDeadlineReturnsTypedPartialPromptly) {
  // A full scan that outlasts its timeout: ~300k rows, each rendering
  // a 16-element set. The rows are cheap enough that the scan loop's
  // clock read (every 256th row) bounds the overshoot tightly.
  std::string facts = "big({";
  for (int i = 0; i < 16; ++i) facts += (i ? ", " : "") + std::to_string(i);
  facts += "}).\n";
  for (int i = 0; i < 550; ++i) facts += "n(" + std::to_string(i) + ").\n";
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(facts));
  ASSERT_OK(session.Load("grid(X, Y, S) :- n(X), n(Y), big(S)."));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());  // record_answers on
  auto scan = server.Prepare("grid(X, Y, S)");
  ASSERT_OK(scan.status());
  auto point = server.Prepare("n(X)");
  ASSERT_OK(point.status());

  constexpr double kTimeoutMicros = 100000;  // 100ms
  ServeRequest slow;
  slow.query = *scan;
  slow.timeout_micros = kTimeoutMicros;
  ServeRequest mate;
  mate.query = *point;
  mate.params = {{"X", "7"}};
  std::vector<ServeRequest> batch{slow, mate, mate, mate};

  const auto t0 = std::chrono::steady_clock::now();
  auto answers = server.ExecuteBatch(batch);
  const double elapsed_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0).count();
  ASSERT_OK(answers.status());
  ASSERT_EQ(answers->size(), 4u);

  // The scan comes back as a typed partial outcome within 2x its
  // timeout, carrying the rows it rendered before the cut.
  const ServeAnswer& cut = (*answers)[0];
  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded)
      << cut.status.ToString();
  EXPECT_TRUE(cut.partial);
  EXPECT_GT(cut.count, 0u);
  EXPECT_LT(cut.count, 550u * 550u);
  EXPECT_EQ(cut.rows.size(), cut.count);
  EXPECT_LT(elapsed_micros, 2 * kTimeoutMicros);

  // ...without stalling its lane-mates.
  for (size_t i = 1; i < answers->size(); ++i) {
    ASSERT_OK((*answers)[i].status);
    EXPECT_EQ((*answers)[i].count, 1u);  // n(7)
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.admission_rejected, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(QueryServerTest, ZeroDeadlineUnlimitedAndMaxTuplesTruncates) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  // Zero timeout (the default) means no deadline at all.
  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "a"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_FALSE(ans->partial);
  EXPECT_EQ(ans->count, 4u);

  // max_tuples caps the answer set: a prefix comes back marked partial
  // with an OK status (a cap is an answer-shape contract, not an
  // overload outcome).
  req.max_tuples = 2;
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_TRUE(ans->partial);
  EXPECT_EQ(ans->count, 2u);
  EXPECT_EQ(ans->rows.size(), 2u);

  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.admission_rejected, 0u);
}

// ---- COW republish soak ---------------------------------------------

// A writer republishes FreezeIncremental snapshots under sustained
// reader load, with a periodic byte-identity referee against a
// deep-clone freeze. PR runs exercise the path for a fraction of a
// second; the nightly TSan job sets LPS_SERVE_SOAK_SECONDS=60 (see
// .github/workflows/ci.yml soak-serving).
TEST(QueryServerTest, SoakCowRepublishUnderReaderLoad) {
  double seconds = 0.2;
  if (const char* env = std::getenv("LPS_SERVE_SOAK_SECONDS")) {
    seconds = std::max(0.05, std::atof(env));
  }
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  std::string facts;
  const int n = 16;
  for (int i = 0; i + 1 < n; ++i) {
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string(i + 1) + ").\n";
  }
  ASSERT_OK(session.Load(facts));
  ASSERT_OK(session.Load(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  ASSERT_OK(session.Evaluate());
  auto first = session.Freeze();
  ASSERT_OK(first.status());
  std::shared_ptr<const Snapshot> prev = *first;
  SnapshotRegistry registry;
  registry.Publish(prev);
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load()) {
        ServeRequest req;
        req.query = *q;
        req.params = {{"X", "n" + std::to_string(r)}};
        auto ans = server.Execute(req);
        ASSERT_TRUE(ans.ok()) << ans.status().ToString();
        ASSERT_TRUE(ans->status.ok()) << ans->status.ToString();
        ASSERT_GE(ans->count, static_cast<size_t>(n - 2 - r));
        ++reads;
      }
    });
  }

  // Writer: toggle a shortcut edge over existing constants, republish
  // a COW snapshot each commit, referee every 8th epoch.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  size_t epochs = 0;
  bool present = false;
  while (std::chrono::steady_clock::now() < deadline) {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(present ? batch.RetractText("edge(n0, n5)")
                      : batch.AddText("edge(n0, n5)"));
    ASSERT_OK(batch.Commit());
    present = !present;
    auto inc = session.FreezeIncremental(prev);
    ASSERT_OK(inc.status());
    if (++epochs % 8 == 0) {
      auto full = session.Freeze();
      ASSERT_OK(full.status());
      ASSERT_EQ(
          (*inc)->database().ToCanonicalString((*inc)->signature()),
          (*full)->database().ToCanonicalString((*full)->signature()));
    }
    prev = *inc;
    registry.Publish(prev);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(epochs, 0u);
  EXPECT_GT(reads.load(), 0u);
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

}  // namespace
}  // namespace lps
