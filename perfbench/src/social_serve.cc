// social_serve: a clustered social graph bulk-loaded through
// LoadFactsParallel, evaluated, frozen and served with bound point
// queries whose keys favour a few hot communities.
//
// The graph has the SocialFollows shape: users in clusters of 64, each
// following the next member of a ring, the member three ahead, and one
// seeded member of the same cluster (~3 edges per user). reach is the
// recursive closure (a whole cluster per user), fof the two-hop join.
// Churn re-points users' seeded edge; under the default options each
// commit re-evaluates from scratch, which is what freshness measures
// here.
#include <algorithm>
#include <deque>
#include <set>

#include "pipeline.h"

namespace perfbench {
namespace {

constexpr size_t kCluster = 64;
constexpr size_t kUsers = 5120;
constexpr size_t kTinyUsers = 256;
constexpr double kHotShare = 0.8;  // requests that go to hot clusters
constexpr size_t kMovesPerCommit = 8;

constexpr const char* kRules = R"(
reach(X, Y) :- follows(X, Y).
reach(X, Z) :- reach(X, Y), follows(Y, Z).
fof(X, Z) :- follows(X, Y), follows(Y, Z).
)";

std::string User(size_t u) {
  std::string name = "u";  // append: "lit" + string trips gcc-12 -Wrestrict
  return name += std::to_string(u);
}

class SocialServe : public Workload {
 public:
  explicit SocialServe(const Args& args)
      : users_(args.tiny ? kTinyUsers : kUsers) {
    reads_per_round = 60;
    batches_per_round = 2;
    commits_per_round = 1;
    batch_size = 64;
    reads_per_publish = 1;
    Rng rng(args.seed);
    extra_.assign(users_, SIZE_MAX);
    for (size_t u = 0; u < users_; ++u) extra_[u] = PickExtra(u, &rng);
    const size_t clusters = users_ / kCluster;
    for (size_t c = 0; c < std::max<size_t>(1, clusters / 10); ++c) {
      hot_.push_back(rng.Below(clusters));
    }
    for (size_t u = 0; u < users_; ++u) {
      for (size_t v : Follows(u)) {
        facts_ += "follows(" + User(u) + ", " + User(v) + ").\n";
      }
    }
  }

  lps::Options SessionOptions(size_t lanes) const override {
    lps::Options o;
    o.threads = lanes;
    o.max_tuples = users_ * 4 * kCluster;
    return o;
  }

  void Load(lps::Session* session, Context* ctx) override {
    Tracer* tr = &ctx->tracer;
    lps::Status s;
    Timed(tr, "api.Load", 0, [&] { s = session->Load(kRules); });
    MustOk(s, "Load rules");
    Timed(tr, "api.Compile", 0, [&] { s = session->Compile(); });
    MustOk(s, "Compile");
    Timed(tr, "api.LoadFactsParallel", 0,
          [&] { s = session->LoadFactsParallel(facts_, ctx->lanes); });
    MustOk(s, "LoadFactsParallel");
  }

  std::vector<QuerySpec> Queries() const override {
    return {{"reach", 2}, {"fof", 2}};
  }

  lps::serve::ServeRequest NextRequest(Rng* rng) override {
    const size_t clusters = users_ / kCluster;
    const size_t c = rng->Unit() < kHotShare ? hot_[rng->Below(hot_.size())]
                                             : rng->Below(clusters);
    lps::serve::ServeRequest req;
    req.query = rng->Unit() < 0.75 ? 0 : 1;
    req.params = {{"X", User(c * kCluster + rng->Below(kCluster))}};
    return req;
  }

  size_t StageChurn(lps::Session* session, lps::MutationBatch* batch,
                    Rng* rng) override {
    lps::TermStore* store = session->store();
    std::set<size_t> moved;
    while (moved.size() < kMovesPerCommit) {
      const size_t u = rng->Below(users_);
      if (!moved.insert(u).second) continue;
      const size_t next = PickExtra(u, rng);
      const lps::TermId a = store->MakeConstant(User(u));
      MustOk(batch->Retract("follows", {a, store->MakeConstant(User(extra_[u]))}),
             "stage retract");
      MustOk(batch->Add("follows", {a, store->MakeConstant(User(next))}),
             "stage add");
      extra_[u] = next;
    }
    return 2 * kMovesPerCommit;
  }

  // reach over the current edge model by breadth-first search, for a
  // few users, against the session's own tuples.
  void CheckState(lps::Session* session, Context* ctx) override {
    Rng rng(users_ + 17);
    for (int i = 0; i < 8; ++i) {
      const size_t u = rng.Below(users_);
      std::set<size_t> seen;
      std::deque<size_t> frontier = {u};
      while (!frontier.empty()) {
        const size_t x = frontier.front();
        frontier.pop_front();
        for (size_t v : Follows(x)) {
          if (seen.insert(v).second) frontier.push_back(v);
        }
      }
      std::vector<std::string> want;
      for (size_t v : seen) {
        std::string row = "(";
        want.push_back(row += User(u) + ", " + User(v) + ")");
      }
      std::vector<std::string> got =
          QueryRows(session, "reach(" + User(u) + ", Y)");
      if (ctx->TakeCorruption("state")) got.push_back("(corrupted)");
      ctx->report.Check(Sorted(got) == Sorted(want),
                        "reach(" + User(u) + ", Y) differs from the BFS model");
    }
  }

 private:
  std::vector<size_t> Follows(size_t u) const {
    const size_t base = u / kCluster * kCluster;
    return {base + (u - base + 1) % kCluster, base + (u - base + 3) % kCluster,
            extra_[u]};
  }

  // A seeded same-cluster target that is not u, its ring or skip edge,
  // or its current seeded edge (so every edge stays one distinct fact).
  size_t PickExtra(size_t u, Rng* rng) const {
    const size_t base = u / kCluster * kCluster;
    const size_t ring = base + (u - base + 1) % kCluster;
    const size_t skip = base + (u - base + 3) % kCluster;
    for (;;) {
      const size_t v = base + rng->Below(kCluster);
      if (v != u && v != ring && v != skip && v != extra_[u]) return v;
    }
  }

  size_t users_;
  std::vector<size_t> extra_;
  std::vector<size_t> hot_;
  std::string facts_;
};

}  // namespace

void RunSocialServe(Context* ctx) {
  SocialServe w(ctx->args);
  RunPipeline(ctx, &w);
}

}  // namespace perfbench
