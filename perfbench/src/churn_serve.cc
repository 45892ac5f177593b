// churn_serve: reads beside writes. An ancestry forest split across
// several relation families (par<k>/anc<k>) is maintained under
// Options::incremental while one thread loops
//
//   commit a MutationBatch of drift churn: re-parent nodes of one
//   family by retract + add, so tombstones accrue
//   -> FreezeIncremental -> Publish -> uniform point reads
//
// The work lands on incremental maintenance, copy-on-write
// republication (untouched families are shared), the server's worker
// refresh and storage under drift. Ingest and the full fixpoint run only
// in setup. The referee re-evaluates the workload's own model of the
// mutated fact set from scratch in a fresh session.
#include <set>

#include "pipeline.h"

namespace perfbench {
namespace {

struct Sizes {
  size_t families;
  size_t trees;  // per family
  size_t nodes;  // per tree
  size_t moves;  // re-parentings per commit
};

constexpr Sizes kFull = {8, 250, 25, 100};
constexpr Sizes kTiny = {2, 8, 10, 6};

std::string Node(size_t f, size_t t, size_t i) {
  std::string name = "f";  // append: "lit" + string trips gcc-12 -Wrestrict
  return name += std::to_string(f) + "t" + std::to_string(t) + "n" +
                 std::to_string(i);
}

class ChurnServe : public Workload {
 public:
  explicit ChurnServe(const Args& args) : z_(args.tiny ? kTiny : kFull) {
    commits_per_round = 8;
    batch_size = 8;
    reads_per_publish = 4;
    batches_per_publish = 1;
    check_every_commits = 50;
    Rng rng(args.seed);
    parent_.assign(z_.families * z_.trees * z_.nodes, 0);
    for (size_t f = 0; f < z_.families; ++f) {
      for (size_t t = 0; t < z_.trees; ++t) {
        for (size_t i = 1; i < z_.nodes; ++i) {
          parent_[Slot(f, t, i)] = rng.Below(i);
        }
      }
    }
  }

  lps::Options SessionOptions(size_t lanes) const override {
    lps::Options o;
    o.threads = lanes;
    o.incremental = true;
    o.max_tuples = 20000000;
    return o;
  }

  void Load(lps::Session* session, Context* ctx) override {
    const std::string src = Source();
    Tracer* tr = &ctx->tracer;
    lps::Status s;
    Timed(tr, "api.Load", 0, [&] { s = session->Load(src); });
    MustOk(s, "Load");
    Timed(tr, "api.Compile", 0, [&] { s = session->Compile(); });
    MustOk(s, "Compile");
  }

  std::vector<QuerySpec> Queries() const override {
    std::vector<QuerySpec> q;
    for (size_t f = 0; f < z_.families; ++f) {
      q.push_back({"anc" + std::to_string(f), 2});
    }
    return q;
  }

  lps::serve::ServeRequest NextRequest(Rng* rng) override {
    lps::serve::ServeRequest req;
    req.query = rng->Below(z_.families);
    req.params = {{"X", Node(req.query, rng->Below(z_.trees),
                             rng->Below(z_.nodes))}};
    return req;
  }

  size_t StageChurn(lps::Session* session, lps::MutationBatch* batch,
                    Rng* rng) override {
    lps::TermStore* store = session->store();
    const size_t f = rng->Below(z_.families);
    const std::string pred = "par" + std::to_string(f);
    std::set<size_t> moved;
    while (moved.size() < z_.moves) {
      const size_t t = rng->Below(z_.trees);
      const size_t i = 2 + rng->Below(z_.nodes - 2);
      if (!moved.insert(Slot(f, t, i)).second) continue;
      size_t& p = parent_[Slot(f, t, i)];
      size_t np = rng->Below(i);
      while (np == p) np = rng->Below(i);
      const lps::TermId child = store->MakeConstant(Node(f, t, i));
      MustOk(batch->Retract(pred, {child, store->MakeConstant(Node(f, t, p))}),
             "stage retract");
      MustOk(batch->Add(pred, {child, store->MakeConstant(Node(f, t, np))}),
             "stage add");
      p = np;
    }
    return 2 * z_.moves;
  }

  void CheckState(lps::Session* session, Context* ctx) override {
    lps::Session fresh(lps::LanguageMode::kLDL);
    MustOk(fresh.Load(Source()), "referee Load");
    MustOk(fresh.Evaluate(), "referee Evaluate");
    std::string got =
        session->database()->ToCanonicalString(*session->signature());
    if (ctx->TakeCorruption("state")) got += "corrupted";
    ctx->report.Check(
        got == fresh.database()->ToCanonicalString(*fresh.signature()),
        "incrementally maintained database differs from a from-scratch "
        "evaluation of the mutated facts");
  }

 private:
  size_t Slot(size_t f, size_t t, size_t i) const {
    return (f * z_.trees + t) * z_.nodes + i;
  }

  // Rules first, family by family, so predicate ids are assigned in the
  // same order in every session built from this text.
  std::string Source() const {
    std::string src;
    for (size_t f = 0; f < z_.families; ++f) {
      const std::string k = std::to_string(f);
      src += "anc" + k + "(X, Y) :- par" + k + "(X, Y).\n";
      src += "anc" + k + "(X, Z) :- anc" + k + "(X, Y), par" + k +
             "(Y, Z).\n";
    }
    for (size_t f = 0; f < z_.families; ++f) {
      for (size_t t = 0; t < z_.trees; ++t) {
        for (size_t i = 1; i < z_.nodes; ++i) {
          src += "par" + std::to_string(f) + "(" + Node(f, t, i) + ", " +
                 Node(f, t, parent_[Slot(f, t, i)]) + ").\n";
        }
      }
    }
    return src;
  }

  Sizes z_;
  std::vector<size_t> parent_;
};

}  // namespace

void RunChurnServe(Context* ctx) {
  ChurnServe w(ctx->args);
  RunPipeline(ctx, &w);
}

}  // namespace perfbench
