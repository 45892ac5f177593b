// set_forall: the paper's own constructs over a seeded set family s(X).
//
//   Example 1  disj(X, Y)    restricted forall over both sets
//   Example 2  subset(X, Y)  restricted forall with membership
//   union      un(X, Y, Z)   set construction over disj results; this
//                            rule multiplies the quantifier work of the
//                            rules it reads, which is why it is here
//   grouping   members(E, <X>)  sets of sets per element (Def. 14)
//   BOM        partset(O, <P>)  recursive subpart closure feeding a
//                               grouping head
//
// The EDB is tiny, so ingest barely registers: the evaluator's
// quantifier, grouping and set-interning paths do the work. Serving
// reads disj, subset and un by a bound set: relation scans returning
// set-valued rows, unlike the demand route of the other workloads. The
// referee is the generator: every derived relation is recomputed
// directly in C++ from the generated sets and DAG and compared
// structurally.
#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "pipeline.h"

namespace perfbench {
namespace {

struct Sizes {
  size_t sets;
  size_t min_card;
  size_t max_card;
  size_t universe;
  size_t objects;
  size_t parts_per;
  size_t part_universe;
};

constexpr Sizes kFull = {24, 2, 5, 48, 120, 3, 200};
constexpr Sizes kTiny = {18, 2, 4, 24, 16, 2, 24};

// The structure (which sets are disjoint or nested, the DAG's shape) is
// a fixed template; --seed renames its elements, objects and parts and
// drives requests and churn. Quantifier work grows with the square of
// the family and swings with its overlap structure and with the order
// of set elements (first-element seeding), so the renaming preserves
// order: every seed's evaluation does the same work.
constexpr uint64_t kTemplateSeed = 0x5e7f0a11;

constexpr const char* kRules = R"(
disj(X, Y) :- s(X), s(Y), forall A in X, forall B in Y : A != B.
subset(X, Y) :- s(X), s(Y), forall A in X : A in Y.
un(X, Y, Z) :- disj(X, Y), union(X, Y, Z).
members(E, <X>) :- s(X), E in X.
uses(O, S) :- sub(O, S).
uses(O, S2) :- uses(O, S), sub(S, S2).
haspart(O, P) :- part_of(P, O).
haspart(O, P) :- uses(O, S), part_of(P, S).
partset(O, <P>) :- haspart(O, P).
)";

using IntSet = std::vector<int>;  // sorted, distinct

std::string SetText(const IntSet& s) {
  std::string out = "{";
  for (size_t i = 0; i < s.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(s[i]);
  }
  return out + "}";
}

std::string Obj(size_t o) { return "obj" + std::to_string(o); }
std::string Part(size_t p) { return "part" + std::to_string(p); }

// Canonical text of an engine term: sets render with their elements'
// canonical texts sorted, so engine and oracle values compare
// independently of TermId order.
std::string Canon(const lps::TermStore& store, lps::TermId t) {
  if (!store.IsSet(t)) return lps::TermToString(store, t);
  std::vector<std::string> elems;
  for (lps::TermId e : store.args(t)) elems.push_back(Canon(store, e));
  std::sort(elems.begin(), elems.end());
  std::string out = "{";
  for (size_t i = 0; i < elems.size(); ++i) out += (i ? ", " : "") + elems[i];
  return out + "}";
}

std::string CanonSet(std::vector<std::string> elems) {
  std::sort(elems.begin(), elems.end());
  std::string out = "{";
  for (size_t i = 0; i < elems.size(); ++i) out += (i ? ", " : "") + elems[i];
  return out + "}";
}

std::string CanonInts(const IntSet& s) {
  std::vector<std::string> elems;
  for (int v : s) elems.push_back(std::to_string(v));
  return CanonSet(std::move(elems));
}

class SetForall : public Workload {
 public:
  explicit SetForall(const Args& args) : z_(args.tiny ? kTiny : kFull) {
    reads_per_round = 4000;
    batches_per_round = 100;
    commits_per_round = 1;
    batch_size = 64;
    reads_per_publish = 1;
    check_every_commits = 4;
    Rng rng(args.seed);
    const std::vector<size_t> elem = Names(z_.universe, &rng);
    const std::vector<size_t> obj = Names(z_.objects, &rng);
    const std::vector<size_t> part = Names(z_.part_universe, &rng);
    auto relabel = [&](const IntSet& s) {
      IntSet out;
      for (int e : s) out.push_back(static_cast<int>(elem[e]));
      std::sort(out.begin(), out.end());
      return out;
    };

    // Template: every slot holds a set and an alternate that differs in
    // one element; churn toggles slots. All 2 * sets versions differ.
    Rng tpl(kTemplateSeed);
    std::set<IntSet> used;
    for (size_t i = 0; i < z_.sets; ++i) {
      IntSet a = RandomSet(&tpl);
      while (used.count(a)) a = RandomSet(&tpl);
      used.insert(a);
      IntSet b;
      do {
        b = a;
        int e = static_cast<int>(tpl.Below(z_.universe));
        while (std::count(a.begin(), a.end(), e)) {
          e = static_cast<int>(tpl.Below(z_.universe));
        }
        b[tpl.Below(b.size())] = e;
        std::sort(b.begin(), b.end());
      } while (used.count(b));
      used.insert(b);
      slots_.push_back({relabel(a), relabel(b)});
    }
    active_.assign(z_.sets, 0);
    for (size_t o = 0; o + 1 < z_.objects; ++o) {
      const size_t fanout = 1 + tpl.Below(2);
      for (size_t k = 0; k < fanout; ++k) {
        sub_.insert({obj[o], obj[o + 1 + tpl.Below(z_.objects - o - 1)]});
      }
    }
    for (size_t o = 0; o < z_.objects; ++o) {
      std::set<size_t> taken;
      for (size_t k = 0; k < 2 * z_.parts_per; ++k) {
        size_t p = tpl.Below(z_.part_universe);
        while (taken.count(p)) p = tpl.Below(z_.part_universe);
        taken.insert(p);
        if (k % 2 == 0) {
          parts_[obj[o]].push_back({part[p], 0});
        } else {
          parts_[obj[o]].back()[1] = part[p];
        }
      }
    }
    for (size_t o : obj) part_active_[o].assign(z_.parts_per, 0);
  }

  lps::Options SessionOptions(size_t lanes) const override {
    lps::Options o;
    o.threads = lanes;
    o.max_tuples = 20000000;
    return o;
  }

  void Load(lps::Session* session, Context* ctx) override {
    std::string src = kRules;
    for (size_t i = 0; i < z_.sets; ++i) {
      src += "s(" + SetText(Set(i)) + ").\n";
    }
    for (const auto& [o, s] : sub_) {
      src += "sub(" + Obj(o) + ", " + Obj(s) + ").\n";
    }
    for (const auto& [o, versions] : parts_) {
      for (size_t k = 0; k < z_.parts_per; ++k) {
        src += "part_of(" + Part(PartOf(o, k)) + ", " + Obj(o) + ").\n";
      }
    }
    Tracer* tr = &ctx->tracer;
    lps::Status s;
    Timed(tr, "api.Load", 0, [&] { s = session->Load(src); });
    MustOk(s, "Load");
    Timed(tr, "api.Compile", 0, [&] { s = session->Compile(); });
    MustOk(s, "Compile");
  }

  std::vector<QuerySpec> Queries() const override {
    return {{"disj", 2}, {"subset", 2}, {"un", 3}};
  }

  lps::serve::ServeRequest NextRequest(Rng* rng) override {
    // Set-valued lookups on the scan route: one of the quantifier-derived
    // relations, with its first argument bound to a set of the family.
    // No recorded traffic exists; uniform over the three relations and
    // over the sets is an assumption.
    lps::serve::ServeRequest req;
    req.query = rng->Below(3);
    req.params = {{"X", SetText(Set(rng->Below(z_.sets)))}};
    return req;
  }

  // One slot of the family toggled to its other version, and one
  // object's part toggled: both sides of the program re-derive. Every
  // other commit toggles the previous ones back, so the family stays
  // within one toggle of the seed's and every commit re-evaluates the
  // same amount of work; a free random walk drifted quantifier work by
  // up to 30% within a run.
  size_t StageChurn(lps::Session*, lps::MutationBatch* batch,
                    Rng* rng) override {
    if (!away_) {
      slot_ = rng->Below(z_.sets);
      auto it = parts_.begin();
      std::advance(it, rng->Below(parts_.size()));
      object_ = it->first;
      part_ = rng->Below(z_.parts_per);
    }
    away_ = !away_;
    MustOk(batch->RetractText("s(" + SetText(Set(slot_)) + ")"),
           "stage retract");
    active_[slot_] ^= 1;
    MustOk(batch->AddText("s(" + SetText(Set(slot_)) + ")"), "stage add");

    const std::string object = ", " + Obj(object_) + ")";
    MustOk(batch->RetractText("part_of(" + Part(PartOf(object_, part_)) +
                              object),
           "stage retract");
    part_active_[object_][part_] ^= 1;
    MustOk(batch->AddText("part_of(" + Part(PartOf(object_, part_)) + object),
           "stage add");
    return 4;
  }

  void CheckState(lps::Session* session, Context* ctx) override {
    std::set<std::string> disj, subset, un, members, partset;
    std::map<int, std::vector<std::string>> containing;
    std::vector<IntSet> family;
    for (size_t i = 0; i < z_.sets; ++i) family.push_back(Set(i));
    for (const IntSet& x : family) {
      for (int e : x) containing[e].push_back(CanonInts(x));
      for (const IntSet& y : family) {
        IntSet both, all;
        std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                              std::back_inserter(both));
        std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                       std::back_inserter(all));
        if (both.empty()) {
          disj.insert(CanonInts(x) + " | " + CanonInts(y));
          un.insert(CanonInts(x) + " | " + CanonInts(y) + " | " +
                    CanonInts(all));
        }
        if (both.size() == x.size()) {
          subset.insert(CanonInts(x) + " | " + CanonInts(y));
        }
      }
    }
    for (auto& [e, sets] : containing) {
      members.insert(std::to_string(e) + " | " + CanonSet(sets));
    }
    for (const auto& [o, versions] : parts_) {
      std::set<size_t> reach, parts;
      for (size_t k = 0; k < z_.parts_per; ++k) parts.insert(PartOf(o, k));
      std::vector<size_t> stack = {o};
      while (!stack.empty()) {
        const size_t x = stack.back();
        stack.pop_back();
        for (auto it = sub_.lower_bound({x, 0});
             it != sub_.end() && it->first == x; ++it) {
          if (reach.insert(it->second).second) stack.push_back(it->second);
        }
      }
      for (size_t s : reach) {
        for (size_t k = 0; k < z_.parts_per; ++k) parts.insert(PartOf(s, k));
      }
      std::vector<std::string> elems;
      for (size_t p : parts) elems.push_back(Part(p));
      partset.insert(Obj(o) + " | " + CanonSet(std::move(elems)));
    }
    Compare(session, ctx, "disj(X, Y)", disj);
    Compare(session, ctx, "subset(X, Y)", subset);
    Compare(session, ctx, "un(X, Y, Z)", un);
    Compare(session, ctx, "members(E, G)", members);
    Compare(session, ctx, "partset(O, P)", partset);
  }

 private:
  const IntSet& Set(size_t slot) const { return slots_[slot][active_[slot]]; }
  size_t PartOf(size_t o, size_t k) const {
    return parts_.at(o)[k][part_active_.at(o)[k]];
  }

  // n distinct names drawn from [0, 10n), ascending: the seed renames,
  // the template's order is kept.
  static std::vector<size_t> Names(size_t n, Rng* rng) {
    std::set<size_t> picked;
    while (picked.size() < n) picked.insert(rng->Below(10 * n));
    return std::vector<size_t>(picked.begin(), picked.end());
  }

  IntSet RandomSet(Rng* rng) const {
    const size_t card =
        z_.min_card + rng->Below(z_.max_card - z_.min_card + 1);
    std::set<int> s;
    while (s.size() < card) s.insert(static_cast<int>(rng->Below(z_.universe)));
    return IntSet(s.begin(), s.end());
  }

  static void Compare(lps::Session* session, Context* ctx,
                      const std::string& goal,
                      const std::set<std::string>& want) {
    lps::Result<std::vector<lps::Tuple>> rows = session->Query(goal);
    MustOk(rows.status(), "Session::Query " + goal);
    std::set<std::string> got;
    for (const lps::Tuple& t : *rows) {
      std::string row;
      for (size_t i = 0; i < t.size(); ++i) {
        row += (i ? " | " : "") + Canon(*session->store(), t[i]);
      }
      got.insert(row);
    }
    if (ctx->TakeCorruption("state")) got.insert("corrupted");
    ctx->report.Check(got == want && rows->size() == want.size(),
                      goal + ": engine has " + std::to_string(rows->size()) +
                          " rows, the generator's oracle " +
                          std::to_string(want.size()));
  }

  Sizes z_;
  std::vector<std::array<IntSet, 2>> slots_;  // relabeled set versions
  std::vector<int> active_;                   // version in the family
  std::set<std::pair<size_t, size_t>> sub_;   // DAG edges, renamed
  // Per renamed object: its part slots' two versions, and which is in.
  std::map<size_t, std::vector<std::array<size_t, 2>>> parts_;
  std::map<size_t, std::vector<int>> part_active_;
  // The slot, object and part the last commit toggled away, while away_.
  bool away_ = false;
  size_t slot_ = 0;
  size_t object_ = 0;
  size_t part_ = 0;
};

}  // namespace

void RunSetForall(Context* ctx) {
  SetForall w(ctx->args);
  RunPipeline(ctx, &w);
}

}  // namespace perfbench
