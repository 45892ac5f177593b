// A program (Definition 6): a finite set of clauses plus ground facts
// (the EDB), over a shared term store.
#ifndef LPS_LANG_PROGRAM_H_
#define LPS_LANG_PROGRAM_H_

#include <memory>
#include <utility>
#include <vector>

#include "lang/clause.h"
#include "lang/fact_ledger.h"
#include "lang/signature.h"

namespace lps {

class Program {
 public:
  explicit Program(TermStore* store)
      : store_(store), signature_(&store->symbols()),
        clauses_(std::make_shared<std::vector<Clause>>()) {}

  // Copyable: transforms take a Program and return a rewritten one
  // sharing the same TermStore.
  Program(const Program&) = default;
  Program& operator=(const Program&) = default;

  TermStore* store() const { return store_; }
  Signature& signature() { return signature_; }
  const Signature& signature() const { return signature_; }

  void AddClause(Clause clause) {
    mutable_clauses()->push_back(std::move(clause));
  }

  /// Adds a ground fact p(args). Errors if any arg is non-ground or the
  /// predicate is special (facts must satisfy Definition 5 too).
  Status AddFact(PredicateId pred, std::vector<TermId> args);

  const std::vector<Clause>& clauses() const { return *clauses_; }
  /// Copy-on-write: Program copies (transform pipelines, snapshot
  /// freezes) share the clause vector; the first mutation through
  /// this accessor privatizes it, so no copy ever observes another's
  /// edits and an unchanged copy costs one shared_ptr bump.
  std::vector<Clause>* mutable_clauses() {
    if (clauses_.use_count() > 1) {
      clauses_ = std::make_shared<std::vector<Clause>>(*clauses_);
    }
    return clauses_.get();
  }
  const FactLedger& facts() const { return facts_; }
  FactLedger* mutable_facts() { return &facts_; }

  /// Removes the fact p(args) if present; returns true when removed.
  bool RemoveFact(PredicateId pred, const std::vector<TermId>& args);

  /// Bulk removal by position: erases the facts at `sorted_indices`
  /// (ascending, no duplicates, all < facts().size()) in one
  /// compaction pass. A mutation batch retracting k facts pays
  /// O(facts) index compares once instead of RemoveFact's
  /// O(k * facts) tuple compares.
  void RemoveFactsAt(const std::vector<size_t>& sorted_indices);

  /// Renders the whole program, one clause per line.
  std::string ToString() const;

  /// A copy of the rules and signature, without the fact list,
  /// re-bound to `store`, which must resolve every TermId and Symbol
  /// this program references to the same term/name - i.e. be a
  /// TermStore::Clone() of this program's store (or a clone's clone).
  /// The copy's signature points into `store`'s symbol table, so the
  /// original session can keep interning without the copy observing
  /// anything. This is how a frozen serve::Snapshot and each server
  /// worker get their isolated program view; both read facts from the
  /// snapshot's converged database, never from a fact list.
  Program CloneRulesInto(TermStore* store) const {
    Program out(store);
    out.signature_ = signature_;
    out.signature_.RebindSymbols(&store->symbols());
    out.clauses_ = clauses_;
    return out;
  }

 private:
  TermStore* store_;
  Signature signature_;
  // Shared between copies until one side mutates (mutable_clauses).
  std::shared_ptr<std::vector<Clause>> clauses_;
  // Chunked with structural sharing so Program copies (snapshot
  // freezes, transform pipelines) don't pay O(EDB) for the fact list.
  FactLedger facts_;
};

}  // namespace lps

#endif  // LPS_LANG_PROGRAM_H_
