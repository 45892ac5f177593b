#include "eval/database.h"

#include <algorithm>

#include "lang/clause.h"
#include "term/printer.h"

namespace lps {

Database::Database(TermStore* store, const Signature* sig)
    : store_(store), sig_(sig),
      domains_(std::make_shared<TermDomains>()) {
  RegisterTerm(store_->EmptySet());
}

Relation& Database::relation(PredicateId pred) {
  if (pred >= relations_.size()) relations_.resize(pred + 1);
  std::shared_ptr<Relation>& rel = relations_[pred];
  if (rel == nullptr) {
    rel = std::make_shared<Relation>(sig_->info(pred).arity());
  } else if (rel.use_count() > 1) {
    // Copy-on-write: a relation shared with a published snapshot
    // (CloneIntoCow) must be privatized before any mutation escapes.
    rel = std::make_shared<Relation>(*rel);
  }
  return *rel;
}

Relation* Database::MutableRelation(PredicateId pred) {
  if (FindRelation(pred) == nullptr) return nullptr;
  return &relation(pred);
}

Relation::InsertOutcome Database::AddTupleEx(PredicateId pred,
                                             TupleRef t) {
  Relation::InsertOutcome out = relation(pred).InsertRow(t);
  // Domains are append-only, so only a fresh append can bring new
  // terms: a duplicate's or a revived row's were registered when the
  // row was first appended.
  if (out.added && !out.revived) {
    for (TermId term : t) RegisterTerm(term);
  }
  if (out.added) ++version_;
  if (out.revived && revive_log_enabled_) {
    revive_log_.push_back({pred, out.row});
  }
  return out;
}

size_t Database::Reserve(PredicateId pred, size_t additional_rows) {
  return relation(pred).Reserve(additional_rows);
}

Relation::InsertOutcome Database::BulkInserter::Insert(PredicateId pred,
                                                       TupleRef t,
                                                       size_t hash) {
  for (TermId term : t) {
    if (term >= seen_.size()) {
      seen_.resize(std::max<size_t>(db_->store_->size(),
                                    static_cast<size_t>(term) + 1),
                   false);
    }
    if (!seen_[term]) {
      db_->RegisterTerm(term);
      seen_[term] = true;
    }
  }
  if (pred >= rels_.size()) rels_.resize(pred + 1, nullptr);
  Relation*& rel = rels_[pred];
  if (rel == nullptr) rel = &db_->relation(pred);
  Relation::InsertOutcome out = rel->InsertRow(t, hash);
  if (out.added) ++db_->version_;
  if (out.revived && db_->revive_log_enabled_) {
    db_->revive_log_.push_back({pred, out.row});
  }
  return out;
}

bool Database::Contains(PredicateId pred, TupleRef t) const {
  const Relation* rel = FindRelation(pred);
  return rel != nullptr && rel->Contains(t);
}

RowId Database::FindRow(PredicateId pred, TupleRef t) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? Relation::kNoRow : rel->Find(t);
}

bool Database::EraseRow(PredicateId pred, RowId r) {
  Relation* rel = MutableRelation(pred);
  if (rel == nullptr || !rel->EraseRow(r)) return false;
  ++version_;
  return true;
}

bool Database::ReviveRow(PredicateId pred, RowId r) {
  Relation* rel = MutableRelation(pred);
  if (rel == nullptr || !rel->Revive(r)) return false;
  ++version_;
  return true;
}

void Database::RegisterTerm(TermId t) {
  if (!store_->is_ground(t)) return;
  if (IsRegistered(t)) return;
  // Copy-on-write: domains shared with a published snapshot
  // (CloneInto / CloneIntoCow alias them) are privatized before the
  // first mutation escapes.
  if (domains_.use_count() > 1) {
    domains_ = std::make_shared<TermDomains>(*domains_);
  }
  RegisterTermOwned(t);
}

void Database::RegisterTermOwned(TermId t) {
  if (!store_->is_ground(t)) return;
  if (IsRegistered(t)) return;
  std::vector<bool>& registered = domains_->registered;
  if (t >= registered.size()) {
    registered.resize(std::max<size_t>(store_->size(), size_t{t} + 1));
  }
  registered[t] = true;
  ++version_;
  if (store_->sort(t) == Sort::kSet) {
    domains_->sets.push_back(t);
    for (TermId e : store_->args(t)) RegisterTermOwned(e);
  } else {
    domains_->atoms.push_back(t);
    // Atoms built from function symbols contribute their subterms too.
    for (TermId a : store_->args(t)) RegisterTermOwned(a);
  }
}

size_t Database::TupleCount() const {
  size_t n = 0;
  for (const auto& rel : relations_) {
    if (rel != nullptr) n += rel->live_size();
  }
  return n;
}

size_t Database::RelationSize(PredicateId pred) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? 0 : rel->size();
}

std::vector<std::pair<PredicateId, RelationStats>> Database::CollectStats()
    const {
  std::vector<std::pair<PredicateId, RelationStats>> out;
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    if (relations_[pred] != nullptr) {
      out.emplace_back(pred, relations_[pred]->Stats());
    }
  }
  return out;
}

Database::StorageStats Database::storage_stats() const {
  StorageStats s;
  for (const auto& rel : relations_) {
    if (rel == nullptr) continue;
    s.arena_bytes += rel->ArenaBytes();
    s.index_bytes += rel->IndexBytes();
    s.dedup_probes += rel->dedup_probes();
  }
  return s;
}

size_t Database::CompactTombstones() {
  size_t compacted = 0;
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    const Relation* rel = relations_[pred].get();
    if (rel == nullptr || rel->dead_count() * 2 <= rel->live_size()) {
      continue;
    }
    MutableRelation(pred)->Compact();
    ++compacted;
  }
  return compacted;
}

std::unique_ptr<Database> Database::CloneInto(TermStore* store,
                                              const Signature* sig) const {
  auto clone = std::make_unique<Database>(store, sig);
  // Plain member copies overwrite the constructor's {}-registration;
  // relations are deep-copied (arenas and the indexes that are not
  // session-only) so the clone never aliases this database's storage.
  clone->relations_.resize(relations_.size());
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    if (relations_[pred] != nullptr) {
      clone->relations_[pred] =
          std::make_shared<Relation>(relations_[pred]->CopyForSnapshot());
    }
  }
  // Domains alias rather than copy: they are append-only, and
  // RegisterTerm on either side privatizes before writing.
  clone->domains_ = domains_;
  clone->version_ = version_;
  return clone;
}

std::unique_ptr<Database> Database::CloneIntoCow(
    TermStore* store, const Signature* sig, const Database& prev) const {
  auto clone = std::make_unique<Database>(store, sig);
  clone->relations_.resize(relations_.size());
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    const std::shared_ptr<Relation>& rel = relations_[pred];
    if (rel == nullptr) continue;
    const std::shared_ptr<Relation>* shared =
        pred < prev.relations_.size() ? &prev.relations_[pred] : nullptr;
    if (shared != nullptr && *shared != nullptr &&
        (*shared)->content_tick() == rel->content_tick()) {
      // Unchanged since prev froze it: alias prev's immutable object.
      // Equal ticks imply identical content (NextContentTick is
      // process-wide unique), and prev's copy is already index-frozen.
      clone->relations_[pred] = *shared;
    } else {
      clone->relations_[pred] =
          std::make_shared<Relation>(rel->CopyForSnapshot());
    }
  }
  clone->domains_ = domains_;
  clone->version_ = version_;
  return clone;
}

std::vector<size_t> Database::IndexCounts() const {
  std::vector<size_t> counts(relations_.size(), 0);
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    if (relations_[pred] != nullptr) {
      counts[pred] = relations_[pred]->index_count();
    }
  }
  return counts;
}

void Database::MarkIndexesSessionOnly(const std::vector<size_t>& before) {
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    const Relation* rel = relations_[pred].get();
    const size_t first = pred < before.size() ? before[pred] : 0;
    if (rel == nullptr || rel->index_count() == first) continue;
    MutableRelation(pred)->MarkIndexesSessionOnly(first);
  }
}

void Database::RestoreContentTick(PredicateId pred, uint64_t tick) {
  if (Relation* rel = MutableRelation(pred)) rel->RestoreContentTick(tick);
}

void Database::EnsureIndex(PredicateId pred, uint32_t mask) {
  const Relation* rel = FindRelation(pred);
  if (rel != nullptr && rel->HasIndexBuilt(mask)) return;
  relation(pred).EnsureIndex(mask);
}

void Database::FreezeIndexes() {
  for (auto& rel : relations_) {
    // Shared => frozen at prior publish.
    if (rel == nullptr || rel.use_count() > 1) continue;
    rel->FreezeIndexes();
  }
}

std::vector<std::pair<PredicateId, const Relation*>> Database::Relations()
    const {
  std::vector<std::pair<PredicateId, const Relation*>> out;
  for (PredicateId pred = 0; pred < relations_.size(); ++pred) {
    if (relations_[pred] != nullptr) {
      out.emplace_back(pred, relations_[pred].get());
    }
  }
  return out;
}

std::string Database::ToString(const Signature& sig) const {
  // Relations in predicate-id order: dump order must not vary run to
  // run (locked in by DatabaseTest).
  std::string out;
  for (PredicateId p = 0; p < relations_.size(); ++p) {
    if (relations_[p] == nullptr) continue;
    const Relation& rel = *relations_[p];
    for (RowId r = 0; r < rel.size(); ++r) {
      if (!rel.IsLive(r)) continue;
      out += sig.Name(p);
      out += '(';
      out += TermListToString(*store_, rel.row(r));
      out += ").\n";
    }
  }
  return out;
}

std::string Database::ToCanonicalString(const Signature& sig) const {
  std::string out;
  std::vector<std::string> rows;
  for (PredicateId p = 0; p < relations_.size(); ++p) {
    if (relations_[p] == nullptr) continue;
    const Relation& rel = *relations_[p];
    rows.clear();
    rows.reserve(rel.live_size());
    for (RowId r = 0; r < rel.size(); ++r) {
      if (!rel.IsLive(r)) continue;
      std::string line = sig.Name(p);
      line += '(';
      line += TermListToString(*store_, rel.row(r));
      line += ").\n";
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    for (std::string& line : rows) out += line;
  }
  return out;
}

}  // namespace lps
