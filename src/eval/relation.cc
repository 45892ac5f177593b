#include "eval/relation.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace lps {

uint64_t NextContentTick() {
  // Relaxed is enough: ticks only need to be unique and monotonic per
  // observer, never to order unrelated memory operations.
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

namespace {

constexpr size_t kInitialSlots = 16;

bool RowsEqual(TupleRef a, TupleRef b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// Home slot for a hash: Mix64 first (see base/hash.h - unmixed
// HashCombine output clusters sequential TermIds under a power-of-two
// mask, which makes linear-probe misses quadratic).
size_t Slot(size_t hash, size_t cap_mask) {
  return static_cast<size_t>(Mix64(hash)) & cap_mask;
}

size_t HashMasked(TupleRef t, uint32_t mask) {
  size_t seed = 0x51ULL;
  // Iterate set bits only: mask bits are guaranteed < 32 by ColumnBit,
  // so this never reads past column 31.
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    size_t i = static_cast<size_t>(std::countr_zero(m));
    HashCombine(&seed, std::hash<uint64_t>{}(t[i]));
  }
  return seed;
}

bool MaskedEquals(TupleRef a, TupleRef b, uint32_t mask) {
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    size_t i = static_cast<size_t>(std::countr_zero(m));
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

// ---- MaskIndex ---------------------------------------------------------

void MaskIndex::CatchUp(const Relation& rel) {
  if (slots_.empty()) slots_.assign(kInitialSlots, 0);
  if (built_up_to_ == 0) {
    Build(rel);
  } else {
    for (size_t i = built_up_to_; i < rel.size(); ++i) {
      Append(rel, static_cast<RowId>(i));
    }
  }
  built_up_to_ = rel.size();
}

uint32_t MaskIndex::Locate(const Relation& rel, RowId r, bool* created) {
  if ((buckets_.size() + 1) * 4 > slots_.size() * 3) GrowSlots(rel);
  TupleRef t = rel.row(r);
  const size_t cap_mask = slots_.size() - 1;
  size_t slot = Slot(HashMasked(t, mask_), cap_mask);
  for (;;) {
    const uint32_t entry = slots_[slot];
    if (entry == 0) {
      const auto ordinal = static_cast<uint32_t>(buckets_.size());
      slots_[slot] = ordinal + 1;
      buckets_.push_back({static_cast<uint32_t>(pool_.size()), 1, 1});
      pool_.push_back(r);
      *created = true;
      return ordinal;
    }
    const Bucket& b = buckets_[entry - 1];
    if (MaskedEquals(rel.row(pool_[b.offset]), t, mask_)) {
      *created = false;
      return entry - 1;
    }
    slot = (slot + 1) & cap_mask;
  }
}

void MaskIndex::Build(const Relation& rel) {
  // Pass 1 counts every bucket's rows. The pool temporarily holds one
  // row per bucket - its first, the key row Locate compares against.
  for (size_t r = 0; r < rel.size(); ++r) {
    bool created = false;
    const uint32_t k = Locate(rel, static_cast<RowId>(r), &created);
    if (!created) ++buckets_[k].size;
  }
  // Pass 2 lays the postings out back to back, each bucket exactly
  // full, in RowId order. Each bucket's key row goes in first, so the
  // second Locate of every row finds its bucket without a per-row
  // side array.
  std::vector<RowId> first = std::move(pool_);
  pool_.assign(rel.size(), 0);
  uint32_t offset = 0;
  for (size_t k = 0; k < buckets_.size(); ++k) {
    Bucket& b = buckets_[k];
    b.offset = offset;
    b.capacity = b.size;
    offset += b.size;
    b.size = 0;
    pool_[b.offset] = first[k];
  }
  for (size_t r = 0; r < rel.size(); ++r) {
    bool created = false;
    Bucket& b = buckets_[Locate(rel, static_cast<RowId>(r), &created)];
    pool_[b.offset + b.size++] = static_cast<RowId>(r);
  }
}

void MaskIndex::Append(const Relation& rel, RowId r) {
  bool created = false;
  Bucket& b = buckets_[Locate(rel, r, &created)];
  if (created) return;
  if (b.size == b.capacity) {
    const uint32_t cap = b.capacity * 2;
    if (b.offset + b.capacity == pool_.size()) {
      pool_.resize(b.offset + cap);  // ends the pool: grow in place
    } else {
      const auto at = static_cast<uint32_t>(pool_.size());
      pool_.resize(at + cap);
      std::copy_n(pool_.begin() + b.offset, b.size, pool_.begin() + at);
      b.offset = at;
    }
    b.capacity = cap;
  }
  pool_[b.offset + b.size++] = r;
}

void MaskIndex::GrowSlots(const Relation& rel) {
  const size_t cap = slots_.size() * 2;
  std::vector<uint32_t> fresh(cap, 0);
  const size_t cap_mask = cap - 1;
  for (uint32_t entry : slots_) {
    if (entry == 0) continue;
    const RowId first = pool_[buckets_[entry - 1].offset];
    size_t slot = Slot(HashMasked(rel.row(first), mask_), cap_mask);
    while (fresh[slot] != 0) slot = (slot + 1) & cap_mask;
    fresh[slot] = entry;
  }
  slots_.swap(fresh);
}

std::span<const RowId> MaskIndex::Probe(const Relation& rel,
                                        TupleRef key) const {
  if (slots_.empty()) return {};
  const size_t cap_mask = slots_.size() - 1;
  size_t slot = Slot(HashMasked(key, mask_), cap_mask);
  for (;;) {
    const uint32_t entry = slots_[slot];
    if (entry == 0) return {};
    const Bucket& b = buckets_[entry - 1];
    if (MaskedEquals(rel.row(pool_[b.offset]), key, mask_)) {
      return {pool_.data() + b.offset, b.size};
    }
    slot = (slot + 1) & cap_mask;
  }
}

size_t MaskIndex::Bytes() const {
  return slots_.capacity() * sizeof(uint32_t) +
         buckets_.capacity() * sizeof(Bucket) +
         pool_.capacity() * sizeof(RowId);
}

// ---- Relation ----------------------------------------------------------

void Relation::PrefetchInsert(size_t hash) const {
  if (dedup_slots_.empty()) return;
  __builtin_prefetch(&dedup_slots_[Slot(hash, dedup_slots_.size() - 1)]);
}

Relation::InsertOutcome Relation::InsertRow(TupleRef t, size_t hash) {
  if (dedup_slots_.empty()) dedup_slots_.assign(kInitialSlots, 0);
  // The table holds exactly one entry per arena row (dead rows keep
  // theirs), so num_rows_ is the exact entry count for the load test.
  if ((num_rows_ + 1) * 4 > dedup_slots_.size() * 3) GrowDedup();
  const size_t cap_mask = dedup_slots_.size() - 1;
  size_t slot = Slot(hash, cap_mask);
  for (;;) {
    ++dedup_probes_;
    uint32_t entry = dedup_slots_[slot];
    if (entry == 0) break;
    if (RowsEqual(row(entry - 1), t)) {
      const RowId r = entry - 1;
      if (IsLive(r)) return {false, false, r};
      // The probe landed on a tombstoned row holding this tuple:
      // revive it in place. Its RowId, dedup entry, and every posting
      // that lists it serve again; the arena does not grow.
      dead_[r] = false;
      --dead_count_;
      content_tick_ = NextContentTick();
      return {true, true, r};
    }
    slot = (slot + 1) & cap_mask;
  }
  const RowId r = static_cast<RowId>(num_rows_);
  dedup_slots_[slot] = r + 1;
  arena_.insert(arena_.end(), t.begin(), t.end());
  ++num_rows_;
  content_tick_ = NextContentTick();
  return {true, false, r};
}

void Relation::GrowDedup() { RehashDedup(dedup_slots_.size() * 2); }

void Relation::RehashDedup(size_t cap) {
  // Every arena row has exactly one entry, so rebuilding from the
  // arena is the same as moving the old table's entries.
  std::vector<uint32_t> fresh(cap, 0);
  const size_t cap_mask = cap - 1;
  for (size_t r = 0; r < num_rows_; ++r) {
    size_t slot = Slot(HashRange(row(static_cast<RowId>(r))), cap_mask);
    while (fresh[slot] != 0) slot = (slot + 1) & cap_mask;
    fresh[slot] = static_cast<uint32_t>(r) + 1;
  }
  dedup_slots_.swap(fresh);
}

size_t Relation::Reserve(size_t additional_rows) {
  const size_t target_rows = num_rows_ + additional_rows;
  arena_.reserve(target_rows * arity_);
  size_t cap = dedup_slots_.empty() ? kInitialSlots : dedup_slots_.size();
  size_t doublings = 0;
  while (target_rows * 4 > cap * 3) {
    cap *= 2;
    ++doublings;
  }
  if (doublings == 0) return 0;
  if (dedup_slots_.empty()) {
    // No entries yet: allocate at final size, zero rehash work at all.
    dedup_slots_.assign(cap, 0);
    return doublings;
  }
  // One rehash straight to the final size, in place of the `doublings`
  // incremental rehashes the upcoming inserts would have triggered.
  RehashDedup(cap);
  return doublings;
}

bool Relation::Contains(TupleRef t) const {
  return Find(t) != kNoRow;
}

RowId Relation::Find(TupleRef t) const {
  // One entry per tuple value, so the stored row is the only
  // candidate: a dead hit means the tuple is absent.
  const RowId r = FindStored(t);
  return r != kNoRow && IsLive(r) ? r : kNoRow;
}

RowId Relation::FindStored(TupleRef t) const {
  if (dedup_slots_.empty()) return kNoRow;
  const size_t cap_mask = dedup_slots_.size() - 1;
  size_t slot = Slot(HashRange(t), cap_mask);
  for (;;) {
    uint32_t entry = dedup_slots_[slot];
    if (entry == 0) return kNoRow;
    if (RowsEqual(row(entry - 1), t)) return entry - 1;
    slot = (slot + 1) & cap_mask;
  }
}

bool Relation::EraseRow(RowId r) {
  if (r >= num_rows_ || !IsLive(r)) return false;
  // The dedup entry stays: it now marks a tombstoned value that a
  // later Insert of the same tuple revives in place.
  if (dead_.size() < num_rows_) dead_.resize(num_rows_, false);
  dead_[r] = true;
  ++dead_count_;
  content_tick_ = NextContentTick();
  return true;
}

bool Relation::Revive(RowId r) {
  if (r >= dead_.size() || !dead_[r]) return false;
  // The dedup entry survived the erase (and dedup admits no duplicate
  // value while it stands), so reviving is just flipping the bit.
  dead_[r] = false;
  --dead_count_;
  content_tick_ = NextContentTick();
  return true;
}

MaskIndex* Relation::GetIndex(uint32_t mask) {
  MaskIndex* index = nullptr;
  for (MaskIndex& ix : indexes_) {
    if (ix.mask() == mask) {
      index = &ix;
      break;
    }
  }
  if (index == nullptr) index = &indexes_.emplace_back(mask);
  index->CatchUp(*this);  // newly inserted rows, in insertion order
  return index;
}

std::span<const RowId> Relation::Lookup(uint32_t mask, TupleRef key) {
  return GetIndex(mask)->Probe(*this, key);
}

void Relation::EnsureIndex(uint32_t mask) { GetIndex(mask); }

bool Relation::HasIndexBuilt(uint32_t mask) const {
  for (const MaskIndex& ix : indexes_) {
    if (ix.mask() == mask) return ix.built_up_to() == num_rows_;
  }
  return false;
}

void Relation::FreezeIndexes() {
  for (MaskIndex& ix : indexes_) ix.CatchUp(*this);
}

bool Relation::LookupSnapshot(uint32_t mask, TupleRef key,
                              size_t watermark,
                              std::vector<RowId>* out) const {
  out->clear();
  if (watermark > num_rows_) watermark = num_rows_;
  if (mask == 0) {
    out->reserve(watermark - (dead_count_ < watermark ? dead_count_ : 0));
    for (size_t i = 0; i < watermark; ++i) {
      if (IsLive(static_cast<RowId>(i))) {
        out->push_back(static_cast<RowId>(i));
      }
    }
    return true;
  }
  for (const MaskIndex& ix : indexes_) {
    if (ix.mask() != mask || ix.built_up_to() < watermark) continue;
    // Posting lists are ascending, so the prefix below the watermark
    // is a clean cut. Tombstoned rows stay listed and are skipped.
    for (RowId ti : ix.Probe(*this, key)) {
      if (ti >= watermark) break;
      if (IsLive(ti)) out->push_back(ti);
    }
    return true;
  }
  // No index built up to the watermark: scan the prefix.
  for (size_t i = 0; i < watermark; ++i) {
    if (!IsLive(static_cast<RowId>(i))) continue;
    TupleRef t = row(static_cast<RowId>(i));
    bool match = true;
    for (size_t c = 0; c < arity_ && match; ++c) {
      if (MaskHasColumn(mask, c) && t[c] != key[c]) match = false;
    }
    if (match) out->push_back(static_cast<RowId>(i));
  }
  return false;
}

void Relation::LookupWith(const MaskIndex& index, TupleRef key,
                          std::vector<RowId>* out) const {
  out->clear();
  for (RowId r : index.Probe(*this, key)) {
    if (IsLive(r)) out->push_back(r);
  }
}

void Relation::AllIndices(std::vector<RowId>* out) const {
  out->clear();
  out->reserve(num_rows_ - dead_count_);
  for (size_t i = 0; i < num_rows_; ++i) {
    if (IsLive(static_cast<RowId>(i))) {
      out->push_back(static_cast<RowId>(i));
    }
  }
}

RelationStats Relation::Stats() const {
  RelationStats s;
  s.live_rows = num_rows_ - dead_count_;
  // Tombstoned rows stay in the arena and in every posting list until
  // a rebuild, so scans and probes pay for them even though they yield
  // nothing. Report the physical row count alongside the live one: the
  // planner charges scans by rows *walked*, which keeps cost-based
  // plans from parking on a relation that churn has filled with dead
  // rows (DESIGN.md section 17).
  s.arena_rows = num_rows_;
  s.masks.reserve(indexes_.size());
  for (const MaskIndex& ix : indexes_) {
    if (ix.built_up_to() == 0 || ix.distinct_keys() == 0) continue;
    s.masks.push_back({ix.mask(), ix.distinct_keys(), ix.built_up_to()});
  }
  return s;
}

void Relation::Compact() {
  if (dead_count_ == 0) return;
  const size_t live = num_rows_ - dead_count_;
  std::vector<TermId> arena;
  arena.reserve(live * arity_);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (!IsLive(static_cast<RowId>(r))) continue;
    TupleRef t = row(static_cast<RowId>(r));
    arena.insert(arena.end(), t.begin(), t.end());
  }
  arena_.swap(arena);  // the old, larger buffer is freed with `arena`
  num_rows_ = live;
  dead_.clear();
  dead_.shrink_to_fit();
  dead_count_ = 0;
  size_t cap = kInitialSlots;
  while (num_rows_ * 4 > cap * 3) cap *= 2;
  RehashDedup(cap);
  for (MaskIndex& ix : indexes_) {
    const bool session_only = ix.session_only();
    ix = MaskIndex(ix.mask());
    if (session_only) ix.set_session_only();
    ix.CatchUp(*this);
  }
  content_tick_ = NextContentTick();
}

void Relation::MarkIndexesSessionOnly(size_t first) {
  for (size_t i = first; i < indexes_.size(); ++i) {
    indexes_[i].set_session_only();
  }
}

Relation Relation::CopyForSnapshot() const {
  // Every member but the index list, copied as the implicit copy
  // constructor would.
  Relation copy(arity_);
  copy.content_tick_ = content_tick_;
  copy.num_rows_ = num_rows_;
  copy.arena_ = arena_;
  copy.dedup_slots_ = dedup_slots_;
  copy.dedup_probes_ = dedup_probes_;
  copy.dead_ = dead_;
  copy.dead_count_ = dead_count_;
  for (const MaskIndex& ix : indexes_) {
    if (!ix.session_only()) copy.indexes_.push_back(ix);
  }
  return copy;
}

size_t Relation::ArenaBytes() const {
  return arena_.capacity() * sizeof(TermId);
}

size_t Relation::IndexBytes() const {
  size_t bytes = dedup_slots_.capacity() * sizeof(uint32_t);
  for (const MaskIndex& ix : indexes_) bytes += ix.Bytes();
  return bytes;
}

}  // namespace lps
