// A chunked, structurally shared container for a program's ground
// facts (the EDB). Copying a FactLedger shares the sealed chunks by
// shared_ptr and deep-copies only the small open tail, so the
// transactional candidate copy Session::Compile stages every program
// change on costs O(chunks + tail) instead of O(EDB). Sealed chunks
// are immutable: every mutation either touches the tail or replaces a
// chunk with a rebuilt copy, never writes through a shared pointer -
// which is what keeps a rejected candidate from disturbing the
// program it was copied from.
#ifndef LPS_LANG_FACT_LEDGER_H_
#define LPS_LANG_FACT_LEDGER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "lang/clause.h"

namespace lps {

class FactLedger {
 public:
  // Seal threshold. Small, because a retract rebuilds the chunk it
  // hits (deep-copying every surviving Literal) and may merge it with a
  // neighbor: the copy work per retract is O(kChunkSize). Large enough
  // that a clone's per-chunk shared_ptr copies stay cheap.
  static constexpr size_t kChunkSize = 32;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Random access; O(log chunks) for sealed entries (chunks go ragged
  // after removals, so the lookup binary-searches the start offsets).
  const Literal& operator[](size_t i) const;

  void push_back(Literal fact);
  void clear();

  /// Erases the facts at `sorted_indices` (ascending, no duplicates,
  /// all < size()), keeping the order of the rest. Chunks with no
  /// removed entry stay shared; touched chunks are rebuilt as fresh
  /// (possibly shorter) copies, and a chunk that would sit next to one
  /// it fits together with is merged into it, so every adjacent pair of
  /// sealed chunks holds more than kChunkSize facts. Chunks that empty
  /// out are dropped.
  void RemoveAt(const std::vector<size_t>& sorted_indices);

  /// Removes the first fact matching (pred, args); returns true when
  /// one was removed.
  bool RemoveFirst(PredicateId pred, const std::vector<TermId>& args);

  /// Sealed chunks this ledger physically shares with `other` - the
  /// COW witness mirrored into serve stats.
  size_t SharedChunksWith(const FactLedger& other) const;
  size_t sealed_chunks() const { return sealed_.size(); }

  class const_iterator {
   public:
    using value_type = Literal;
    using reference = const Literal&;
    using pointer = const Literal*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    reference operator*() const;
    pointer operator->() const { return &**this; }
    const_iterator& operator++();
    bool operator==(const const_iterator& o) const {
      return chunk_ == o.chunk_ && pos_ == o.pos_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class FactLedger;
    const_iterator(const FactLedger* ledger, size_t chunk, size_t pos)
        : ledger_(ledger), chunk_(chunk), pos_(pos) {}
    const FactLedger* ledger_;
    size_t chunk_;  // == sealed_.size() means the tail
    size_t pos_;
  };

  const_iterator begin() const;
  const_iterator end() const {
    return const_iterator(this, sealed_.size(), tail_.size());
  }

 private:
  using Chunk = std::vector<Literal>;

  std::vector<std::shared_ptr<const Chunk>> sealed_;
  std::vector<size_t> starts_;  // starts_[i]: global index of sealed_[i][0]
  size_t sealed_size_ = 0;      // facts in sealed chunks (tail starts here)
  Chunk tail_;
  size_t size_ = 0;
};

}  // namespace lps

#endif  // LPS_LANG_FACT_LEDGER_H_
