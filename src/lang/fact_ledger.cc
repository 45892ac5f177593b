#include "lang/fact_ledger.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

namespace lps {

const Literal& FactLedger::operator[](size_t i) const {
  if (i >= sealed_size_) return tail_[i - sealed_size_];
  size_t c = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), i) -
      starts_.begin() - 1);
  return (*sealed_[c])[i - starts_[c]];
}

void FactLedger::push_back(Literal fact) {
  tail_.push_back(std::move(fact));
  ++size_;
  if (tail_.size() >= kChunkSize) {
    starts_.push_back(sealed_size_);
    sealed_size_ += tail_.size();
    sealed_.push_back(std::make_shared<const Chunk>(std::move(tail_)));
    tail_.clear();
  }
}

void FactLedger::clear() {
  sealed_.clear();
  starts_.clear();
  sealed_size_ = 0;
  tail_.clear();
  size_ = 0;
}

void FactLedger::RemoveAt(const std::vector<size_t>& sorted_indices) {
  if (sorted_indices.empty()) return;
  std::vector<std::shared_ptr<const Chunk>> out;
  out.reserve(sealed_.size());
  // out.back() when this call built it: still private, so later pieces
  // merge into it in place.
  std::shared_ptr<Chunk> open;
  // Appends one surviving piece - an untouched shared chunk, or the
  // survivors of a touched one in `fresh` - merging it into out.back()
  // whenever the two fit in one chunk. That keeps every adjacent pair
  // of sealed chunks above kChunkSize facts together, so shrunken
  // chunks never pile up: the chunk count stays within 2 * size() /
  // kChunkSize + 1 however much churn the ledger sees.
  auto append = [&](std::shared_ptr<const Chunk> shared, Chunk* fresh) {
    const size_t n = shared != nullptr ? shared->size() : fresh->size();
    if (n == 0) return;
    if (!out.empty() && out.back()->size() + n <= kChunkSize) {
      if (open == nullptr) {  // copy-on-write the shared neighbor
        open = std::make_shared<Chunk>(*out.back());
        out.back() = open;
      }
      if (shared != nullptr) {
        open->insert(open->end(), shared->begin(), shared->end());
      } else {
        open->insert(open->end(), std::make_move_iterator(fresh->begin()),
                     std::make_move_iterator(fresh->end()));
      }
      return;
    }
    if (shared != nullptr) {
      out.push_back(std::move(shared));
      open = nullptr;
    } else {
      open = std::make_shared<Chunk>(std::move(*fresh));
      out.push_back(open);
    }
  };
  size_t k = 0;  // cursor into sorted_indices
  for (size_t c = 0; c < sealed_.size(); ++c) {
    const Chunk& chunk = *sealed_[c];
    const size_t lo = starts_[c];
    const size_t hi = lo + chunk.size();
    const size_t k0 = k;
    while (k < sorted_indices.size() && sorted_indices[k] < hi) ++k;
    if (k == k0) {  // untouched: keep sharing the sealed chunk
      append(std::move(sealed_[c]), nullptr);
      continue;
    }
    Chunk survivors;
    survivors.reserve(chunk.size() - (k - k0));
    size_t kk = k0;
    for (size_t i = lo; i < hi; ++i) {
      if (kk < k && sorted_indices[kk] == i) {
        ++kk;
        continue;
      }
      survivors.push_back(chunk[i - lo]);
    }
    append(nullptr, &survivors);
  }
  Chunk new_tail;
  new_tail.reserve(tail_.size());
  for (size_t i = 0; i < tail_.size(); ++i) {
    const size_t global = sealed_size_ + i;
    if (k < sorted_indices.size() && sorted_indices[k] == global) {
      ++k;
      continue;
    }
    new_tail.push_back(std::move(tail_[i]));
  }
  sealed_ = std::move(out);
  starts_.clear();
  sealed_size_ = 0;
  for (const auto& chunk : sealed_) {
    starts_.push_back(sealed_size_);
    sealed_size_ += chunk->size();
  }
  tail_ = std::move(new_tail);
  size_ = sealed_size_ + tail_.size();
}

bool FactLedger::RemoveFirst(PredicateId pred,
                             const std::vector<TermId>& args) {
  size_t i = 0;
  for (const Literal& f : *this) {
    if (f.pred == pred && f.args == args) {
      RemoveAt({i});
      return true;
    }
    ++i;
  }
  return false;
}

size_t FactLedger::SharedChunksWith(const FactLedger& other) const {
  std::unordered_set<const Chunk*> theirs;
  theirs.reserve(other.sealed_.size());
  for (const auto& c : other.sealed_) theirs.insert(c.get());
  size_t shared = 0;
  for (const auto& c : sealed_) {
    if (theirs.count(c.get())) ++shared;
  }
  return shared;
}

FactLedger::const_iterator FactLedger::begin() const {
  // Sealed chunks are never empty (push_back seals full chunks only
  // and RemoveAt never keeps an emptied one), so (0, 0) is the first element
  // whether it lives in sealed_[0] or the tail - and equals end() for
  // the fully empty ledger.
  return const_iterator(this, 0, 0);
}

FactLedger::const_iterator::reference FactLedger::const_iterator::operator*()
    const {
  if (chunk_ < ledger_->sealed_.size()) {
    return (*ledger_->sealed_[chunk_])[pos_];
  }
  return ledger_->tail_[pos_];
}

FactLedger::const_iterator& FactLedger::const_iterator::operator++() {
  ++pos_;
  if (chunk_ < ledger_->sealed_.size() &&
      pos_ >= ledger_->sealed_[chunk_]->size()) {
    ++chunk_;
    pos_ = 0;
  }
  return *this;
}

}  // namespace lps
