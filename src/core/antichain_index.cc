#include "core/antichain_index.h"

#include <bit>

namespace pincer {

size_t AntichainIndex::Add(const Itemset& element) {
  const size_t slot = size_++;
  if (live_.size() * kBitsPerWord < size_) {
    live_.push_back(0);
    for (std::vector<uint64_t>& row : rows_) row.push_back(0);
  }
  const size_t word = slot / kBitsPerWord;
  const uint64_t mask = uint64_t{1} << (slot % kBitsPerWord);
  live_[word] |= mask;
  for (ItemId item : element) {
    if (static_cast<size_t>(item) >= rows_.size()) {
      rows_.resize(static_cast<size_t>(item) + 1,
                   std::vector<uint64_t>(num_slot_words(), 0));
    }
    rows_[item][word] |= mask;
  }
  return slot;
}

void AntichainIndex::Clear() {
  size_ = 0;
  live_.clear();
  // Keep the per-item rows (and their word storage) allocated: owners
  // rebuild the index from scratch after churn, and re-allocating one
  // heap vector per item of the universe on every rebuild costs far more
  // than the rebuild's actual bit-setting. clear() empties each row
  // without freeing, so the following Adds grow them allocation-free.
  for (std::vector<uint64_t>& row : rows_) row.clear();
}

bool AntichainIndex::IntersectRows(const Itemset& query, uint64_t* acc,
                                   size_t num_words) const {
  if (size_ == 0) return false;
  for (size_t w = 0; w < num_words; ++w) acc[w] = live_[w];
  for (ItemId item : query) {
    if (static_cast<size_t>(item) >= rows_.size()) return false;
    const std::vector<uint64_t>& row = rows_[item];
    uint64_t alive = 0;
    for (size_t w = 0; w < num_words; ++w) {
      acc[w] &= row[w];
      alive |= acc[w];
    }
    if (alive == 0) return false;
  }
  return true;
}

bool AntichainIndex::ContainsSupersetOf(const Itemset& query) const {
  // This is the innermost call of MFS coverage checks and runs from the
  // parallel split phase, so the accumulator lives on the stack (no heap
  // traffic, no shared scratch) whenever the slot bitmap is short — which
  // it is for every antichain the miner actually builds before MFCS
  // maintenance gets abandoned.
  constexpr size_t kStackWords = 16;  // 1024 slots
  const size_t num_words = live_.size();
  if (num_words <= kStackWords) {
    uint64_t acc[kStackWords];
    return IntersectRows(query, acc, num_words);
  }
  std::vector<uint64_t> acc(num_words);
  return IntersectRows(query, acc.data(), num_words);
}

std::vector<size_t> AntichainIndex::SupersetsOf(const Itemset& query) const {
  std::vector<size_t> slots;
  std::vector<uint64_t> acc(live_.size());
  if (!IntersectRows(query, acc.data(), acc.size())) return slots;
  for (size_t w = 0; w < acc.size(); ++w) {
    uint64_t bits = acc[w];
    while (bits != 0) {
      slots.push_back(w * kBitsPerWord +
                      static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return slots;
}

}  // namespace pincer
