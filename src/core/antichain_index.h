// A per-item inverted index over the elements of an antichain (the MFCS and
// the MFS), answering superset queries without pairwise scans.
//
// Motivation: MFCS-gen (§3.2) and the MFS coverage check are dominated by
// "does any element contain this itemset?" queries, and the naive answer is
// a scan over all elements — O(|MFCS|·|S_k|) per update batch, the serial
// bottleneck the thread-scaling benches expose. FastLMFI-style progressive
// focusing (PAPERS.md, arXiv 0904.3310) replaces the scan with per-item
// candidate bitmaps: one word-level bitmap per item over *element slots*,
// so superset location is an AND of |query| rows. Superset checking alone
// is enough for maximality when elements arrive largest-first (MaximalOf in
// core/mfs.h). See docs/algorithm_internals.md for the design discussion
// (inverted lists vs. bitmaps, and when each wins).

#ifndef PINCER_CORE_ANTICHAIN_INDEX_H_
#define PINCER_CORE_ANTICHAIN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itemset/itemset.h"

namespace pincer {

/// Inverted bitmap index over an append-only collection of itemsets
/// ("elements"). The i-th element added since the last Clear occupies slot
/// i; per item id the index keeps a bitmap of the slots whose element
/// contains that item.
///
/// The structure itself does not enforce the antichain property — it indexes
/// whatever its owner adds — and Mfcs/Mfs keep the invariant on top of it.
///
/// Thread-safety: const queries are safe to run concurrently with each other
/// (the parallel MFCS split step does exactly that); mutations require
/// exclusive access.
class AntichainIndex {
 public:
  AntichainIndex() = default;

  /// Indexes `element` and returns its slot (the number of elements added
  /// before it). The empty itemset is allowed (it simply appears in no item
  /// row).
  size_t Add(const Itemset& element);

  /// Drops every element; the next Add gets slot 0 again.
  void Clear();

  /// Number of elements.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True if some element m satisfies query ⊆ m (non-strict: an element
  /// equal to `query` counts). Cost: |query| row-ANDs over the slot bitmap,
  /// with an early exit once the candidate set goes empty. Items outside
  /// every indexed element (including ids past the indexed universe) make the
  /// answer false immediately.
  bool ContainsSupersetOf(const Itemset& query) const;

  /// Slots of all elements that are supersets of `query` (non-strict), in
  /// ascending slot order.
  std::vector<size_t> SupersetsOf(const Itemset& query) const;

  /// Number of 64-bit words per item row — the per-item unit cost of a
  /// superset query (|query| × this many word-ANDs). Exposed so owners can
  /// run a query-vs-dense-scan cost model: for few, near-universe-sized
  /// elements a pairwise bitset scan beats the row decomposition, and
  /// Mfcs::Update picks per batch (see docs/algorithm_internals.md §4).
  size_t num_slot_words() const {
    return (size_ + kBitsPerWord - 1) / kBitsPerWord;
  }

 private:
  static constexpr size_t kBitsPerWord = 64;

  // Intersects live_ with the rows of `query`'s items into `acc` (at least
  // `num_words` = live_.size() words, caller-allocated so hot callers can
  // keep it on the stack). Returns false the moment the accumulator goes
  // empty.
  bool IntersectRows(const Itemset& query, uint64_t* acc,
                     size_t num_words) const;

  size_t size_ = 0;
  std::vector<uint64_t> live_;               // bitmap of occupied slots
  std::vector<std::vector<uint64_t>> rows_;  // rows_[item]: bitmap over slots
};

}  // namespace pincer

#endif  // PINCER_CORE_ANTICHAIN_INDEX_H_
