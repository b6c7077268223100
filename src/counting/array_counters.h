// Array-based fast paths for the first two passes, following Özden et al. as
// adopted in the paper (§4.1.1): a one-dimensional array counts 1-itemsets
// and a triangular two-dimensional array counts all 2-itemsets over the
// frequent items, with no candidate generation and no searching.

#ifndef PINCER_COUNTING_ARRAY_COUNTERS_H_
#define PINCER_COUNTING_ARRAY_COUNTERS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "counting/scan_budget.h"
#include "data/database.h"
#include "itemset/item.h"
#include "util/thread_pool.h"

namespace pincer {

/// Counts the support of every item id in one scan (pass 1). Result is
/// indexed by item id. With a pool, the scan is split into per-worker
/// chunks whose private count arrays are merged in worker order — counts
/// are bit-identical to the serial scan. Null pool = serial.
/// A non-null `budget` is polled mid-scan (see scan_budget.h); when it
/// expires the returned counts are partial and must be discarded.
std::vector<uint64_t> CountSingletons(const TransactionDatabase& db,
                                      ThreadPool* pool = nullptr,
                                      ScanBudget* budget = nullptr);

/// Triangular pair-count matrix over a set of frequent items (pass 2). Item
/// ids are first remapped to dense ranks; only pairs of frequent items are
/// counted, mirroring the 2-D array of §4.1.1.
class PairCountMatrix {
 public:
  /// `frequent_items` must be strictly increasing item ids.
  explicit PairCountMatrix(std::vector<ItemId> frequent_items);

  /// One scan over the database, counting every frequent-item pair inside
  /// each transaction. With a pool, transaction chunks are counted into
  /// per-worker triangular arrays merged in worker order (each worker's
  /// array is the size of counts_, so memory scales with the pool size);
  /// counts are bit-identical to the serial scan. Null pool = serial.
  /// A non-null `budget` is polled mid-scan; when it expires the matrix
  /// holds partial counts and must be discarded.
  void CountDatabase(const TransactionDatabase& db, ThreadPool* pool = nullptr,
                     ScanBudget* budget = nullptr);

  /// Support count of the pair {a, b}. Both must be frequent items given at
  /// construction; a != b.
  uint64_t PairCount(ItemId a, ItemId b) const;

  /// PairCount that tolerates non-indexed items: returns nullopt when either
  /// item was not in the frequent list.
  std::optional<uint64_t> TryPairCount(ItemId a, ItemId b) const;

  const std::vector<ItemId>& frequent_items() const { return items_; }

  /// The packed upper-triangle counts, row-major by rank, as filled by
  /// CountDatabase. Exposed for checkpointing.
  const std::vector<uint64_t>& raw_counts() const { return counts_; }

  /// Restores counts captured from raw_counts() on a matrix built over the
  /// same frequent_items. Returns false (leaving the matrix unchanged) on a
  /// size mismatch.
  bool RestoreCounts(std::vector<uint64_t> counts) {
    if (counts.size() != counts_.size()) return false;
    counts_ = std::move(counts);
    return true;
  }

 private:
  // rank_of_ entry of an item that is not frequent.
  static constexpr uint32_t kNoRank = UINT32_MAX;

  // Cell (r1, r2), r1 < r2, of the packed upper triangle is
  // RowBase(r1) + r2 (unsigned; see the definition).
  size_t RowBase(size_t r1) const;

  std::vector<ItemId> items_;
  // rank_of_[item] = dense rank, or kNoRank for non-frequent items. Ranks
  // fit in 32 bits: they index items_, whose ids are 32-bit and distinct.
  std::vector<uint32_t> rank_of_;
  std::vector<uint64_t> counts_;
};

}  // namespace pincer

#endif  // PINCER_COUNTING_ARRAY_COUNTERS_H_
