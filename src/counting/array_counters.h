// Array-based fast paths for the first two passes, following Özden et al. as
// adopted in the paper (§4.1.1): a one-dimensional array counts 1-itemsets
// and a triangular two-dimensional array counts all 2-itemsets over the
// frequent items, with no candidate generation and no searching. The
// triangle can also be filled from a vertical index, one tidset
// intersection per pair, where PairFillPrefersIndex prices that cheaper.

#ifndef PINCER_COUNTING_ARRAY_COUNTERS_H_
#define PINCER_COUNTING_ARRAY_COUNTERS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "counting/scan_budget.h"
#include "data/database.h"
#include "data/vertical_index.h"
#include "itemset/item.h"
#include "util/status.h"
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

/// Cost of one pair increment of the pass-2 array scan, in word ops of the
/// vertical kernel (one 64-bit AND and POPCNT). Measured on the POPCNT
/// kernel over the perfbench scattered file, where increments are most of
/// the scan (docs/benchmarking.md, "Backend selection"): an increment of
/// the 32-bit array costs 1.35-1.43 ns, a word op 0.47-0.50 ns.
inline constexpr double kArrayPairCostInWordOps = 3;

/// The pass-2 pick: true when filling the pair matrix of a `num_rows`-row
/// database from per-item tidsets is expected to cost no more than the
/// array scan. The matrix holds `num_items` items whose pass-1 supports sum
/// to S = `support_sum` and their squares to `support_square_sum`. The fill
/// intersects all C(F,2) pairs over ceil(|D|/64) words each; the scan pays
/// one increment per pair occurrence, of which items that occur
/// independently give E = (S^2 - sum s^2) / (2|D|). The fill wins iff
/// C(F,2) * ceil(|D|/64) <= c * E, c = kArrayPairCostInWordOps. Pure in its
/// inputs and blind to the index itself, so every run, thread count and
/// resume derives the same pick.
bool PairFillPrefersIndex(uint64_t num_rows, uint64_t num_items,
                          double support_sum, double support_square_sum);

/// The same pick from the items' pass-1 supports.
bool PairFillPrefersIndex(uint64_t num_rows,
                          const std::vector<uint64_t>& supports);

/// Triangular pair-count matrix over a set of frequent items (pass 2). Item
/// ids are first remapped to dense ranks; only pairs of frequent items are
/// counted, mirroring the 2-D array of §4.1.1. Cells are 32 bits wide,
/// which holds every count of a database within kMaxDatabaseRows.
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

  /// The same cells from `index`, built over the database to count: each
  /// is the fused intersect-and-popcount of its two items' tidsets. With a
  /// pool, the triangle is split into contiguous cell ranges, one per
  /// worker, and each cell is written by exactly one worker, so counts are
  /// bit-identical at any thread count. A non-null `budget` is polled every
  /// kVerticalBudgetCheckCandidates pairs; when it expires the matrix holds
  /// partial counts and must be discarded.
  void CountIndex(const VerticalIndex& index, ThreadPool* pool = nullptr,
                  ScanBudget* budget = nullptr);

  /// Support count of the pair {a, b}. Both must be frequent items given at
  /// construction; a != b.
  uint64_t PairCount(ItemId a, ItemId b) const;

  /// PairCount that tolerates non-indexed items: returns nullopt when either
  /// item was not in the frequent list.
  std::optional<uint64_t> TryPairCount(ItemId a, ItemId b) const;

  const std::vector<ItemId>& frequent_items() const { return items_; }

  /// The packed upper-triangle counts, row-major by rank, as filled by
  /// CountDatabase or CountIndex. Exposed for checkpointing.
  const std::vector<uint32_t>& raw_counts() const { return counts_; }

  /// Restores counts captured from raw_counts() on a matrix built over the
  /// same frequent_items. InvalidArgument, leaving the matrix unchanged, on
  /// a size mismatch or a count that does not fit a cell.
  Status RestoreCounts(const std::vector<uint64_t>& counts);

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
  std::vector<uint32_t> counts_;
};

}  // namespace pincer

#endif  // PINCER_COUNTING_ARRAY_COUNTERS_H_
