// Vertical database layout: per-item transaction-id bitsets ("tidsets").
// Substrate for the vertical (Eclat-style) counting backend, which the test
// suite uses as an independent cross-check of the horizontal counters.

#ifndef PINCER_DATA_VERTICAL_INDEX_H_
#define PINCER_DATA_VERTICAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/database.h"
#include "itemset/dynamic_bitset.h"
#include "itemset/itemset.h"

namespace pincer {

/// Per-item bitmaps over transaction ids. Support of an itemset is the
/// popcount of the AND of its items' bitmaps.
class VerticalIndex {
 public:
  /// Builds the index in one database scan.
  explicit VerticalIndex(const TransactionDatabase& db);

  /// Number of transactions indexed.
  size_t num_transactions() const { return num_transactions_; }

  /// Number of item ids.
  size_t num_items() const { return tidsets_.size(); }

  /// Bitmap of transactions containing `item`.
  const DynamicBitset& tidset(ItemId item) const { return tidsets_[item]; }

  /// Support of every item, indexed by item id: each tidset's popcount,
  /// taken when the index is built. Pass 1 reads it instead of scanning
  /// the rows (MiningRun::CountItems).
  const std::vector<uint64_t>& item_supports() const { return supports_; }

  /// Absolute support of one `itemset` via bitmap intersection, stopping
  /// at the first empty AND. The empty itemset is supported by every
  /// transaction. Batches go through VerticalCounter, which shares each
  /// common prefix across candidates.
  uint64_t CountSupport(const Itemset& itemset) const;

  /// Materializes the intersection bitmap of `itemset` (the tidset of the
  /// itemset).
  DynamicBitset TidsOf(const Itemset& itemset) const;

 private:
  size_t num_transactions_;
  std::vector<DynamicBitset> tidsets_;
  std::vector<uint64_t> supports_;
};

}  // namespace pincer

#endif  // PINCER_DATA_VERTICAL_INDEX_H_
