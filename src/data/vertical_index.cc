#include "data/vertical_index.h"

namespace pincer {

VerticalIndex::VerticalIndex(const TransactionDatabase& db)
    : num_transactions_(db.size()) {
  tidsets_.assign(db.num_items(), DynamicBitset(db.size()));
  for (size_t tid = 0; tid < db.size(); ++tid) {
    for (ItemId item : db.transaction(tid)) {
      tidsets_[item].Set(tid);
    }
  }
  supports_.reserve(tidsets_.size());
  for (const DynamicBitset& tidset : tidsets_) {
    supports_.push_back(tidset.Count());
  }
}

uint64_t VerticalIndex::CountSupport(const Itemset& itemset) const {
  // Short itemsets build no intersection: size 1 is the recorded support,
  // size 2 a fused intersect-and-popcount.
  if (itemset.empty()) return num_transactions_;
  if (itemset.size() == 1) return supports_[itemset[0]];
  const DynamicBitset& last = tidsets_[itemset[itemset.size() - 1]];
  if (itemset.size() == 2) return tidsets_[itemset[0]].IntersectionCount(last);
  // Size >= 3: AND all items but the last into one accumulator, then the
  // fused intersect-and-popcount against the last tidset. An empty AND
  // ends the chain: nothing later can set a bit.
  DynamicBitset acc;
  if (!acc.AssignAnd(tidsets_[itemset[0]], tidsets_[itemset[1]])) return 0;
  for (size_t i = 2; i + 1 < itemset.size(); ++i) {
    if (!acc.AssignAnd(acc, tidsets_[itemset[i]])) return 0;
  }
  return acc.IntersectionCount(last);
}

DynamicBitset VerticalIndex::TidsOf(const Itemset& itemset) const {
  if (itemset.empty()) {
    DynamicBitset all(num_transactions_);
    all.SetAll();
    return all;
  }
  DynamicBitset acc = tidsets_[itemset[0]];
  for (size_t i = 1; i < itemset.size(); ++i) acc &= tidsets_[itemset[i]];
  return acc;
}

}  // namespace pincer
