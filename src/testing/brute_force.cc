#include "testing/brute_force.h"

#include <algorithm>
#include <cassert>

#include "itemset/itemset_ops.h"

namespace pincer {

namespace {

Itemset ItemsetFromMask(uint32_t mask) {
  std::vector<ItemId> items;
  for (ItemId item = 0; mask != 0; ++item, mask >>= 1) {
    if (mask & 1) items.push_back(item);
  }
  return Itemset::FromSorted(std::move(items));
}

}  // namespace

std::vector<FrequentItemset> BruteForceFrequent(const TransactionDatabase& db,
                                                double min_support) {
  assert(db.num_items() <= 20 && "brute force is exponential in num_items");
  const uint64_t min_count = db.MinSupportCount(min_support);

  // Count all transactions as bitmasks, then all subsets by direct test.
  std::vector<uint32_t> transaction_masks;
  transaction_masks.reserve(db.size());
  for (const Transaction& transaction : db.transactions()) {
    uint32_t mask = 0;
    for (ItemId item : transaction) mask |= uint32_t{1} << item;
    transaction_masks.push_back(mask);
  }

  std::vector<FrequentItemset> frequent;
  const uint32_t limit = uint32_t{1} << db.num_items();
  for (uint32_t subset = 1; subset < limit; ++subset) {
    uint64_t count = 0;
    for (uint32_t mask : transaction_masks) {
      if ((subset & mask) == subset) ++count;
    }
    if (count >= min_count) {
      frequent.push_back({ItemsetFromMask(subset), count});
    }
  }
  std::sort(frequent.begin(), frequent.end());
  return frequent;
}

std::vector<FrequentItemset> BruteForceMaximal(const TransactionDatabase& db,
                                               double min_support) {
  const std::vector<FrequentItemset> frequent =
      BruteForceFrequent(db, min_support);
  std::vector<FrequentItemset> maximal;
  for (const FrequentItemset& fi : frequent) {
    bool has_frequent_superset = false;
    for (const FrequentItemset& other : frequent) {
      if (other.itemset.size() > fi.itemset.size() &&
          fi.itemset.IsSubsetOf(other.itemset)) {
        has_frequent_superset = true;
        break;
      }
    }
    if (!has_frequent_superset) maximal.push_back(fi);
  }
  return maximal;
}

}  // namespace pincer
