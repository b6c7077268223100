#include "mining/support_table.h"

#include <algorithm>
#include <string>

namespace pincer {

std::optional<uint64_t> SupportTable::Lookup(const Itemset& itemset) const {
  if (itemset.size() == 1 && itemset[0] < singleton_counts_.size()) {
    return singleton_counts_[itemset[0]];
  }
  if (itemset.size() == 2) {
    if (std::optional<uint64_t> count =
            pairs_.TryPairCount(itemset[0], itemset[1])) {
      return count;
    }
  }
  const auto it = supports_.find(itemset);
  if (it == supports_.end()) return std::nullopt;
  return it->second;
}

void SupportTable::WriteCheckpoint(Checkpoint& checkpoint) const {
  checkpoint.support_cache.reserve(supports_.size());
  for (const auto& [itemset, count] : supports_) {
    checkpoint.support_cache.push_back({itemset, count});
  }
  std::sort(checkpoint.support_cache.begin(), checkpoint.support_cache.end());
  checkpoint.singleton_counts = singleton_counts_;
  checkpoint.pair_items = pairs_.frequent_items();
  const std::vector<uint32_t>& pair_counts = pairs_.raw_counts();
  checkpoint.pair_counts.assign(pair_counts.begin(), pair_counts.end());
}

StatusOr<SupportTable> SupportTable::FromCheckpoint(
    const Checkpoint& checkpoint) {
  SupportTable table;
  for (const FrequentItemset& fi : checkpoint.support_cache) {
    table.Record(fi.itemset, fi.support);
  }
  table.singleton_counts_ = checkpoint.singleton_counts;
  if (!checkpoint.pair_items.empty()) {
    table.pairs_ = PairCountMatrix(checkpoint.pair_items);
    const Status restored = table.pairs_.RestoreCounts(checkpoint.pair_counts);
    if (!restored.ok()) {
      return Status::InvalidArgument("checkpoint " + restored.message());
    }
  }
  return table;
}

}  // namespace pincer
