// The supports a mining run counted, in the Pincer driver's three tiers:
// the pass-1 item array and the pass-2 triangular pair matrix of §4.1.1,
// and a hash map for every other itemset. The run hands its table back as
// MaximalSetResult::supports; after that it is only read, so concurrent
// readers need no lock. The table also writes and restores its checkpoint
// sections, so the tier layout is known in this one module.

#ifndef PINCER_MINING_SUPPORT_TABLE_H_
#define PINCER_MINING_SUPPORT_TABLE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "counting/array_counters.h"
#include "itemset/itemset.h"
#include "mining/checkpoint.h"
#include "util/statusor.h"

namespace pincer {

class SupportTable {
 public:
  /// Pass 1: the support of every item, indexed by item id.
  void SetSingletonCounts(std::vector<uint64_t> counts) {
    singleton_counts_ = std::move(counts);
  }

  /// Pass 2: a completely counted pair matrix.
  void SetPairCounts(PairCountMatrix pairs) { pairs_ = std::move(pairs); }

  /// Records a support in the hash tier; an itemset's first count stands.
  void Record(Itemset itemset, uint64_t count) {
    supports_.try_emplace(std::move(itemset), count);
  }

  /// The itemset's support from the first tier that holds it; nullopt if
  /// the run never counted it.
  std::optional<uint64_t> Lookup(const Itemset& itemset) const;

  /// Fills the checkpoint's support_cache (sorted, so equal tables write
  /// equal bytes), singleton_counts, pair_items and pair_counts.
  void WriteCheckpoint(Checkpoint& checkpoint) const;

  /// The table a checkpoint's sections describe. InvalidArgument when
  /// pair_counts does not fill the triangle over pair_items, or holds a
  /// count too large for the matrix's 32-bit cells.
  static StatusOr<SupportTable> FromCheckpoint(const Checkpoint& checkpoint);

 private:
  std::vector<uint64_t> singleton_counts_;
  // Over no items, so holding no pair, until pass 2 sets it.
  PairCountMatrix pairs_{std::vector<ItemId>()};
  std::unordered_map<Itemset, uint64_t, ItemsetHash> supports_;
};

}  // namespace pincer

#endif  // PINCER_MINING_SUPPORT_TABLE_H_
