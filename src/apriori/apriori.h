// The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB'94): the
// bottom-up breadth-first baseline the paper compares against in §4. Every
// frequent itemset is explicitly counted, which is exactly the behaviour the
// Pincer-Search algorithm improves on when maximal frequent itemsets are
// long.

#ifndef PINCER_APRIORI_APRIORI_H_
#define PINCER_APRIORI_APRIORI_H_

#include <vector>

#include "data/database.h"
#include "mining/checkpoint.h"
#include "mining/frequent_itemset.h"
#include "mining/mining_stats.h"
#include "mining/options.h"
#include "util/statusor.h"

namespace pincer {

/// Output of a full frequent-set mining run.
struct FrequentSetResult {
  /// Every frequent itemset with its support, sorted lexicographically.
  std::vector<FrequentItemset> frequent;
  MiningStats stats;

  /// The maximal frequent itemsets (the MFS) extracted from `frequent` by
  /// MaximalOf — what a bottom-up algorithm must post-process to obtain
  /// what Pincer-Search produces directly.
  std::vector<FrequentItemset> MaximalItemsets() const;
};

/// Runs Apriori over `db`. Passes 1 and 2 use the array fast paths when
/// options.use_array_fast_path is set; later passes use options.backend.
/// Pincer-specific options are ignored.
FrequentSetResult AprioriMine(const TransactionDatabase& db,
                              const MiningOptions& options);

/// Resumes an Apriori run from a pass-level checkpoint (written by a
/// previous run's checkpoint sink). The resumed run's frequent set
/// and cumulative structural stats are bit-identical to the uninterrupted
/// run's (property-tested). Rejects a checkpoint whose algorithm, options
/// fingerprint, or database shape does not match with InvalidArgument.
StatusOr<FrequentSetResult> AprioriResume(const TransactionDatabase& db,
                                          const MiningOptions& options,
                                          const Checkpoint& checkpoint);

}  // namespace pincer

#endif  // PINCER_APRIORI_APRIORI_H_
