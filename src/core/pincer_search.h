// The Pincer-Search algorithm (§3.5): a combined bottom-up / top-down search
// for the maximum frequent set. The bottom-up direction is Apriori-style;
// the top-down direction maintains the MFCS, whose elements are counted
// alongside each pass's candidates. Frequent MFCS elements become maximal
// frequent itemsets immediately, letting the algorithm skip counting their
// exponentially many subsets.

#ifndef PINCER_CORE_PINCER_SEARCH_H_
#define PINCER_CORE_PINCER_SEARCH_H_

#include <vector>

#include "data/database.h"
#include "mining/checkpoint.h"
#include "mining/frequent_itemset.h"
#include "mining/mining_stats.h"
#include "mining/options.h"
#include "mining/support_table.h"
#include "util/statusor.h"

namespace pincer {

/// Output of a maximal-set mining run.
struct MaximalSetResult {
  /// The maximum frequent set: every maximal frequent itemset with its
  /// support, sorted lexicographically. An itemset is frequent iff it is a
  /// subset of one of these.
  std::vector<FrequentItemset> mfs;
  MiningStats stats;
  /// Supports the run counted: the whole frequent set for the Apriori
  /// drivers; for Pincer-Search, every itemset it counted, frequent or
  /// not. Holds the support of every `mfs` element. Only completed scans
  /// add to it, so an aborted run's table is exact but partial.
  SupportTable supports;

  /// True if `itemset` is frequent according to this result (i.e., covered
  /// by some MFS element).
  bool IsFrequent(const Itemset& itemset) const;
};

/// Runs Pincer-Search over `db`. options.mfcs_cardinality_limit == 0 gives
/// the pure algorithm; a positive limit gives the adaptive variant the paper
/// evaluates (§3.5, last paragraph), which abandons MFCS maintenance if it
/// grows past the limit and extracts maximality bottom-up instead.
MaximalSetResult PincerSearch(const TransactionDatabase& db,
                              const MiningOptions& options);

/// Resumes a Pincer-Search run from a pass-level checkpoint (written by a
/// previous run's checkpoint sink). The resumed run's MFS, supports,
/// and cumulative structural stats are bit-identical to the uninterrupted
/// run's (property-tested). Rejects a checkpoint whose algorithm, options
/// fingerprint, or database shape does not match with InvalidArgument. Both
/// the pure and adaptive variants resume through this entry point — the
/// distinction lives in the options (and therefore in the fingerprint).
StatusOr<MaximalSetResult> PincerResume(const TransactionDatabase& db,
                                        const MiningOptions& options,
                                        const Checkpoint& checkpoint);

}  // namespace pincer

#endif  // PINCER_CORE_PINCER_SEARCH_H_
