// The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB'94): the
// bottom-up breadth-first baseline the paper compares against in §4. Every
// frequent itemset is explicitly counted, which is exactly the behaviour the
// Pincer-Search algorithm improves on when maximal frequent itemsets are
// long.
//
// Both variants run one level-wise loop. Passes 1 and 2 count on the §4.1.1
// item and pair arrays; every later level is Apriori-gen plus one count
// through options.backend. The combined-pass variant is the pass-reduction
// technique the paper cites from Agrawal-Srikant [3] and
// Mannila-Toivonen-Verkamo [12] (§5), and the fallback §3.5 suggests for the
// adaptive variant ("we may simply count candidates of different sizes in
// one pass"): once C_k is small, the next level's candidates are generated
// optimistically (treating C_k as frequent) and both levels are counted in
// one database read, halving the tail of the pass sequence.

#ifndef PINCER_APRIORI_APRIORI_H_
#define PINCER_APRIORI_APRIORI_H_

#include <cstddef>
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

/// The combined-pass variant counts level k+1 in level k's pass whenever
/// |C_k| is at most this many candidates. The optimistic C_{k+1} is a
/// superset of the true one, so combining only pays when candidate sets are
/// small (the paper: "only useful in the later passes").
inline constexpr size_t kCombineThreshold = 5000;

/// Runs Apriori over `db`: passes 1 and 2 on the arrays, later passes
/// through options.backend. Pincer-specific options are ignored.
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

/// Runs Apriori with combined passes. Produces exactly the same frequent
/// set as AprioriMine (property-tested) in at most — usually far fewer —
/// passes; reported candidate counts include the optimistic extras.
FrequentSetResult AprioriCombinedMine(const TransactionDatabase& db,
                                      const MiningOptions& options);

/// Resumes a combined-pass run from a level checkpoint, which carries the
/// optimistically pre-counted next level, so no pass is repeated. Same
/// staleness rules as AprioriResume.
StatusOr<FrequentSetResult> AprioriCombinedResume(
    const TransactionDatabase& db, const MiningOptions& options,
    const Checkpoint& checkpoint);

}  // namespace pincer

#endif  // PINCER_APRIORI_APRIORI_H_
