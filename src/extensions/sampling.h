// The Sampling algorithm (Toivonen, VLDB'96), discussed in the paper's
// related work (§5): mine a random sample at a lowered threshold, then
// verify the result plus its negative border against the full database in
// one pass; misses (border itemsets that turn out frequent) trigger
// follow-up passes. Like Partition, it reduces I/O but still enumerates
// every frequent itemset — the paper's argument for why it degrades on long
// maximal frequent itemsets.

#ifndef PINCER_EXTENSIONS_SAMPLING_H_
#define PINCER_EXTENSIONS_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "apriori/apriori.h"
#include "data/database.h"
#include "mining/options.h"

namespace pincer {

/// Options for the Sampling algorithm.
struct SamplingOptions {
  /// Fraction of transactions sampled (without replacement), in (0, 1].
  double sample_fraction = 0.1;
  /// The sample is mined at min_support * lowered_factor to reduce the
  /// probability of misses (Toivonen's lowered threshold).
  double lowered_factor = 0.75;
  /// Sampling seed.
  uint64_t seed = 1;
  /// Safety valve on the miss-correction loop.
  size_t max_correction_rounds = 8;
};

/// Computes the negative border Bd⁻(S) of a downward-closed itemset family:
/// the minimal itemsets not in S (every proper subset in S). `family` must
/// be downward closed and sorted; `num_items` bounds the 1-itemset level.
/// Exposed for testing.
std::vector<Itemset> NegativeBorder(const std::vector<Itemset>& family,
                                    size_t num_items);

/// Runs the Sampling algorithm; exact (misses are corrected by extra full
/// passes, extending the family until no border itemset is frequent).
/// stats.passes counts full-database passes only (the sample mining is
/// in-memory); reported_candidates counts itemsets counted against the full
/// database.
///
/// Runs on a MiningRun (mining/mining_run.h): the verification passes, the
/// sample mining and the exact fallback share its pool, sized by
/// options.num_threads (stats.num_threads echoes the resolved count). The
/// nested runs get only what remains of options.time_budget_ms, which is
/// also checked before every verification round and polled by the
/// verification scans. A run that exhausts it reports stats.aborted and
/// stats.budget_exceeded, with no itemsets if it stopped before
/// convergence and with what the fallback had mined if it stopped there.
/// If the correction loop does not converge within max_correction_rounds,
/// the exact fallback's passes are appended to the correction rounds'
/// (pass records in execution order, candidate totals and counting work
/// accumulated) — nothing already spent is dropped.
FrequentSetResult SamplingMine(const TransactionDatabase& db,
                               const MiningOptions& options,
                               const SamplingOptions& sampling =
                                   SamplingOptions());

}  // namespace pincer

#endif  // PINCER_EXTENSIONS_SAMPLING_H_
