// The Partition algorithm (Savasere, Omiecinski & Navathe, VLDB'95),
// discussed in the paper's related work (§5): split the database into
// memory-sized partitions, mine each locally, and validate the union of
// local frequent sets in one final pass. Guarantees two passes over the
// data — but, as the paper argues, still enumerates every frequent itemset
// and therefore explodes when maximal frequent itemsets are long. The
// related-work benchmark reproduces that claim.

#ifndef PINCER_EXTENSIONS_PARTITION_H_
#define PINCER_EXTENSIONS_PARTITION_H_

#include <cstddef>

#include "apriori/apriori.h"
#include "data/database.h"
#include "mining/options.h"

namespace pincer {

/// Options for the Partition algorithm.
struct PartitionOptions {
  /// Number of database partitions (>= 1). Each partition is mined
  /// independently with Apriori at the proportional local threshold.
  size_t num_partitions = 4;
};

/// Runs Partition. Correctness rests on the standard lemma: an itemset
/// frequent in the whole database is frequent in at least one partition, so
/// the union of local frequent sets is a superset of the global frequent
/// set, validated by one full counting pass. Stats count the local mining
/// phase as one conceptual pass (each row is read once across partitions)
/// plus the validation pass; reported_candidates is the size of the global
/// candidate union (0 when the run aborted before validating it).
///
/// Runs on a MiningRun (mining/mining_run.h): the phase-2 validation pass
/// and every partition's local Apriori run share its pool, sized by
/// options.num_threads (stats.num_threads echoes the resolved count). The
/// local runs get only what remains of options.time_budget_ms, which is
/// also checked between partitions and before phase 2 and polled by the
/// validation scan. A run that exhausts the budget reports stats.aborted
/// and stats.budget_exceeded and returns without a validated result
/// (result.frequent is empty, reported_candidates 0).
FrequentSetResult PartitionMine(const TransactionDatabase& db,
                                const MiningOptions& options,
                                const PartitionOptions& partition =
                                    PartitionOptions());

}  // namespace pincer

#endif  // PINCER_EXTENSIONS_PARTITION_H_
