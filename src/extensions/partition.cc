#include "extensions/partition.h"

#include <algorithm>
#include <optional>

#include "itemset/itemset_set.h"
#include "mining/mining_run.h"
#include "util/metrics.h"

namespace pincer {

FrequentSetResult PartitionMine(const TransactionDatabase& db,
                                const MiningOptions& options,
                                const PartitionOptions& partition) {
  MiningRun run(db, options);
  MiningStats& stats = run.stats();
  FrequentSetResult result;
  const uint64_t min_count = db.MinSupportCount(options.min_support);
  const size_t num_partitions =
      std::max<size_t>(1, std::min(partition.num_partitions,
                                   std::max<size_t>(db.size(), 1)));

  // Phase 1: mine each partition locally. Together the partition scans read
  // every transaction once — one conceptual database pass.
  ItemsetSet candidate_union;
  std::vector<Itemset> candidates;
  PassStats phase1;
  phase1.pass = 1;
  const size_t chunk = (db.size() + num_partitions - 1) / num_partitions;
  {
    ScopedMsTimer phase1_timer(phase1.counting_ms);
    for (size_t p = 0; p < num_partitions && !run.BudgetExpired(); ++p) {
      const size_t begin = p * chunk;
      const size_t end = std::min(begin + chunk, db.size());
      if (begin >= end) break;
      TransactionDatabase local(db.num_items());
      for (size_t i = begin; i < end; ++i) {
        local.AddTransaction(db.transaction(i));
      }
      // Same fractional threshold, on this run's pool and what is left of
      // its budget.
      const FrequentSetResult local_result =
          AprioriMine(local, run.NestedOptions());
      run.Absorb(local_result.stats);
      if (run.aborted()) break;
      // Everything the local run counted, including its passes 1-2: the
      // union of local frequent sets (phase1.num_frequent) spans all sizes,
      // so the paper's pass>=3-only reported figure would undercount and
      // could fall below num_frequent.
      phase1.num_candidates += local_result.stats.total_candidates;
      for (const FrequentItemset& fi : local_result.frequent) {
        if (candidate_union.Insert(fi.itemset)) {
          candidates.push_back(fi.itemset);
        }
      }
    }
  }
  ++stats.passes;
  phase1.num_frequent = candidates.size();
  stats.total_candidates = phase1.num_candidates;
  stats.per_pass.push_back(phase1);

  // A run that already blew its budget in phase 1 must not start the full
  // phase-2 validation scan — it would read the whole database after the
  // caller asked us to stop. The union is unvalidated, so no itemset is
  // reported and reported_candidates stays 0.
  if (run.aborted() || run.BudgetExpired()) {
    result.stats = run.Finish();
    return result;
  }

  // Phase 2: one full pass validates the union, polling the run's budget.
  PassStats phase2;
  phase2.pass = 2;
  phase2.num_candidates = candidates.size();
  const std::optional<std::vector<uint64_t>> counts =
      run.Count(candidates, phase2);
  if (counts.has_value()) {
    ++stats.passes;
    stats.reported_candidates = candidates.size();
    stats.total_candidates += candidates.size();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*counts)[i] >= min_count) {
        result.frequent.push_back({candidates[i], (*counts)[i]});
      }
    }
    phase2.num_frequent = result.frequent.size();
    stats.per_pass.push_back(phase2);
    std::sort(result.frequent.begin(), result.frequent.end());
  }
  result.stats = run.Finish();
  return result;
}

}  // namespace pincer
