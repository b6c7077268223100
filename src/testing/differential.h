// Randomized differential stress harness: the permanent correctness
// subsystem behind the repo's "five backends, two miners, two extension
// miners" guarantee. Every miner is run over a seeded grid of small Quest
// databases across every counting backend × array-fast-path setting ×
// thread count × adaptive-MFCS cap, and each run must (a) reproduce the
// brute-force oracle bit for bit (itemsets and supports) and (b) satisfy
// the cross-field MiningStats invariants — including that the schema-v1
// stats JSON re-serializes the same numbers. Divergence anywhere in the
// matrix is a bug by definition: the backends are interchangeable only
// because this sweep says so.

#ifndef PINCER_TESTING_DIFFERENTIAL_H_
#define PINCER_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/database.h"
#include "gen/quest_gen.h"
#include "mining/mining_stats.h"
#include "mining/options.h"

namespace pincer {

/// One mining configuration of the sweep: which miner, with which
/// MiningOptions, plus the extension-specific knobs.
struct DifferentialConfig {
  enum class Miner {
    /// AprioriMine; frequent set and MaximalItemsets() both checked.
    kApriori,
    /// AprioriCombinedMine (combined passes); same checks as kApriori.
    kAprioriCombined,
    /// PincerSearch; the MFS is checked. options.mfcs_cardinality_limit
    /// selects pure (0) vs adaptive.
    kPincer,
    /// PartitionMine (Savasere et al.); frequent set checked.
    kPartition,
    /// SamplingMine (Toivonen); frequent set checked.
    kSampling,
  };

  Miner miner = Miner::kApriori;
  MiningOptions options;
  /// kPartition only.
  size_t num_partitions = 3;
  /// kSampling only.
  double sample_fraction = 0.3;
  uint64_t sampling_seed = 1;

  /// Compact "miner/backend/fast/threads/..." tag used in failure messages.
  std::string Label() const;
};

std::string_view DifferentialMinerName(DifferentialConfig::Miner miner);

/// Axes of the configuration grid BuildConfigGrid expands (full cross
/// product per miner, minus axes a miner ignores — e.g. the combined-pass
/// miner always uses the array fast paths, and the MFCS caps only apply to
/// Pincer).
struct DifferentialGrid {
  std::vector<double> min_supports = {0.05, 0.25};
  std::vector<size_t> thread_counts = {1, 2, 8};
  /// 0 = pure Pincer-Search; small positive values force the adaptive
  /// switch-off early, exercising the bottom-up recovery path.
  std::vector<size_t> mfcs_limits = {0, 2};
  std::vector<size_t> partition_counts = {3};
  /// Also run every applicable config with use_array_fast_path = false.
  bool include_fast_path_off = true;
  /// Include the Partition and Sampling extension miners.
  bool include_extensions = true;
};

std::vector<DifferentialConfig> BuildConfigGrid(const DifferentialGrid& grid);

/// What CheckStatsInvariants may assume about the run that produced the
/// stats.
struct StatsExpectations {
  /// The MiningOptions::num_threads the run was configured with;
  /// stats.num_threads must echo ThreadPool::ResolveThreadCount of it.
  size_t requested_threads = 1;
  /// False (the default) asserts stats.aborted is false — correct whenever
  /// the run had no time budget and no pass cap.
  bool allow_aborted = false;
  /// True asserts the reverse direction of the budget/abort latch contract:
  /// `aborted` implies `budget_exceeded`. Correct for every miner when the
  /// run has a time budget and no pass cap — every abort path then latches
  /// the run context's ScanBudget (a nested run's budget stop included), so
  /// the two flags cannot disagree. The forward direction
  /// (`budget_exceeded` implies `aborted`) is checked unconditionally.
  bool abort_implies_budget = false;
  /// True: the §4.1.1 accounting applies (reported_candidates equals the
  /// pass >= 3 candidates plus every MFCS element) — Apriori, the combined
  /// variant, and Pincer. False: the miner defines its own
  /// reported_candidates convention (Partition, Sampling) and only
  /// reported <= total is required.
  bool paper_candidate_convention = true;
};

/// Validates the cross-field invariants of one run's MiningStats — per-pass
/// counts summing to the totals, the reported-candidate convention,
/// `aborted` semantics, the num_threads echo — and that the schema-v1 JSON
/// from MiningStats::ToJsonString carries the same values (so the
/// observability layer cannot silently drift from the structs). Returns one
/// human-readable violation per element, each prefixed with `context`;
/// empty means consistent.
std::vector<std::string> CheckStatsInvariants(const MiningStats& stats,
                                              const StatsExpectations& expect,
                                              std::string_view context);

/// Outcome of a sweep. `failures` holds one message per divergence or
/// invariant violation (bounded detail, full config label).
struct DifferentialReport {
  size_t configs_run = 0;
  size_t databases = 0;
  /// Pass-2 pair fills of the Apriori drivers with the array fast path
  /// under a backend that holds a vertical index (vertical, auto), by the
  /// engine pass 2 recorded: the index fill or the array scan.
  size_t index_pair_fills = 0;
  size_t array_pair_fills = 0;
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  /// One-paragraph rendering: counts plus the first few failures.
  std::string Summary() const;
};

/// Runs every config against `db`, comparing mined results bit for bit
/// against the brute-force oracle (computed once per distinct min_support)
/// and checking stats invariants: an Apriori driver's pass-2 array fast path
/// must record "array" under a backend without a vertical index. Appends
/// to `report`, tallying the pass-2 fills.
void RunConfigsOnDatabase(const TransactionDatabase& db,
                          std::string_view db_label,
                          const std::vector<DifferentialConfig>& configs,
                          DifferentialReport& report);

/// Top level: generates each seeded Quest shape (universes must stay small
/// enough for the brute-force oracle, <= 20 items) and sweeps the grid over
/// it.
DifferentialReport RunDifferentialSweep(const std::vector<QuestParams>& shapes,
                                        const DifferentialGrid& grid);

}  // namespace pincer

#endif  // PINCER_TESTING_DIFFERENTIAL_H_
