// Execution statistics matching the metrics the paper's Figures 3-4 report:
// wall time, number of database passes, and number of candidates considered
// (with the paper's accounting conventions, see §4.1.1).
//
// Field-to-figure map (what each counter reproduces):
//   * MiningStats::passes           — the "passes" series of Figures 3-4.
//   * MiningStats::reported_candidates — the "candidates" series of
//     Figures 3-4, with §4.1.1's convention: passes 1-2 excluded, MFCS
//     elements included.
//   * MiningStats::elapsed_millis   — the "relative time" series.
//   * PassStats                     — the per-pass breakdown behind those
//     totals, extended with a wall-time split (candidate generation vs
//     support counting vs MFCS maintenance) that quantifies the paper's
//     §3.5 trade-off between pass savings and MFCS bookkeeping.
//   * MiningStats::counting         — backend work counters (§4.1.1's
//     structural-cost argument), filled when
//     MiningOptions::collect_counter_metrics is set.
//
// Every field is exported verbatim by ToJson() under the schema documented
// in EXPERIMENTS.md ("Method"); ToString() renders the same numbers for
// humans, and the two are tested to agree.

#ifndef PINCER_MINING_MINING_STATS_H_
#define PINCER_MINING_MINING_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace pincer {

class JsonWriter;

/// Per-pass breakdown.
struct PassStats {
  /// Pass number k (1-based).
  size_t pass = 0;
  /// Bottom-up candidates counted this pass (|C_k|).
  size_t num_candidates = 0;
  /// MFCS elements counted this pass (0 for Apriori).
  size_t num_mfcs_candidates = 0;
  /// How many of the bottom-up candidates were frequent.
  size_t num_frequent = 0;
  /// Maximal frequent itemsets discovered from MFCS this pass.
  size_t num_mfs_found = 0;
  /// |MFCS| after this pass's update (0 for Apriori).
  size_t mfcs_size_after = 0;
  /// Wall time generating this pass's candidates (Apriori-gen or the
  /// Pincer join + recovery + prune; 0 for passes 1-2, which use the
  /// §4.1.1 array fast paths and generate nothing).
  double candidate_gen_ms = 0.0;
  /// Wall time counting supports this pass: C_k plus (for Pincer) the
  /// unclassified MFCS elements.
  double counting_ms = 0.0;
  /// Wall time maintaining the MFCS this pass: MFCS-gen updates, cache
  /// resolution, and MFS migration (0 for Apriori). Excludes the index
  /// time reported separately below.
  double mfcs_update_ms = 0.0;
  /// Wall time in the antichain index during MFCS maintenance: superset
  /// location and replacement-coverage queries (schema v1.1 addition;
  /// disjoint from mfcs_update_ms, so the phase timers still sum to at
  /// most the pass wall time; 0 for Apriori).
  double mfcs_index_ms = 0.0;
  /// Counting backend that served this pass's generic CountSupports call
  /// (schema v1.2 addition): a CounterBackendName value — under kAuto the
  /// engine built for the database, otherwise the configured backend — or
  /// "array" for a pass served entirely by the §4.1.1 array fast paths,
  /// which bypass the generic backend.
  std::string backend_used = "array";

  /// Emits this pass as one JSON object (see EXPERIMENTS.md for the
  /// schema).
  void ToJson(JsonWriter& json) const;
};

/// Whole-run statistics.
struct MiningStats {
  /// Number of passes over the database.
  size_t passes = 0;
  /// Candidates counted in passes >= 3 plus every MFCS element counted in
  /// any pass — the paper's reported candidate metric ("does not include
  /// the candidates in the first two passes"; "includes the candidates in
  /// the MFCS", §4.1.1).
  uint64_t reported_candidates = 0;
  /// All candidates counted in all passes, including passes 1-2 and MFCS
  /// elements.
  uint64_t total_candidates = 0;
  /// MFCS elements counted across all passes (0 for Apriori).
  uint64_t mfcs_candidates = 0;
  /// Wall-clock mining time.
  double elapsed_millis = 0.0;
  /// Worker threads the run's counting scans used (the resolved value of
  /// MiningOptions::num_threads; 1 = serial). Counts are identical for
  /// every value — this records the concurrency, not the result.
  size_t num_threads = 1;
  /// True if the run stopped early because options.time_budget_ms was
  /// exceeded or the pass cap truncated it; the result is then incomplete.
  bool aborted = false;
  /// True iff the run's ScanBudget latched its deadline (schema v1.3
  /// addition) — either a counting scan polled past it mid-pass or the
  /// between-pass check did. Always implies `aborted`; conversely, a run
  /// with a time budget and no pass cap that reports aborted = true must
  /// report budget_exceeded = true as well (both directions asserted by the
  /// differential harness). Distinguishes budget aborts from pass-cap
  /// truncation, which sets `aborted` alone.
  bool budget_exceeded = false;
  /// True if the adaptive policy abandoned MFCS maintenance mid-run.
  bool mfcs_disabled = false;
  /// Pass at which it was abandoned (0 if never).
  size_t mfcs_disabled_at_pass = 0;
  /// Transient-I/O retry attempts the run's disk scans performed under
  /// RetryPolicy (0 for in-memory runs and fault-free streaming runs).
  uint64_t retries = 0;
  /// Malformed input rows dropped under MalformedRowPolicy::kSkipAndCount
  /// (0 under the strict policy, which fails instead of dropping).
  uint64_t rows_skipped = 0;
  /// Items dropped by TransactionDatabase::AddTransaction for lying outside
  /// the declared universe (0 for a well-formed database).
  uint64_t rows_dropped_items = 0;
  /// Counting-backend work counters. All zero unless
  /// MiningOptions::collect_counter_metrics was set for the run. Covers
  /// the generic backend only — the §4.1.1 pass-1/2 array fast paths are
  /// not routed through it.
  CountingMetrics counting;
  /// Per-pass detail.
  std::vector<PassStats> per_pass;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

  /// Emits the whole run as one JSON object whose totals match ToString()
  /// byte for byte (integers) and value for value (times). Schema in
  /// EXPERIMENTS.md; versioned by kStatsJsonSchemaVersion at the document
  /// level, not here.
  void ToJson(JsonWriter& json) const;

  /// Convenience: ToJson into a string (pretty-printed, no trailing
  /// newline).
  std::string ToJsonString() const;
};

}  // namespace pincer

#endif  // PINCER_MINING_MINING_STATS_H_
