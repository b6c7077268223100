// Observability primitives shared by the mining drivers, the counting
// backends, and the benchmark harnesses. This is the machine-readable
// counterpart of the paper's evaluation metrics (§4, Figures 3-4): the
// figures plot wall time, database passes, and candidate counts, and the
// structures here carry exactly those quantities — per-pass phase timers
// split the wall time the figures plot into candidate generation, support
// counting, and MFCS maintenance, while CountingMetrics exposes the work
// the counting backends do per pass (the cost §4.1.1 argues is structural,
// not an artifact of the counting data structure). Everything lands in
// MiningStats::ToJson() under the schema documented in EXPERIMENTS.md.

#ifndef PINCER_UTIL_METRICS_H_
#define PINCER_UTIL_METRICS_H_

#include <cstdint>

#include "util/timer.h"

namespace pincer {

class JsonWriter;

/// Version stamp written into every JSON stats document this library emits
/// (mine_cli --stats-json, bench --json records). Bump when a field is
/// renamed, removed, or changes meaning; pure additions keep the version.
inline constexpr int kStatsJsonSchemaVersion = 1;

/// Minor schema revision, bumped on pure additions so consumers can probe
/// for new fields without sniffing keys. Currently 4 (= "v1.4"): adds the
/// top-level `orchestrator` section written by pincer_shard — shard/merge/
/// validate phase timings plus one `workers` entry per shard with its
/// supervision counters (attempts, retries, recovered_from_checkpoint,
/// timeouts, invalid_results). v1.3 (= 3) added the top-level
/// `budget_exceeded` bool — true iff the run's ScanBudget latched its
/// deadline (so `aborted` and the budget latch can be reconciled by
/// consumers). v1.2 (= 2) added the per-pass `backend_used` string — the
/// counting backend that served the pass (under backend=auto the engine
/// built for the database, "array" for fast-path-only passes). v1.1 (= 1) added the
/// per-pass `mfcs_index_ms` phase timer. Documents written by older
/// binaries simply lack the `schema_minor` key (read it as 0).
inline constexpr int kStatsJsonSchemaMinorVersion = 4;

/// Aggregate work counters a SupportCounter backend fills in while
/// counting. Collection is opt-in (MiningOptions::collect_counter_metrics):
/// when no sink is attached the backends skip all bookkeeping, so the hook
/// costs one pointer test per CountSupports call — nothing per transaction
/// or per node.
struct CountingMetrics {
  /// CountSupports invocations. For the in-memory backends each invocation
  /// is one conceptual database pass (the unit Figures 3-4 count), though
  /// the drivers may batch C_k and MFCS elements into a single call.
  uint64_t count_calls = 0;
  /// Total candidates across all calls (mixed lengths included).
  uint64_t candidates_counted = 0;
  /// Database rows read across all calls (|D| per full-scan call; the
  /// vertical backend intersects per-item bitmaps instead and reports 0).
  uint64_t transactions_scanned = 0;
  /// Nodes in the per-call counting structure, summed over calls (trie /
  /// hash-tree builds; 0 for the flat linear and vertical backends).
  uint64_t structure_nodes = 0;

  /// Adds another run's counters (a nested run folded into its parent).
  CountingMetrics& operator+=(const CountingMetrics& other) {
    count_calls += other.count_calls;
    candidates_counted += other.candidates_counted;
    transactions_scanned += other.transactions_scanned;
    structure_nodes += other.structure_nodes;
    return *this;
  }

  /// Emits this struct as one JSON object (keys as named above).
  void ToJson(JsonWriter& json) const;
};

/// Scoped accumulator for the per-pass phase timers: adds the scope's
/// wall-clock milliseconds to `sink` on destruction. Used to split each
/// mining pass into candidate-generation / counting / MFCS-update time.
class ScopedMsTimer {
 public:
  explicit ScopedMsTimer(double& sink) : sink_(sink) {}
  ScopedMsTimer(const ScopedMsTimer&) = delete;
  ScopedMsTimer& operator=(const ScopedMsTimer&) = delete;
  ~ScopedMsTimer() { sink_ += timer_.ElapsedMillis(); }

 private:
  double& sink_;
  Timer timer_;
};

}  // namespace pincer

#endif  // PINCER_UTIL_METRICS_H_
