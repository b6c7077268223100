// The run context every mining driver shares. Pincer-Search is Apriori's
// level-wise pass loop with the MFCS added (§3.5), so the machinery around
// each pass exists once, here: the worker pool and the counting backend
// (built per run, or lent by a resident caller), the time budget with its
// aborted / budget_exceeded latch, the pass cap, the resume base, and the
// checkpoint header and its delivery. The drivers — Apriori, the combined
// variant, Pincer, Partition, Sampling and ExpandToFrequentSet — keep only
// their own pass structure; scripts/lint.py keeps the plumbing out of them.

#ifndef PINCER_MINING_MINING_RUN_H_
#define PINCER_MINING_MINING_RUN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "counting/array_counters.h"
#include "counting/scan_budget.h"
#include "counting/support_counter.h"
#include "data/database.h"
#include "itemset/itemset.h"
#include "mining/checkpoint.h"
#include "mining/mining_stats.h"
#include "mining/options.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pincer {

/// One mining run over `db` under `options`, both of which must outlive it.
/// Every abort path — a counting scan stopped by the budget, the
/// between-pass budget check, the pass cap — sets stats().aborted, and
/// Finish() derives budget_exceeded from the budget's latch alone, so the
/// two flags cannot drift apart.
class MiningRun {
 public:
  /// Starts the clock, builds the run's pool and counter — or adopts
  /// options.shared_pool and options.resident_counter — and attaches the
  /// run's metrics sink and scan budget to the counter. `algorithm` is the
  /// checkpoint driver id ("apriori", "apriori-combined", "pincer"); runs
  /// that never checkpoint leave it empty.
  MiningRun(const TransactionDatabase& db, const MiningOptions& options,
            std::string_view algorithm = {}, size_t combine_threshold = 0);
  // The run keeps references to both: a temporary would dangle.
  MiningRun(TransactionDatabase&&, const MiningOptions&,
            std::string_view = {}, size_t = 0) = delete;
  MiningRun(const TransactionDatabase&, MiningOptions&&,
            std::string_view = {}, size_t = 0) = delete;
  /// Detaches the run's sinks from a resident counter, which outlives it.
  ~MiningRun();

  MiningRun(const MiningRun&) = delete;
  MiningRun& operator=(const MiningRun&) = delete;

  ThreadPool* pool() const { return pool_; }
  SupportCounter& counter() const { return *counter_; }
  MiningStats& stats() { return stats_; }
  bool aborted() const { return stats_.aborted; }

  /// Validates `checkpoint` against this run (driver id, options
  /// fingerprint, database shape) and restores its stats; the run's clock
  /// continues from the checkpoint's elapsed time. The driver restores its
  /// own state. InvalidArgument for a stale checkpoint.
  Status Resume(const Checkpoint& checkpoint);

  /// The pass cap, checked before a database pass that has work to do:
  /// true, with the run aborted, once stats().passes has reached
  /// options.max_passes (|items| + 2 when that is 0).
  bool PassCapReached();

  /// The time budget, checked between passes: true, with the run aborted
  /// and the budget latched, once it has expired.
  bool BudgetExpired();

  /// Both checks, cap first: what every paper driver asks before a pass
  /// >= 3 that has work to do.
  bool StopBeforePass() { return PassCapReached() || BudgetExpired(); }

  /// Counts `batch` in one database read, adding the scan time to
  /// pass.counting_ms and recording the backend that served it as
  /// pass.backend_used. nullopt when the budget expired mid-scan: the
  /// counts were partial, and the run is aborted.
  std::optional<std::vector<uint64_t>> Count(const std::vector<Itemset>& batch,
                                             PassStats& pass);

  /// Pass 1: the support of every item, through the §4.1.1 array when
  /// `array_fast_path`, otherwise through Count. nullopt as for Count.
  std::optional<std::vector<uint64_t>> CountItems(PassStats& pass,
                                                  bool array_fast_path);

  /// Pass 2: counts every pair of `matrix`'s items, whose pass-1 supports
  /// are `supports` in the same order. The matrix is filled from the
  /// counter's vertical index, recording pass.backend_used "vertical", when
  /// the counter has one and PairFillPrefersIndex picks it; otherwise by
  /// the §4.1.1 array scan. False when the budget expired mid-count.
  bool CountPairs(PairCountMatrix& matrix,
                  const std::vector<uint64_t>& supports, PassStats& pass);

  /// Books a completed pass under the paper's accounting (§4.1.1): one
  /// more database pass, every candidate and MFCS element into the total,
  /// and into the reported figure all but the candidates of passes 1-2.
  void RecordPass(PassStats pass);

  /// Options for a run nested in this one (Partition's local runs,
  /// Sampling's sample and fallback runs): this run's pool; no resident
  /// counter, which is bound to this run's database and wears its sinks;
  /// no checkpoint sink; and only the budget that remains — never 0, which
  /// would mean unlimited, once it is spent.
  MiningOptions NestedOptions() const;

  /// Folds a finished nested run into this one: its counting work is
  /// added, its abort aborts this run, and its budget stop latches this
  /// run's budget.
  void Absorb(const MiningStats& nested);

  /// Hands options.checkpoint_sink a snapshot for resuming at `next_pass`:
  /// the header (driver id, options fingerprint, database shape, stats and
  /// elapsed time) plus whatever `fill(checkpoint)` adds of the driver's
  /// state, moved into the sink. No-op without a sink. Checkpointing is
  /// best-effort: a failing sink is logged once per run and mining goes on.
  template <typename Fill>
  void EmitCheckpoint(size_t next_pass, Fill&& fill) {
    if (!options_.checkpoint_sink) return;
    Checkpoint checkpoint = CheckpointHeader(next_pass);
    fill(checkpoint);
    Deliver(std::move(checkpoint));
  }

  /// Stamps the elapsed time and the budget latch into the stats and hands
  /// them over; the run is over.
  MiningStats Finish();

 private:
  ScanBudget* scan_budget() { return budget_ ? &*budget_ : nullptr; }
  // True, with the run aborted, when a counting scan stopped at the
  // budget; its counts are then partial.
  bool ScanStopped();
  double ElapsedMillis() const {
    return elapsed_base_ + timer_.ElapsedMillis();
  }
  std::string Fingerprint() const;
  Checkpoint CheckpointHeader(size_t next_pass) const;
  void Deliver(Checkpoint checkpoint);

  const TransactionDatabase& db_;
  const MiningOptions& options_;
  const std::string algorithm_;
  const size_t combine_threshold_;
  Timer timer_;
  // Declared before the counter, which scans on it.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  std::unique_ptr<SupportCounter> owned_counter_;
  SupportCounter* counter_;
  std::optional<ScanBudget> budget_;
  MiningStats stats_;
  // Wall time a resumed run's checkpoint already covers.
  double elapsed_base_ = 0;
  bool sink_error_logged_ = false;
};

}  // namespace pincer

#endif  // PINCER_MINING_MINING_RUN_H_
