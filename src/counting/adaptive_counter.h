// Adaptive per-pass backend selection (CounterBackend::kAuto): picks the
// horizontal trie or the vertical bitmaps for every CountSupports call from
// a deterministic cost model over the database shape and the candidate
// batch shape. HybridMiner (arXiv 0904.3312) showed maximal-pattern mining
// wins by switching horizontal/vertical representation with measured
// density; this is that policy for the Pincer counting layer.
//
// The decision must be a PURE function of (database shape, batch shape) —
// never of wall-clock measurements — so that the pick is bit-reproducible
// across runs, thread counts, and checkpoint resume (a resumed run re-counts
// the same batches and therefore re-derives the same picks). The CI
// determinism smoke job asserts exactly this.

#ifndef PINCER_COUNTING_ADAPTIVE_COUNTER_H_
#define PINCER_COUNTING_ADAPTIVE_COUNTER_H_

#include <cstdint>
#include <memory>

#include "counting/support_counter.h"
#include "data/database.h"

namespace pincer {

/// Cost-model weight of pushing one transaction item through the horizontal
/// trie walk, measured in units of one 64-bit AND+popcount word operation of
/// the vertical kernel. Calibrated on the Figure-3/4 workloads (see
/// docs/benchmarking.md, "Backend selection"): a trie step is a dependent
/// pointer chase (~3-35ns measured per item over the fig-3 generic passes),
/// a vertical word op is one AND and one POPCNT instruction of the unrolled
/// word loop (~0.4ns measured over two 100K-bit tidsets; ~3.6ns through the
/// portable loop, one libgcc call per word, on a CPU without POPCNT), so
/// the honest ratio sits in the tens (about 1-10 on the portable loop).
/// 64 keeps the deep concentrated fig-4 MFCS batches vertical (where the
/// trie walk's recursion fanout makes it 10x slower) while the extreme
/// sparse-wide regime — candidate batches in the hundreds of thousands
/// against short rows — still lands horizontal. The constant was set before
/// the word loop ran POPCNT and is deliberately unchanged, so every pick is
/// the same as before; ROADMAP.md plans to replace this model outright.
inline constexpr uint64_t kHorizontalItemCostInWordOps = 64;

/// SupportCounter that delegates each CountSupports call to a TrieCounter
/// (horizontal) or a VerticalCounter (vertical bitmaps), whichever the cost
/// model predicts cheaper for that batch. Both children are constructed up
/// front: the vertical index's one-time O(|D|) transpose is paid at setup,
/// outside every pass's counting timer, so the model needs no
/// history-dependent "index not built yet" term (which would make resumed
/// runs pick differently than uninterrupted ones) and per-pass counting_ms
/// reflects counting work only. The model:
///
///   vertical_cost   = sum over non-empty candidates of
///                     max(|c| - 1, 1) * ceil(|D| / 64)       [word ops]
///   horizontal_cost = (total item occurrences in the database)
///                     * kHorizontalItemCostInWordOps         [word ops]
///
/// i.e. sparse-wide passes (long scans are cheap, many short candidates)
/// stay horizontal, dense-deep passes (short bitmaps, few long candidates,
/// fat rows) go vertical. Both engines compute identical counts
/// (differential-tested), so the pick can never change mined results — only
/// the counting wall time. The pick of the most recent call is exposed via
/// backend_used() and recorded by the miners as PassStats::backend_used.
class AdaptiveCounter : public SupportCounter {
 public:
  /// Binds to `db`, which must outlive this counter. Computes the database
  /// shape (row count, total item occurrences) and constructs both child
  /// counters — including the vertical index build — once, up front.
  explicit AdaptiveCounter(const TransactionDatabase& db);

  std::vector<uint64_t> CountSupports(
      const std::vector<Itemset>& candidates) override;

  CounterBackend backend() const override { return CounterBackend::kAuto; }
  CounterBackend backend_used() const override { return last_used_; }
  const VerticalIndex* vertical_index() const override {
    return vertical_->vertical_index();
  }

  // The attachments forward to both delegates.
  void set_metrics(CountingMetrics* metrics) override;
  void set_thread_pool(ThreadPool* pool) override;
  void set_scan_budget(ScanBudget* budget) override;

  /// The decision function, exposed for tests and the docs' worked
  /// examples. `intersect_steps` is the batch's total vertical work factor:
  /// sum over non-empty candidates of max(|c| - 1, 1). Pure: same inputs,
  /// same pick.
  static CounterBackend ChooseBackend(size_t num_rows,
                                      uint64_t total_occurrences,
                                      size_t num_nonempty_candidates,
                                      uint64_t intersect_steps);

 private:
  SupportCounter& Delegate(CounterBackend pick);

  const TransactionDatabase& db_;
  uint64_t total_occurrences_ = 0;
  std::unique_ptr<SupportCounter> horizontal_;
  std::unique_ptr<SupportCounter> vertical_;
  // Pick of the most recent CountSupports call; the horizontal default
  // covers the "no call yet" state.
  CounterBackend last_used_ = CounterBackend::kTrie;
};

}  // namespace pincer

#endif  // PINCER_COUNTING_ADAPTIVE_COUNTER_H_
