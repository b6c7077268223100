// Cooperative mid-scan abort for the time budget. The miners historically
// checked MiningOptions::time_budget_ms only between passes, so one huge
// pass could overshoot the budget arbitrarily. A ScanBudget is a deadline
// the chunked scan driver polls every kScanAbortCheckRows rows; once the
// deadline passes, the latched `exceeded` flag stops every worker at its
// next check and the miner discards the (now partial) counts and reports
// stats.aborted exactly as a between-pass abort would.
//
// The check cadence is deliberately coarse: a scan shorter than
// kScanAbortCheckRows rows never polls the clock mid-scan, so tiny
// databases complete their passes whole even under an already-expired
// budget (preserving the "a run that finishes is never marked aborted"
// semantics), and the steady_clock read amortizes to nothing on big scans.

#ifndef PINCER_COUNTING_SCAN_BUDGET_H_
#define PINCER_COUNTING_SCAN_BUDGET_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>

namespace pincer {

/// Rows between deadline polls inside a chunked scan.
inline constexpr size_t kScanAbortCheckRows = 4096;

/// Candidates between deadline polls inside a vertical (bitmap) count. One
/// vertical candidate costs O(|itemset| * |D|/64) word operations — far more
/// than one scanned row — so the cadence is correspondingly denser than
/// kScanAbortCheckRows. Like the row cadence, a batch shorter than one
/// slice never polls mid-count, so tiny batches complete whole even under
/// an already-expired budget.
inline constexpr size_t kVerticalBudgetCheckCandidates = 64;

/// A shared deadline for the scanning backends. Thread-safe: workers of a
/// pooled scan poll and latch it concurrently. Deliberately lock-free —
/// one relaxed atomic flag, no Mutex — so it carries no util/sync.h
/// capability annotations: there is no guarded state, only a monotonic
/// latch whose happens-before edges come from the ThreadPool batch
/// completion (the miner reads exceeded() only after RunBatch drains).
class ScanBudget {
 public:
  /// Deadline `budget_ms` milliseconds from now.
  explicit ScanBudget(double budget_ms)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(budget_ms))) {}

  /// Polls the clock (cheap once latched) and returns true when the
  /// deadline has passed. Latches: once true, always true.
  bool Check() {
    if (exceeded_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= deadline_) {
      exceeded_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// True if any Check() observed the deadline as passed. Does not read the
  /// clock — a scan that never polled mid-scan reports false even when the
  /// deadline has passed since.
  bool exceeded() const { return exceeded_.load(std::memory_order_relaxed); }

  /// Milliseconds left before the deadline; 0 once it has passed.
  double RemainingMillis() const {
    const auto left = deadline_ - std::chrono::steady_clock::now();
    return std::max(
        0.0, std::chrono::duration<double, std::milli>(left).count());
  }

  /// Latches the budget as spent without reading the clock, for a caller
  /// that saw it expire elsewhere (a nested run given what remained of it).
  void Expire() { exceeded_.store(true, std::memory_order_relaxed); }

 private:
  std::chrono::steady_clock::time_point deadline_;
  std::atomic<bool> exceeded_{false};
};

}  // namespace pincer

#endif  // PINCER_COUNTING_SCAN_BUDGET_H_
