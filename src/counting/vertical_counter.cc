#include "counting/vertical_counter.h"

#include "counting/chunked_scan.h"
#include "counting/scan_budget.h"
#include "util/contracts.h"

namespace pincer {

VerticalCounter::VerticalCounter(const TransactionDatabase& db)
    : db_(db), index_(db) {}

void VerticalCounter::CountRange(const std::vector<Itemset>& candidates,
                                 size_t begin, size_t end,
                                 DynamicBitset& scratch,
                                 std::vector<uint64_t>& counts) {
  for (size_t i = begin; i < end; ++i) {
    if (budget_ != nullptr && i > begin &&
        (i - begin) % kVerticalBudgetCheckCandidates == 0 &&
        budget_->Check()) {
      return;
    }
    counts[i] = candidates[i].empty()
                    ? db_.size()
                    : index_.CountSupport(candidates[i], scratch);
  }
}

std::vector<uint64_t> VerticalCounter::CountSupports(
    const std::vector<Itemset>& candidates) {
  if (metrics_ != nullptr) {
    // The vertical backend reads per-item bitmaps, not database rows;
    // transactions_scanned stays 0 by design (see CountingMetrics docs).
    // Empty candidates are answered as |D| without bitmap work and are
    // excluded from candidates_counted — same convention as all backends.
    ++metrics_->count_calls;
    for (const Itemset& candidate : candidates) {
      if (!candidate.empty()) ++metrics_->candidates_counted;
    }
  }
  std::vector<uint64_t> counts(candidates.size(), 0);
  // One contiguous candidate range per worker. Every slot of `counts` is
  // written by exactly one worker with an exact popcount, so the result is
  // bit-identical at any thread count; no merge step is needed.
  RunInRanges(pool_, candidates.size(), kMinCandidatesPerVerticalWorker,
              [&](size_t begin, size_t end) {
                DynamicBitset scratch;
                CountRange(candidates, begin, end, scratch, counts);
              });
  PINCER_CHECK(counts.size() == candidates.size(),
              "count vector out of step with candidate vector: ",
              counts.size(), " vs ", candidates.size());
  return counts;
}

}  // namespace pincer
