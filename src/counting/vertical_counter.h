// Vertical counting: per-item transaction bitmaps intersected per candidate.
// Independent of the horizontal scan order, which makes it a good
// cross-check backend in the test suite — and, since each candidate's count
// is an exact word-level intersect-and-popcount, the engine backend=auto
// builds wherever the index fits its memory cap (see
// counting/counter_factory.h).

#ifndef PINCER_COUNTING_VERTICAL_COUNTER_H_
#define PINCER_COUNTING_VERTICAL_COUNTER_H_

#include "counting/support_counter.h"
#include "data/vertical_index.h"

namespace pincer {

/// Candidates per worker below which splitting a vertical batch across the
/// pool is not worth the dispatch: small batches run serially whatever the
/// pool size.
inline constexpr size_t kMinCandidatesPerVerticalWorker = 16;

/// SupportCounter that builds its VerticalIndex at construction — the
/// one-time O(|D|) transpose is setup cost, not counting cost, so it never
/// lands in any pass's counting_ms and per-pass timings stay comparable
/// across backends — and answers each candidate by bitmap intersection.
///
/// A batch is walked in the order it arrives, with a stack of prefix ANDs:
/// a candidate rebuilds only the levels past the prefix it shares with the
/// previous one, then does one fused intersect-and-popcount against its
/// last item's tidset. Only the levels the next candidate shares are kept
/// (in a sorted batch, such as AprioriGen's, no later candidate shares
/// more); the rest are chained in one scratch bitset. An empty AND gives 0
/// for its candidate and for every later one holding that prefix, with no
/// more ANDs. One-item candidates read the index's recorded support.
///
/// With an attached ThreadPool the candidate batch is split into contiguous
/// per-worker ranges, each with its own stack; every candidate's count is
/// an exact popcount written to its own slot of the result vector, so the
/// result is bit-identical at any thread count (the disjoint-slot analogue
/// of ChunkedCountScan's chunk-ordered merge). With an attached ScanBudget
/// the deadline is polled every kVerticalBudgetCheckCandidates candidates
/// and the count stops mid-batch once it expires — the caller must test
/// budget->exceeded() and discard the partial counts, exactly as with the
/// scanning backends.
class VerticalCounter : public SupportCounter {
 public:
  /// Binds to `db` (which must outlive this counter) and builds the
  /// per-item bitmap index up front.
  explicit VerticalCounter(const TransactionDatabase& db);

  std::vector<uint64_t> CountSupports(
      const std::vector<Itemset>& candidates) override;

  CounterBackend backend() const override { return CounterBackend::kVertical; }
  const VerticalIndex* vertical_index() const override { return &index_; }

 private:
  // Counts candidates[begin, end) into the matching slots of `counts`
  // through one prefix stack, polling `budget_` every
  // kVerticalBudgetCheckCandidates candidates (never before the first).
  void CountRange(const std::vector<Itemset>& candidates, size_t begin,
                  size_t end, std::vector<uint64_t>& counts) const;

  const TransactionDatabase& db_;
  VerticalIndex index_;
};

}  // namespace pincer

#endif  // PINCER_COUNTING_VERTICAL_COUNTER_H_
