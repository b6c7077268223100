#include "counting/vertical_counter.h"

#include <algorithm>

#include "counting/chunked_scan.h"
#include "counting/scan_budget.h"
#include "util/contracts.h"

namespace pincer {

namespace {

// The number of leading items `a` and `b` share, at most `limit`.
size_t SharedPrefix(const Itemset& a, const Itemset& b, size_t limit) {
  size_t shared = 0;
  while (shared < limit && a[shared] == b[shared]) ++shared;
  return shared;
}

}  // namespace

VerticalCounter::VerticalCounter(const TransactionDatabase& db)
    : db_(db), index_(db) {}

void VerticalCounter::CountRange(const std::vector<Itemset>& candidates,
                                 size_t begin, size_t end,
                                 std::vector<uint64_t>& counts) const {
  // The prefix stack. levels[j] holds the AND of the first j + 2 items of
  // `built_from`, the last candidate that rebuilt it, and the first `depth`
  // levels are current. When `empty_len` > 0, the first empty_len items of
  // `built_from` AND to nothing, so every candidate holding them counts 0.
  std::vector<DynamicBitset> levels;
  const Itemset* built_from = nullptr;
  size_t depth = 0;
  size_t empty_len = 0;
  // The levels no later candidate shares are chained here.
  DynamicBitset scratch;
  for (size_t i = begin; i < end; ++i) {
    if (budget_ != nullptr && i > begin &&
        (i - begin) % kVerticalBudgetCheckCandidates == 0 &&
        budget_->Check()) {
      return;
    }
    const Itemset& candidate = candidates[i];
    const size_t k = candidate.size();
    if (k == 0) {
      counts[i] = db_.size();
      continue;
    }
    if (k == 1) {
      counts[i] = index_.item_supports()[candidate[0]];
      continue;
    }
    if (k == 2) {
      counts[i] = index_.tidset(candidate[0]).IntersectionCount(
          index_.tidset(candidate[1]));
      continue;
    }
    const size_t shared =
        built_from == nullptr
            ? 0
            : SharedPrefix(*built_from, candidate,
                           std::min(built_from->size() - 1, k));
    if (empty_len > 0 && shared >= empty_len) {
      counts[i] = 0;
      continue;
    }
    // Levels 0..need-1 make the AND of all items but the last. Those built
    // from items the candidate shares stay; the rest, and the empty mark,
    // which the candidate does not share, are left behind.
    const size_t need = k - 2;
    depth = std::min({depth, shared >= 2 ? shared - 1 : 0, need});
    empty_len = 0;
    built_from = &candidate;
    // Keep the levels the next candidate shares; chain the others in
    // `scratch`. In a sorted batch no later candidate shares more.
    const size_t next_shared =
        i + 1 < end ? SharedPrefix(candidate, candidates[i + 1],
                                   std::min(k - 1, candidates[i + 1].size()))
                    : 0;
    const size_t keep = next_shared >= 2 ? next_shared - 1 : 0;
    if (levels.size() < keep) levels.resize(keep);
    const DynamicBitset* acc = depth > 0 ? &levels[depth - 1] : nullptr;
    for (size_t j = depth; j < need; ++j) {
      DynamicBitset& out = j < keep ? levels[j] : scratch;
      const DynamicBitset& left = j == 0 ? index_.tidset(candidate[0]) : *acc;
      if (!out.AssignAnd(left, index_.tidset(candidate[j + 1]))) {
        empty_len = j + 2;
        acc = nullptr;
        break;
      }
      acc = &out;
      if (j < keep) depth = j + 1;
    }
    counts[i] = acc == nullptr
                    ? 0
                    : acc->IntersectionCount(index_.tidset(candidate[k - 1]));
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
                CountRange(candidates, begin, end, counts);
              });
  PINCER_CHECK(counts.size() == candidates.size(),
              "count vector out of step with candidate vector: ",
              counts.size(), " vs ", candidates.size());
  return counts;
}

}  // namespace pincer
