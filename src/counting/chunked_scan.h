// Shared work splitters for the counting paths. ChunkedCountScan, for the
// transaction-scanning paths, partitions the row range into one contiguous
// chunk per pool thread, runs a read-only scan per chunk into a private
// partial-count vector, and merges the partials in fixed worker order.
// Counts are exact integer sums, so the result is bit-identical to the
// serial scan regardless of scheduling. RunInRanges, for the vertical
// paths, splits a batch whose every element writes its own output slot, so
// no merge is needed.

#ifndef PINCER_COUNTING_CHUNKED_SCAN_H_
#define PINCER_COUNTING_CHUNKED_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "counting/scan_budget.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace pincer {

/// Rows per worker below which chunking is not worth the partial-vector
/// setup; tiny databases run serially whatever the pool size.
inline constexpr size_t kMinRowsPerScanWorker = 64;

/// Number of scan chunks a pool yields for `num_rows` rows: the pool's
/// thread count, capped so every chunk has at least kMinRowsPerScanWorker
/// rows. A null pool means 1 (serial).
inline size_t ScanChunks(const ThreadPool* pool, size_t num_rows) {
  if (pool == nullptr) return 1;
  const size_t by_rows = num_rows / kMinRowsPerScanWorker;
  const size_t chunks = pool->num_threads() < by_rows ? pool->num_threads()
                                                      : by_rows;
  return chunks < 1 ? 1 : chunks;
}

/// Runs `scan(chunk, begin, end, partial)` over a partition of
/// [0, num_rows) and accumulates every partial into `counts` (element-wise
/// add, chunk 0 first). The serial case (one chunk) scans directly into
/// `counts` with no copy. `scan` must only read shared state and write its
/// own `partial`, a std::vector<Count> that arrives zero-initialized at
/// counts.size().
///
/// With a non-null `budget`, each chunk is walked in kScanAbortCheckRows
/// sub-slices and the budget is polled between slices: once exceeded, every
/// worker stops at its next poll and `counts` is left partial — the caller
/// must test budget->exceeded() and discard the counts when set. A chunk
/// always scans its first sub-slice before polling, so scans smaller than
/// one slice are never cut short.
template <typename Count, typename Scan>
void ChunkedCountScan(ThreadPool* pool, size_t num_rows,
                      std::vector<Count>& counts, const Scan& scan,
                      ScanBudget* budget = nullptr) {
  if (num_rows == 0) return;
  const auto scan_range = [&scan, budget](size_t chunk, size_t begin,
                                          size_t end,
                                          std::vector<Count>& out) {
    if (budget == nullptr) {
      scan(chunk, begin, end, out);
      return;
    }
    for (size_t slice = begin; slice < end; slice += kScanAbortCheckRows) {
      if (slice > begin && budget->Check()) return;
      const size_t slice_end = slice + kScanAbortCheckRows < end
                                   ? slice + kScanAbortCheckRows
                                   : end;
      scan(chunk, slice, slice_end, out);
    }
  };
  const size_t chunks = ScanChunks(pool, num_rows);
  if (chunks <= 1) {
    scan_range(0, 0, num_rows, counts);
    return;
  }
  std::vector<std::vector<Count>> partials(
      chunks, std::vector<Count>(counts.size(), 0));
  const size_t rows_per_chunk = (num_rows + chunks - 1) / chunks;
  pool->RunBatch(chunks, [&](size_t chunk) {
    const size_t begin = chunk * rows_per_chunk;
    const size_t end = begin + rows_per_chunk < num_rows
                           ? begin + rows_per_chunk
                           : num_rows;
    scan_range(chunk, begin, end, partials[chunk]);
  });
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    const std::vector<Count>& partial = partials[chunk];
    // Merge precondition: a scan callback must never resize its partial —
    // the in-order element-wise merge is what keeps pooled counts
    // bit-identical to the serial scan.
    PINCER_CHECK(partial.size() == counts.size(),
                 "scan chunk ", chunk, " resized its partial count vector (",
                 partial.size(), " vs ", counts.size(), ")");
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += partial[i];
  }
}

/// Runs `work(begin, end)` over a partition of [0, count) into contiguous
/// ranges: one per pool thread, capped so every range holds at least
/// `min_per_range` elements. A null pool, or too little work for two
/// ranges, runs [0, count) inline. `work` must write only the output slots
/// of its own range; the result is then bit-identical at any thread count.
template <typename Work>
void RunInRanges(ThreadPool* pool, size_t count, size_t min_per_range,
                 const Work& work) {
  size_t ranges = 1;
  if (pool != nullptr) {
    const size_t by_count = count / min_per_range;
    ranges = pool->num_threads() < by_count ? pool->num_threads() : by_count;
  }
  if (ranges <= 1) {
    work(size_t{0}, count);
    return;
  }
  const size_t per_range = (count + ranges - 1) / ranges;
  pool->RunBatch(ranges, [&](size_t range) {
    const size_t begin = range * per_range;
    const size_t end = begin + per_range < count ? begin + per_range : count;
    if (begin < end) work(begin, end);
  });
}

}  // namespace pincer

#endif  // PINCER_COUNTING_CHUNKED_SCAN_H_
