// Disk-streaming support counting: each CountSupports() call re-reads a
// basket-format file from disk, transaction by transaction, without ever
// materializing the database in memory. This makes the paper's pass counts
// literal I/O — every pass is one sequential read of the database file —
// and is how the algorithms would run on databases larger than RAM.
//
// Because real multi-hour scans hit transient read faults and corrupt rows,
// the counter takes a StreamingOptions bundle: a RetryPolicy (a pass that
// fails with IoError is discarded wholesale and re-scanned, up to
// max_attempts) and a MalformedRowPolicy (strict = fail with the row's
// line number and byte offset; skip-and-count = drop the row and tally it).

#ifndef PINCER_COUNTING_STREAMING_COUNTER_H_
#define PINCER_COUNTING_STREAMING_COUNTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/row_policy.h"
#include "itemset/itemset.h"
#include "util/retry.h"
#include "util/statusor.h"

namespace pincer {

class ScanBudget;

/// Fault-handling knobs for the streaming path. Defaults reproduce the
/// pre-fault-tolerance behavior: one attempt, strict parsing, no budget.
struct StreamingOptions {
  RetryPolicy retry;
  MalformedRowPolicy malformed_rows = MalformedRowPolicy::kStrict;
  /// Optional non-owning wall-clock budget, polled every
  /// kScanAbortCheckRows rows like the in-memory scan drivers. When the
  /// deadline latches mid-scan, the pass fails with FailedPrecondition —
  /// deliberately not IoError, so the retry policy never re-runs a scan
  /// that timed out. The budget must outlive the counter's calls.
  ScanBudget* budget = nullptr;
};

/// Counts candidate supports by streaming a basket file per call. Not a
/// SupportCounter subclass: it is bound to a file, not an in-memory
/// database, and its operations can fail with I/O errors.
class StreamingCounter {
 public:
  /// Binds to a basket-format file (see data/basket_reader.h). The file is
  /// opened on each call, so it may be created after the counter.
  explicit StreamingCounter(std::string path)
      : StreamingCounter(std::move(path), StreamingOptions{}) {}

  StreamingCounter(std::string path, StreamingOptions options);

  /// One streaming pass: counts the support of every candidate. Returns
  /// IoError if the file cannot be read after exhausting the retry policy,
  /// InvalidArgument on malformed rows under the strict policy. On error no
  /// partial counts escape; on success the counts reflect exactly one clean
  /// scan (retried attempts discard their partial counts wholesale).
  StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<Itemset>& candidates);

  /// Number of streaming passes performed so far (the paper's I/O metric).
  /// Retried attempts count: each is a real read of the file.
  size_t passes() const { return passes_; }

  /// Number of transactions seen during the most recent pass.
  uint64_t last_pass_transactions() const { return last_pass_transactions_; }

  /// Total retry attempts performed across all calls (0 in a fault-free
  /// run). Feeds MiningStats::retries.
  uint64_t retries() const { return retries_; }

  /// Total malformed rows dropped across all calls under
  /// MalformedRowPolicy::kSkipAndCount. Feeds MiningStats::rows_skipped.
  uint64_t rows_skipped() const { return rows_skipped_; }

 private:
  /// One scan attempt. Fills `counts` (resized and zeroed here) and
  /// last_pass_transactions_, and adds to rows_skipped_ only on success; on
  /// error the caller discards everything.
  Status CountOnce(const std::vector<Itemset>& candidates,
                   std::vector<uint64_t>& counts);

  std::string path_;
  StreamingOptions options_;
  size_t passes_ = 0;
  uint64_t last_pass_transactions_ = 0;
  uint64_t retries_ = 0;
  uint64_t rows_skipped_ = 0;
};

}  // namespace pincer

#endif  // PINCER_COUNTING_STREAMING_COUNTER_H_
