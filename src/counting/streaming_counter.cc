#include "counting/streaming_counter.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "counting/candidate_trie.h"
#include "counting/scan_budget.h"
#include "data/basket_reader.h"
#include "data/transaction.h"
#include "util/contracts.h"
#include "util/failpoint.h"

namespace pincer {

StreamingCounter::StreamingCounter(std::string path, StreamingOptions options)
    : path_(std::move(path)), options_(options) {}

StatusOr<std::vector<uint64_t>> StreamingCounter::CountSupports(
    const std::vector<Itemset>& candidates) {
  size_t max_attempts = options_.retry.max_attempts;
  if (max_attempts == 0) max_attempts = 1;

  std::vector<uint64_t> counts;
  Status last_error;
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      const double backoff = BackoffMs(options_.retry, attempt - 1);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
      }
    }
    last_error = CountOnce(candidates, counts);
    if (last_error.ok()) {
      PINCER_CHECK(counts.size() == candidates.size(),
                  "count vector out of step with candidate vector: ",
                  counts.size(), " vs ", candidates.size());
      return counts;
    }
    if (!IsRetryable(last_error)) break;
  }
  return last_error;
}

Status StreamingCounter::CountOnce(const std::vector<Itemset>& candidates,
                                   std::vector<uint64_t>& counts) {
  PINCER_FAILPOINT("streaming.open");
  std::ifstream in(path_);
  if (!in) return Status::IoError("cannot open " + path_);

  counts.assign(candidates.size(), 0);
  CandidateTrie trie;
  size_t num_nonempty = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!candidates[i].empty()) {
      trie.Insert(candidates[i], i);
      ++num_nonempty;
    }
  }

  // This attempt is one real sequential read of the file — the unit the
  // paper's I/O cost model charges — so it counts as a pass even if a
  // later row fails and the attempt is discarded.
  ++passes_;
  last_pass_transactions_ = 0;

  BasketReader reader(in, {options_.malformed_rows, "streaming.read",
                           "streaming.parse_row", path_});
  Transaction transaction;
  PINCER_RETURN_IF_ERROR(reader.ForEachRow([&](const BasketRow& row) {
    if (options_.budget != nullptr && last_pass_transactions_ > 0 &&
        last_pass_transactions_ % kScanAbortCheckRows == 0 &&
        options_.budget->Check()) {
      // FailedPrecondition, not IoError: a timed-out scan must not be
      // retried by the retry policy (it would time out again, later).
      return Status::FailedPrecondition(
          "time budget exceeded after " +
          std::to_string(last_pass_transactions_) + " rows of " + path_);
    }
    transaction.assign(row.items.begin(), row.items.end());
    std::sort(transaction.begin(), transaction.end());
    transaction.erase(std::unique(transaction.begin(), transaction.end()),
                      transaction.end());
    ++last_pass_transactions_;
    if (num_nonempty > 0) trie.CountTransaction(transaction, counts);
    return Status::OK();
  }));
  rows_skipped_ += reader.rows_skipped();

  // Empty itemsets are supported by every transaction seen this pass.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty()) counts[i] = last_pass_transactions_;
  }
  return Status::OK();
}

}  // namespace pincer
