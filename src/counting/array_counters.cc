#include "counting/array_counters.h"

#include <cassert>

#include "counting/chunked_scan.h"
#include "util/contracts.h"

namespace pincer {

std::vector<uint64_t> CountSingletons(const TransactionDatabase& db,
                                      ThreadPool* pool, ScanBudget* budget) {
  std::vector<uint64_t> counts(db.num_items(), 0);
  ChunkedCountScan(pool, db.size(), counts,
                   [&db](size_t /*chunk*/, size_t begin, size_t end,
                         std::vector<uint64_t>& partial) {
                     for (size_t tid = begin; tid < end; ++tid) {
                       for (ItemId item : db.transaction(tid)) {
                         ++partial[item];
                       }
                     }
                   },
                   budget);
  return counts;
}

PairCountMatrix::PairCountMatrix(std::vector<ItemId> frequent_items)
    : items_(std::move(frequent_items)) {
  // The triangular index, the rank map, and every consumer of
  // frequent_items() (candidate generation, checkpointing) assume a
  // strictly increasing item list; the resume path restores matrices from
  // parsed checkpoints, so enforce the precondition here rather than trust
  // every caller.
  PINCER_CHECK_SORTED_UNIQUE(items_);
  // Ranks stay below kNoRank unless all 2^32 ids are frequent.
  PINCER_CHECK(items_.size() <= kNoRank, "too many frequent items: ",
               items_.size());
  size_t max_item = 0;
  for (ItemId item : items_) max_item = std::max<size_t>(max_item, item);
  rank_of_.assign(items_.empty() ? 0 : max_item + 1, kNoRank);
  for (size_t rank = 0; rank < items_.size(); ++rank) {
    rank_of_[items_[rank]] = static_cast<uint32_t>(rank);
  }
  const size_t n = items_.size();
  counts_.assign(n < 2 ? 0 : n * (n - 1) / 2, 0);
}

size_t PairCountMatrix::RowBase(size_t r1) const {
  const size_t n = items_.size();
  // Row-major packed upper triangle: row r1 starts after
  // sum_{i<r1} (n-1-i) entries, and its first column is r1 + 1. For r1 = 0
  // the base wraps below zero and adding r2 >= 1 wraps it back: unsigned
  // index arithmetic, so no pointer outside the array is ever formed.
  return r1 * (n - 1) - r1 * (r1 - 1) / 2 - (r1 + 1);
}

void PairCountMatrix::CountDatabase(const TransactionDatabase& db,
                                    ThreadPool* pool, ScanBudget* budget) {
  ChunkedCountScan(
      pool, db.size(), counts_,
      [&](size_t /*chunk*/, size_t begin, size_t end,
          std::vector<uint64_t>& partial) {
        std::vector<uint32_t> ranks;
        for (size_t tid = begin; tid < end; ++tid) {
          ranks.clear();
          for (ItemId item : db.transaction(tid)) {
            if (item < rank_of_.size() && rank_of_[item] != kNoRank) {
              ranks.push_back(rank_of_[item]);
            }
          }
          // Transaction items are sorted by id; ranks are sorted too because
          // the rank mapping is monotone in item id. Each outer rank looks
          // up its row once; a pair is then one add and one increment.
          for (size_t i = 0; i + 1 < ranks.size(); ++i) {
            const size_t row = RowBase(ranks[i]);
            for (size_t j = i + 1; j < ranks.size(); ++j) {
              ++partial[row + ranks[j]];
            }
          }
        }
      },
      budget);
}

std::optional<uint64_t> PairCountMatrix::TryPairCount(ItemId a, ItemId b) const {
  if (a == b) return std::nullopt;
  if (a >= rank_of_.size() || b >= rank_of_.size()) return std::nullopt;
  if (rank_of_[a] == kNoRank || rank_of_[b] == kNoRank) return std::nullopt;
  return PairCount(a, b);
}

uint64_t PairCountMatrix::PairCount(ItemId a, ItemId b) const {
  assert(a != b);
  const size_t ra = rank_of_[a];
  const size_t rb = rank_of_[b];
  assert(ra != kNoRank && rb != kNoRank);
  return counts_[ra < rb ? RowBase(ra) + rb : RowBase(rb) + ra];
}

}  // namespace pincer
