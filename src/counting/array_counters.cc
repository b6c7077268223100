#include "counting/array_counters.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "counting/chunked_scan.h"
#include "counting/vertical_counter.h"
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

bool PairFillPrefersIndex(uint64_t num_rows, uint64_t num_items,
                          double support_sum, double support_square_sum) {
  const double items = static_cast<double>(num_items);
  const double words = static_cast<double>((num_rows + 63) / 64);
  // C(F,2) * words <= c * E, with both sides times 2|D|.
  return items * (items - 1) * words * static_cast<double>(num_rows) <=
         kArrayPairCostInWordOps *
             (support_sum * support_sum - support_square_sum);
}

bool PairFillPrefersIndex(uint64_t num_rows,
                          const std::vector<uint64_t>& supports) {
  double sum = 0;
  double square_sum = 0;
  for (const uint64_t support : supports) {
    const double s = static_cast<double>(support);
    sum += s;
    square_sum += s * s;
  }
  return PairFillPrefersIndex(num_rows, supports.size(), sum, square_sum);
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
  const Status rows = CheckDatabaseRows(db.size());
  PINCER_CHECK(rows.ok(), rows.message());
  // A rank for every id a row can hold, so the row loop reads one without
  // a bounds test.
  std::vector<uint32_t> rank_of(std::max(db.num_items(), rank_of_.size()),
                                kNoRank);
  std::copy(rank_of_.begin(), rank_of_.end(), rank_of.begin());
  ChunkedCountScan(
      pool, db.size(), counts_,
      [&](size_t /*chunk*/, size_t begin, size_t end,
          std::vector<uint32_t>& partial) {
        std::vector<uint32_t> ranks;
        for (size_t tid = begin; tid < end; ++tid) {
          const Transaction& row = db.transaction(tid);
          if (ranks.size() < row.size()) ranks.resize(row.size());
          // Branch-free compaction: every rank is stored, and the end
          // advances past it only when the item is frequent.
          size_t num_ranks = 0;
          for (ItemId item : row) {
            ranks[num_ranks] = rank_of[item];
            num_ranks += ranks[num_ranks] != kNoRank;
          }
          // Transaction items are sorted by id; ranks are sorted too because
          // the rank mapping is monotone in item id. Each outer rank looks
          // up its row once; a pair is then one add and one increment.
          for (size_t i = 0; i + 1 < num_ranks; ++i) {
            const size_t base = RowBase(ranks[i]);
            for (size_t j = i + 1; j < num_ranks; ++j) {
              ++partial[base + ranks[j]];
            }
          }
        }
      },
      budget);
}

void PairCountMatrix::CountIndex(const VerticalIndex& index, ThreadPool* pool,
                                 ScanBudget* budget) {
  const Status rows = CheckDatabaseRows(index.num_transactions());
  PINCER_CHECK(rows.ok(), rows.message());
  const size_t n = items_.size();
  RunInRanges(
      pool, counts_.size(), kMinCandidatesPerVerticalWorker,
      [&](size_t begin, size_t end) {
        // The cell `begin` is (r1, r2): walk the row lengths n-1, n-2, ...
        size_t r1 = 0;
        size_t row_start = 0;
        while (row_start + (n - 1 - r1) <= begin) row_start += n - 1 - r1++;
        size_t r2 = r1 + 1 + (begin - row_start);
        for (size_t cell = begin; cell < end; ++cell) {
          if (budget != nullptr && cell > begin &&
              (cell - begin) % kVerticalBudgetCheckCandidates == 0 &&
              budget->Check()) {
            return;
          }
          counts_[cell] = static_cast<uint32_t>(
              index.tidset(items_[r1]).IntersectionCount(
                  index.tidset(items_[r2])));
          if (++r2 == n) {
            ++r1;
            r2 = r1 + 1;
          }
        }
      });
}

Status PairCountMatrix::RestoreCounts(const std::vector<uint64_t>& counts) {
  if (counts.size() != counts_.size()) {
    return Status::InvalidArgument(
        "pair_counts does not match pair_items (expected " +
        std::to_string(counts_.size()) + " counts, got " +
        std::to_string(counts.size()) + ")");
  }
  for (uint64_t count : counts) {
    if (count > UINT32_MAX) {
      return Status::InvalidArgument("pair count " + std::to_string(count) +
                                     " does not fit a 32-bit cell");
    }
  }
  std::copy(counts.begin(), counts.end(), counts_.begin());
  return Status::OK();
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
