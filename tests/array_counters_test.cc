// Unit tests for the pass-1/pass-2 array fast paths.

#include <gtest/gtest.h>

#include <optional>

#include "counting/array_counters.h"
#include "counting/scan_budget.h"
#include "testing/db_builder.h"
#include "util/thread_pool.h"

namespace pincer {
namespace {

TEST(CountSingletons, MatchesDirectCounts) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1}, {1, 2}, {1}}, /*num_items=*/4);
  const std::vector<uint64_t> counts = CountSingletons(db);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(CountSingletons, EmptyDatabase) {
  const TransactionDatabase db(3);
  EXPECT_EQ(CountSingletons(db), (std::vector<uint64_t>{0, 0, 0}));
}

TEST(PairCountMatrix, CountsAllFrequentPairs) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1, 2}, {0, 2}, {1, 2}, {0, 1, 2}});
  PairCountMatrix matrix({0, 1, 2});
  matrix.CountDatabase(db);
  EXPECT_EQ(matrix.PairCount(0, 1), 2u);
  EXPECT_EQ(matrix.PairCount(0, 2), 3u);
  EXPECT_EQ(matrix.PairCount(1, 2), 3u);
  // Symmetric lookup.
  EXPECT_EQ(matrix.PairCount(2, 0), 3u);
}

TEST(PairCountMatrix, IgnoresNonFrequentItems) {
  // Item 3 occurs but is not in the frequent list; transactions containing
  // it must still contribute their frequent-item pairs.
  const TransactionDatabase db = MakeDatabase({{0, 1, 3}, {0, 1}});
  PairCountMatrix matrix({0, 1});
  matrix.CountDatabase(db);
  EXPECT_EQ(matrix.PairCount(0, 1), 2u);
}

TEST(PairCountMatrix, SparseItemIds) {
  // Frequent items with gaps in the id space exercise the rank remapping.
  const TransactionDatabase db =
      MakeDatabase({{2, 17, 30}, {2, 30}, {17, 30}}, /*num_items=*/32);
  PairCountMatrix matrix({2, 17, 30});
  matrix.CountDatabase(db);
  EXPECT_EQ(matrix.PairCount(2, 17), 1u);
  EXPECT_EQ(matrix.PairCount(2, 30), 2u);
  EXPECT_EQ(matrix.PairCount(17, 30), 2u);
}

TEST(PairCountMatrix, MatchesDirectScanOnRandomData) {
  RandomDbParams params;
  params.num_items = 10;
  params.num_transactions = 50;
  params.seed = 8;
  const TransactionDatabase db = MakeRandomDatabase(params);
  std::vector<ItemId> all_items;
  for (ItemId i = 0; i < 10; ++i) all_items.push_back(i);
  PairCountMatrix matrix(all_items);
  matrix.CountDatabase(db);
  for (ItemId a = 0; a < 10; ++a) {
    for (ItemId b = a + 1; b < 10; ++b) {
      EXPECT_EQ(matrix.PairCount(a, b), db.CountSupport(Itemset{a, b}))
          << "{" << a << "," << b << "}";
    }
  }
}

// The pooled pass-1 scan merges per-chunk partial arrays in chunk order, so
// it is bit-identical to the serial scan at every thread count. The 200-row
// database splits into multiple chunks even at the 64-row minimum chunk
// size.
TEST(CountSingletons, PooledScanMatchesSerial) {
  RandomDbParams params;
  params.num_items = 12;
  params.num_transactions = 200;
  params.seed = 13;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const std::vector<uint64_t> serial = CountSingletons(db);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(CountSingletons(db, &pool), serial) << threads << " threads";
  }
}

TEST(PairCountMatrix, PooledScanMatchesSerial) {
  // The second database spans more than two budget slices, so the scans
  // given a (non-expiring) budget walk every chunk longer than
  // kScanAbortCheckRows slice by slice: three slices with no pool or one
  // thread, two chunks of two slices at two threads.
  for (const size_t rows : {size_t{200}, 2 * kScanAbortCheckRows + 123}) {
    RandomDbParams params;
    params.num_items = 10;
    params.num_transactions = rows;
    params.seed = 14;
    const TransactionDatabase db = MakeRandomDatabase(params);
    std::vector<ItemId> all_items;
    for (ItemId i = 0; i < 10; ++i) all_items.push_back(i);
    PairCountMatrix serial(all_items);
    serial.CountDatabase(db);
    // 0 threads stands for no pool: the serial scan, sliced by the budget.
    for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
      std::optional<ThreadPool> pool;
      if (threads > 0) pool.emplace(threads);
      ScanBudget budget(/*budget_ms=*/3'600'000.0);
      PairCountMatrix pooled(all_items);
      pooled.CountDatabase(db, pool ? &*pool : nullptr,
                           rows > kScanAbortCheckRows ? &budget : nullptr);
      ASSERT_FALSE(budget.exceeded());
      for (ItemId a = 0; a < 10; ++a) {
        for (ItemId b = a + 1; b < 10; ++b) {
          ASSERT_EQ(pooled.PairCount(a, b), serial.PairCount(a, b))
              << rows << " rows, " << threads << " threads, pair {" << a
              << "," << b << "}";
        }
      }
    }
  }
}

TEST(PairCountMatrix, TwoItemsOnly) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {0, 1}});
  PairCountMatrix matrix({0, 1});
  matrix.CountDatabase(db);
  EXPECT_EQ(matrix.PairCount(0, 1), 2u);
}

}  // namespace
}  // namespace pincer
