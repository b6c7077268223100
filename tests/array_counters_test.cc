// Unit tests for the pass-1/pass-2 array fast paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "counting/array_counters.h"
#include "counting/scan_budget.h"
#include "data/vertical_index.h"
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

// The packed triangle over `items`, counted pair by pair into 64-bit cells
// straight from the rows: the reference both fills must reproduce.
std::vector<uint64_t> ReferencePairCounts(const TransactionDatabase& db,
                                          const std::vector<ItemId>& items) {
  std::vector<uint64_t> counts;
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      counts.push_back(db.CountSupport(Itemset{items[i], items[j]}));
    }
  }
  return counts;
}

TEST(PairCountMatrix, IndexFillMatchesArrayScanCellForCell) {
  // Random databases over 64 items with F = 0..60 of them in the matrix (a
  // stride picks sparse ids), at rows spanning one word and several; both
  // fills at no pool and 1, 2 and 8 threads against the 64-bit reference.
  for (const size_t rows : {size_t{57}, size_t{300}}) {
    RandomDbParams params;
    params.num_items = 64;
    params.num_transactions = rows;
    params.item_probability = 0.3;
    params.seed = 23 + rows;
    const TransactionDatabase db = MakeRandomDatabase(params);
    const VerticalIndex index(db);
    for (const size_t f : {0, 1, 2, 3, 17, 33, 60}) {
      std::vector<ItemId> items;
      for (size_t i = 0; i < f; ++i) {
        items.push_back(static_cast<ItemId>(i * 64 / 60 % 64));
      }
      const std::vector<uint64_t> reference = ReferencePairCounts(db, items);
      for (const size_t threads : {0, 1, 2, 8}) {
        std::optional<ThreadPool> pool;
        if (threads > 0) pool.emplace(threads);
        ThreadPool* const pool_ptr = pool ? &*pool : nullptr;
        PairCountMatrix scanned(items);
        scanned.CountDatabase(db, pool_ptr);
        PairCountMatrix filled(items);
        filled.CountIndex(index, pool_ptr);
        ASSERT_EQ(scanned.raw_counts().size(), reference.size());
        ASSERT_EQ(filled.raw_counts().size(), reference.size());
        for (size_t cell = 0; cell < reference.size(); ++cell) {
          ASSERT_EQ(scanned.raw_counts()[cell], reference[cell])
              << rows << " rows, F = " << f << ", " << threads
              << " threads, cell " << cell;
          ASSERT_EQ(filled.raw_counts()[cell], reference[cell])
              << rows << " rows, F = " << f << ", " << threads
              << " threads, cell " << cell;
        }
      }
    }
  }
}

TEST(PairCountMatrix, ExpiredBudgetStopsEitherFill) {
  // The scan polls every kScanAbortCheckRows rows, the index fill every
  // kVerticalBudgetCheckCandidates pairs; an expired budget latches at the
  // first poll and leaves partial counts.
  TransactionDatabase db(20);
  Transaction all;
  for (ItemId item = 0; item < 20; ++item) all.push_back(item);
  const size_t rows = 2 * kScanAbortCheckRows + 1;
  for (size_t i = 0; i < rows; ++i) db.AddTransaction(all);
  const std::vector<ItemId> items = all;
  ASSERT_GT(items.size() * (items.size() - 1) / 2,
            kVerticalBudgetCheckCandidates);

  ScanBudget scan_budget(0);
  PairCountMatrix scanned(items);
  scanned.CountDatabase(db, nullptr, &scan_budget);
  EXPECT_TRUE(scan_budget.exceeded());
  EXPECT_EQ(scanned.raw_counts().front(), kScanAbortCheckRows);

  const VerticalIndex index(db);
  ScanBudget fill_budget(0);
  PairCountMatrix filled(items);
  filled.CountIndex(index, nullptr, &fill_budget);
  EXPECT_TRUE(fill_budget.exceeded());
  EXPECT_EQ(filled.raw_counts()[kVerticalBudgetCheckCandidates - 1], rows);
  EXPECT_EQ(filled.raw_counts()[kVerticalBudgetCheckCandidates], 0u);
}

TEST(PairCountMatrix, RestoreRejectsCountsPastACell) {
  PairCountMatrix matrix({0, 1, 2});
  EXPECT_TRUE(matrix.RestoreCounts({1, 2, 3}).ok());
  EXPECT_EQ(matrix.PairCount(1, 2), 3u);
  const Status too_few = matrix.RestoreCounts({1, 2});
  EXPECT_EQ(too_few.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_few.message().find("pair_counts"), std::string::npos);
  const Status too_large =
      matrix.RestoreCounts({1, uint64_t{UINT32_MAX} + 1, 3});
  EXPECT_EQ(too_large.code(), StatusCode::kInvalidArgument);
  // A rejected restore leaves the matrix as it was.
  EXPECT_EQ(matrix.PairCount(0, 2), 2u);
  EXPECT_TRUE(matrix.RestoreCounts({0, UINT32_MAX, 0}).ok());
  EXPECT_EQ(matrix.PairCount(0, 2), uint64_t{UINT32_MAX});
}

// The pass-2 shapes of the queries perfbench's serve workload mines (its
// files are Quest T20.I10 and T20.I6 at |D| = 100K and N = 1000, whatever
// the seed): F frequent items, their supports' sum S and sum of squares.
struct ServedShape {
  double min_support;
  uint64_t num_items;
  double support_sum;
  double support_square_sum;
};

TEST(PairFillPrefersIndex, PinsTheServedShapes) {
  constexpr uint64_t kRows = 100'000;
  // The concentrated file at 10-18%: few frequent items, each in many
  // rows. The fill takes 0.1-1.5 ms, the array scan 5-9 ms.
  const ServedShape concentrated[] = {
      {0.10, 65, 1068459, 20036014251.0},
      {0.12, 43, 828898, 17419681870.0},
      {0.14, 35, 727502, 16131960348.0},
      {0.16, 26, 589076, 14002198894.0},
      {0.18, 20, 487784, 12290829920.0},
  };
  // The scattered file at 0.5-2%: hundreds of frequent items, each in few
  // rows. The array scan takes 12-28 ms, the fill 79-342 ms.
  const ServedShape scattered[] = {
      {0.005, 960, 1980054, 4907347932.0},
      {0.00875, 882, 1923638, 4865690094.0},
      {0.0125, 763, 1798891, 4733416269.0},
      {0.01625, 637, 1616508, 4468064730.0},
      {0.02, 462, 1301875, 3900663447.0},
  };
  for (const ServedShape& shape : concentrated) {
    EXPECT_TRUE(PairFillPrefersIndex(kRows, shape.num_items,
                                     shape.support_sum,
                                     shape.support_square_sum))
        << "concentrated at " << shape.min_support;
  }
  for (const ServedShape& shape : scattered) {
    EXPECT_FALSE(PairFillPrefersIndex(kRows, shape.num_items,
                                      shape.support_sum,
                                      shape.support_square_sum))
        << "scattered at " << shape.min_support;
  }
}

TEST(PairFillPrefersIndex, SupportsFormAgreesWithTheSums) {
  // Five items in every row of a 1000-row database: 10 pairs of 16 words
  // against 10 * 1000 expected increments — the fill. A thousand items in
  // two rows each: 499,500 pairs against 1,998 increments — the scan.
  EXPECT_TRUE(PairFillPrefersIndex(1000, std::vector<uint64_t>(5, 1000)));
  EXPECT_TRUE(PairFillPrefersIndex(1000, 5, 5000.0, 5000000.0));
  EXPECT_FALSE(PairFillPrefersIndex(1000, std::vector<uint64_t>(1000, 2)));
  EXPECT_FALSE(PairFillPrefersIndex(1000, 1000, 2000.0, 4000.0));
}

}  // namespace
}  // namespace pincer
