// Unit tests for the vertical (tidset) index.

#include <gtest/gtest.h>

#include "data/vertical_index.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

TEST(VerticalIndex, TidsetsMatchOccurrences) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {1, 2}, {0, 2}});
  const VerticalIndex index(db);
  EXPECT_EQ(index.num_transactions(), 3u);
  EXPECT_EQ(index.num_items(), 3u);
  EXPECT_TRUE(index.tidset(0).Test(0));
  EXPECT_FALSE(index.tidset(0).Test(1));
  EXPECT_TRUE(index.tidset(0).Test(2));
  EXPECT_EQ(index.tidset(1).Count(), 2u);
}

TEST(VerticalIndex, CountSupportMatchesDirectScan) {
  RandomDbParams params;
  params.num_items = 10;
  params.num_transactions = 60;
  params.seed = 11;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const VerticalIndex index(db);
  // Lengths up to the whole universe, so the chain can stop at an empty
  // AND before its last item.
  const std::vector<Itemset> probes = {
      Itemset{0},          Itemset{0, 1},
      Itemset{2, 5, 7},    Itemset{1, 3, 5, 9},
      Itemset{},           Itemset{0, 1, 2, 3, 4},
      Itemset{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  for (const Itemset& probe : probes) {
    if (probe.empty()) {
      EXPECT_EQ(index.CountSupport(probe), db.size());
    } else {
      EXPECT_EQ(index.CountSupport(probe), db.CountSupport(probe)) << probe;
    }
  }
}

TEST(VerticalIndex, TidsOfIntersectsBitmaps) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {0}, {0, 1}});
  const VerticalIndex index(db);
  const DynamicBitset tids = index.TidsOf(Itemset{0, 1});
  EXPECT_TRUE(tids.Test(0));
  EXPECT_FALSE(tids.Test(1));
  EXPECT_TRUE(tids.Test(2));
  const DynamicBitset all = index.TidsOf(Itemset{});
  EXPECT_EQ(all.Count(), 3u);
}

TEST(VerticalIndex, EmptyDatabase) {
  const TransactionDatabase db(3);
  const VerticalIndex index(db);
  EXPECT_EQ(index.CountSupport(Itemset{0, 1}), 0u);
}

}  // namespace
}  // namespace pincer
