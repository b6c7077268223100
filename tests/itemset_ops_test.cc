// Unit tests for itemset collection operations.

#include <gtest/gtest.h>

#include "itemset/itemset_ops.h"

namespace pincer {
namespace {

TEST(Joinable, RequiresSharedPrefixAndDistinctLast) {
  EXPECT_TRUE(Joinable(Itemset{1, 2}, Itemset{1, 3}));
  EXPECT_FALSE(Joinable(Itemset{1, 2}, Itemset{2, 3}));
  EXPECT_FALSE(Joinable(Itemset{1, 2}, Itemset{1, 2}));
  EXPECT_FALSE(Joinable(Itemset{1, 2}, Itemset{1, 2, 3}));
  EXPECT_FALSE(Joinable(Itemset{}, Itemset{}));
  EXPECT_TRUE(Joinable(Itemset{4}, Itemset{7}));  // empty prefix
}

TEST(Join, UnionsJoinablePair) {
  EXPECT_EQ(Join(Itemset{1, 2}, Itemset{1, 3}), (Itemset{1, 2, 3}));
  EXPECT_EQ(Join(Itemset{4}, Itemset{7}), (Itemset{4, 7}));
}

TEST(NonTrivialSubsets, CountIsTwoToTheLMinusTwo) {
  // The paper's 2^l - 2 claim (§1).
  const Itemset itemset{1, 2, 3, 4};
  EXPECT_EQ(NonTrivialSubsets(itemset).size(), (1u << 4) - 2);
  EXPECT_TRUE(NonTrivialSubsets(Itemset{7}).empty());
}

TEST(SortLexicographically, Sorts) {
  std::vector<Itemset> itemsets = {Itemset{2}, Itemset{1, 9}, Itemset{1, 2}};
  SortLexicographically(itemsets);
  const std::vector<Itemset> expected = {Itemset{1, 2}, Itemset{1, 9},
                                         Itemset{2}};
  EXPECT_EQ(itemsets, expected);
}

}  // namespace
}  // namespace pincer
