// Unit tests for TransactionDatabase.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "data/database.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

TEST(TransactionDatabase, RowGuardRefusesPastThirtyTwoBits) {
  // Pass 2 counts pairs in 32-bit cells, so a database of 2^32 rows or more
  // is refused by its row count alone; no such database is built here.
  EXPECT_EQ(kMaxDatabaseRows, uint64_t{UINT32_MAX});
  EXPECT_TRUE(CheckDatabaseRows(0).ok());
  EXPECT_TRUE(CheckDatabaseRows(kMaxDatabaseRows).ok());
  const Status refused = CheckDatabaseRows(kMaxDatabaseRows + 1);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("4294967296 rows"), std::string::npos)
      << refused;
  EXPECT_NE(refused.message().find("4294967295"), std::string::npos)
      << refused;
  EXPECT_FALSE(CheckDatabaseRows(UINT64_MAX).ok());
}

TEST(TransactionDatabase, StartsEmpty) {
  const TransactionDatabase db(10);
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.num_items(), 10u);
}

TEST(TransactionDatabase, AddNormalizesTransactions) {
  TransactionDatabase db(10);
  db.AddTransaction({5, 2, 5, 9, 2});
  ASSERT_EQ(db.size(), 1u);
  const Transaction expected = {2, 5, 9};
  EXPECT_EQ(db.transaction(0), expected);
}

TEST(TransactionDatabase, SupportsQueries) {
  const TransactionDatabase db = MakeDatabase({{0, 1, 2}, {1, 2}, {2}});
  EXPECT_TRUE(db.Supports(0, Itemset{0, 2}));
  EXPECT_FALSE(db.Supports(1, Itemset{0}));
  EXPECT_TRUE(db.Supports(2, Itemset{}));  // empty itemset always supported
}

TEST(TransactionDatabase, CountSupportAndFraction) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1}, {0, 1, 2}, {1, 2}, {0}});
  EXPECT_EQ(db.CountSupport(Itemset{0}), 3u);
  EXPECT_EQ(db.CountSupport(Itemset{0, 1}), 2u);
  EXPECT_EQ(db.CountSupport(Itemset{0, 1, 2}), 1u);
  EXPECT_EQ(db.CountSupport(Itemset{3}), 0u);
  EXPECT_DOUBLE_EQ(db.Support(Itemset{0}), 0.75);
}

TEST(TransactionDatabase, SupportOnEmptyDatabaseIsZero) {
  const TransactionDatabase db(3);
  EXPECT_DOUBLE_EQ(db.Support(Itemset{0}), 0.0);
}

TEST(TransactionDatabase, MinSupportCountCeilsAndClamps) {
  TransactionDatabase db(2);
  for (int i = 0; i < 10; ++i) db.AddTransaction({0});
  EXPECT_EQ(db.MinSupportCount(0.25), 3u);   // ceil(2.5)
  EXPECT_EQ(db.MinSupportCount(0.3), 3u);    // exact
  EXPECT_EQ(db.MinSupportCount(0.0), 1u);    // clamped to 1
  EXPECT_EQ(db.MinSupportCount(1.0), 10u);
}

TEST(TransactionDatabase, BitsetsMatchTransactions) {
  const TransactionDatabase db = MakeDatabase({{0, 3}, {1}});
  const DynamicBitset& bits = db.transaction_bits(0);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_TRUE(bits.Test(3));
}

TEST(TransactionDatabase, BitsetCacheInvalidatedByMutation) {
  TransactionDatabase db(4);
  db.AddTransaction({0});
  db.EnsureBitsets();
  db.AddTransaction({1, 2});
  EXPECT_TRUE(db.transaction_bits(1).Test(2));
}

TEST(TransactionDatabase, TotalItemOccurrences) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {2}, {}});
  // The empty transaction is dropped by MakeDatabase? No: AddTransaction
  // keeps empty transactions; MakeDatabase passes them through.
  EXPECT_EQ(db.TotalItemOccurrences(), 3u);
}

TEST(TransactionDatabase, EmptyTransactionsAreKept) {
  TransactionDatabase db(3);
  db.AddTransaction({});
  db.AddTransaction({1});
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.transaction(0).empty());
}

TEST(TransactionDatabase, OutOfRangeItemsAreDroppedNotStored) {
  // Before the drop policy, ids >= num_items() flowed straight into the
  // num_items-sized bitsets — a heap overflow in release builds that this
  // test would trip under ASan.
  TransactionDatabase db(4);
  db.AddTransaction({1, 7, 3, 100});
  ASSERT_EQ(db.size(), 1u);
  const Transaction expected = {1, 3};
  EXPECT_EQ(db.transaction(0), expected);
  EXPECT_EQ(db.num_dropped_items(), 2u);

  // The bitset cache must be safe to build and query after the drop.
  EXPECT_TRUE(db.transaction_bits(0).Test(1));
  EXPECT_TRUE(db.transaction_bits(0).Test(3));
  EXPECT_FALSE(db.transaction_bits(0).Test(0));
  EXPECT_EQ(db.CountSupport(Itemset{1, 3}), 1u);
}

TEST(TransactionDatabase, AllOutOfRangeBecomesEmptyTransaction) {
  // Consistent with empty input: the row survives, just with nothing in it.
  TransactionDatabase db(2);
  db.AddTransaction({5, 9});
  ASSERT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.transaction(0).empty());
  EXPECT_EQ(db.num_dropped_items(), 2u);
}

TEST(TransactionDatabase, DroppedItemsAccumulateAndDeduplicateFirst) {
  // Duplicates are removed before the range check, so each distinct
  // offending id counts once per transaction.
  TransactionDatabase db(3);
  db.AddTransaction({0, 4, 4, 4});
  db.AddTransaction({1, 2});
  db.AddTransaction({3});
  EXPECT_EQ(db.num_dropped_items(), 2u);
  EXPECT_EQ(db.TotalItemOccurrences(), 3u);
}

TEST(TransactionDatabase, ZeroItemUniverseDropsEverything) {
  TransactionDatabase db(0);
  db.AddTransaction({0, 1});
  ASSERT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.transaction(0).empty());
  EXPECT_EQ(db.num_dropped_items(), 2u);
}

}  // namespace
}  // namespace pincer
