// Tests for the combined-pass Apriori variant: identical output to plain
// Apriori with fewer database passes on deep lattices.

#include <gtest/gtest.h>

#include "apriori/apriori.h"
#include "mining/miner.h"
#include "testing/brute_force.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

MiningOptions WithSupport(double min_support) {
  MiningOptions options;
  options.min_support = min_support;
  return options;
}

TEST(AprioriCombined, MatchesPlainAprioriOnRandomData) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomDbParams params;
    params.num_items = 9;
    params.num_transactions = 50;
    params.item_probability = 0.45;
    params.seed = seed;
    const TransactionDatabase db = MakeRandomDatabase(params);
    for (double min_support : {0.1, 0.25}) {
      EXPECT_EQ(AprioriCombinedMine(db, WithSupport(min_support)).frequent,
                AprioriMine(db, WithSupport(min_support)).frequent)
          << "seed=" << seed << " minsup=" << min_support;
    }
  }
}

TEST(AprioriCombined, MatchesBruteForce) {
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 40;
  params.seed = 77;
  const TransactionDatabase db = MakeRandomDatabase(params);
  EXPECT_EQ(AprioriCombinedMine(db, WithSupport(0.2)).frequent,
            BruteForceFrequent(db, 0.2));
}

TEST(AprioriCombined, UsesFewerPassesOnDeepLattice) {
  // One dominant 10-item pattern: plain Apriori needs 10 passes; combining
  // two levels per read should roughly halve the tail.
  TransactionDatabase db(12);
  for (int i = 0; i < 30; ++i) {
    db.AddTransaction({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  }
  db.AddTransaction({10, 11});
  const FrequentSetResult plain = AprioriMine(db, WithSupport(0.5));
  const FrequentSetResult combined =
      AprioriCombinedMine(db, WithSupport(0.5));
  EXPECT_EQ(plain.frequent, combined.frequent);
  EXPECT_EQ(plain.stats.passes, 10u);
  EXPECT_LT(combined.stats.passes, plain.stats.passes);
  EXPECT_LE(combined.stats.passes, 6u);
}

TEST(AprioriCombined, AvailableThroughFacade) {
  const TransactionDatabase db = MakeDatabase({{0, 1, 2}, {0, 1, 2}, {3}});
  MiningOptions options = WithSupport(0.5);
  EXPECT_EQ(MineMaximal(db, options, Algorithm::kAprioriCombined).mfs,
            MineMaximal(db, options, Algorithm::kApriori).mfs);
  const StatusOr<Algorithm> parsed = ParseAlgorithm("apriori-combined");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, Algorithm::kAprioriCombined);
}

TEST(AprioriCombined, EmptyDatabase) {
  TransactionDatabase db(4);
  EXPECT_TRUE(AprioriCombinedMine(db, WithSupport(0.5)).frequent.empty());
}

}  // namespace
}  // namespace pincer
