// Tests for the Apriori baseline: oracle equivalence, maximal extraction,
// stats, and backend/fast-path independence.

#include <gtest/gtest.h>

#include "apriori/apriori.h"
#include "counting/counter_factory.h"
#include "testing/brute_force.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

MiningOptions WithSupport(double min_support) {
  MiningOptions options;
  options.min_support = min_support;
  return options;
}

TEST(Apriori, MatchesBruteForceFrequentSet) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomDbParams params;
    params.num_items = 8;
    params.num_transactions = 50;
    params.item_probability = 0.45;
    params.seed = seed;
    const TransactionDatabase db = MakeRandomDatabase(params);
    for (double min_support : {0.1, 0.25, 0.5}) {
      EXPECT_EQ(AprioriMine(db, WithSupport(min_support)).frequent,
                BruteForceFrequent(db, min_support))
          << "seed=" << seed << " minsup=" << min_support;
    }
  }
}

TEST(Apriori, MaximalItemsetsMatchBruteForce) {
  RandomDbParams params;
  params.num_items = 9;
  params.num_transactions = 60;
  params.item_probability = 0.4;
  params.seed = 21;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const FrequentSetResult result = AprioriMine(db, WithSupport(0.15));
  EXPECT_EQ(result.MaximalItemsets(), BruteForceMaximal(db, 0.15));
}

TEST(Apriori, AllBackendsAgree) {
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 40;
  params.seed = 5;
  const TransactionDatabase db = MakeRandomDatabase(params);
  MiningOptions options = WithSupport(0.2);
  const FrequentSetResult reference = AprioriMine(db, options);
  for (CounterBackend backend : AllCounterBackends()) {
    options.backend = backend;
    EXPECT_EQ(AprioriMine(db, options).frequent, reference.frequent)
        << CounterBackendName(backend);
  }
}

TEST(Apriori, PassesEqualLongestFrequentItemset) {
  // Bottom-up must take exactly max_len passes (one level per pass).
  TransactionDatabase db(8);
  for (int i = 0; i < 10; ++i) db.AddTransaction({0, 1, 2, 3, 4});
  db.AddTransaction({5});
  const FrequentSetResult result = AprioriMine(db, WithSupport(0.5));
  EXPECT_EQ(MaxLength(result.frequent), 5u);
  EXPECT_EQ(result.stats.passes, 5u);
}

TEST(Apriori, CountsEveryFrequentItemsetExplicitly) {
  // A maximal itemset of length l forces 2^l - 1 frequent itemsets through
  // the bottom-up search (§1) — all present in the output.
  TransactionDatabase db(6);
  for (int i = 0; i < 4; ++i) db.AddTransaction({0, 1, 2, 3, 4, 5});
  const FrequentSetResult result = AprioriMine(db, WithSupport(0.9));
  EXPECT_EQ(result.frequent.size(), (1u << 6) - 1);
}

TEST(Apriori, EmptyDatabase) {
  TransactionDatabase db(5);
  const FrequentSetResult result = AprioriMine(db, WithSupport(0.1));
  EXPECT_TRUE(result.frequent.empty());
  EXPECT_TRUE(result.MaximalItemsets().empty());
}

TEST(Apriori, SupportsAreExact) {
  RandomDbParams params;
  params.num_items = 7;
  params.num_transactions = 30;
  params.seed = 17;
  const TransactionDatabase db = MakeRandomDatabase(params);
  for (const FrequentItemset& fi :
       AprioriMine(db, WithSupport(0.2)).frequent) {
    EXPECT_EQ(fi.support, db.CountSupport(fi.itemset)) << fi.itemset;
  }
}

TEST(Apriori, StatsPassesMatchPerPassRecords) {
  RandomDbParams params;
  params.num_items = 9;
  params.num_transactions = 50;
  params.seed = 33;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const FrequentSetResult result = AprioriMine(db, WithSupport(0.15));
  EXPECT_EQ(result.stats.per_pass.size(), result.stats.passes);
  EXPECT_EQ(result.stats.mfcs_candidates, 0u);
}

}  // namespace
}  // namespace pincer
