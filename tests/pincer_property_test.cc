// Property tests: on randomized small databases, every algorithm variant and
// every counting backend must produce exactly the brute-force maximum
// frequent set, across a sweep of minimum supports.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/pincer_search.h"
#include "counting/counter_factory.h"
#include "mining/miner.h"
#include "testing/brute_force.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

std::string DescribeMismatch(const std::vector<FrequentItemset>& got,
                             const std::vector<FrequentItemset>& want) {
  std::string description = "got {";
  for (const auto& fi : got) description += fi.itemset.ToString() + " ";
  description += "} want {";
  for (const auto& fi : want) description += fi.itemset.ToString() + " ";
  description += "}";
  return description;
}

struct SweepCase {
  uint64_t seed;
  double item_probability;
  double min_support;
};

class PincerVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(PincerVsBruteForce, MatchesOracle) {
  const auto [seed, item_probability, min_support] = GetParam();
  RandomDbParams params;
  params.num_items = 9;
  params.num_transactions = 48;
  params.item_probability = item_probability;
  params.seed = static_cast<uint64_t>(seed);
  const TransactionDatabase db = MakeRandomDatabase(params);

  const std::vector<FrequentItemset> oracle =
      BruteForceMaximal(db, min_support);

  for (Algorithm algorithm : {Algorithm::kApriori, Algorithm::kPincer,
                              Algorithm::kPincerAdaptive}) {
    MiningOptions options;
    options.min_support = min_support;
    const MaximalSetResult result = MineMaximal(db, options, algorithm);
    EXPECT_EQ(result.mfs, oracle)
        << AlgorithmName(algorithm) << " minsup=" << min_support << " seed="
        << seed << ": " << DescribeMismatch(result.mfs, oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PincerVsBruteForce,
    ::testing::Combine(::testing::Range(1, 13),
                       ::testing::Values(0.2, 0.45, 0.7),
                       ::testing::Values(0.05, 0.15, 0.3, 0.6)));

// Same property across counting backends (pure Pincer only; backends are
// orthogonal to the algorithm logic).
class BackendsAgree : public ::testing::TestWithParam<CounterBackend> {};

TEST_P(BackendsAgree, PincerMatchesOracleOnEveryBackend) {
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 60;
  params.item_probability = 0.5;
  params.seed = 77;
  const TransactionDatabase db = MakeRandomDatabase(params);

  for (double min_support : {0.1, 0.25, 0.5}) {
    const std::vector<FrequentItemset> oracle =
        BruteForceMaximal(db, min_support);
    MiningOptions options;
    options.min_support = min_support;
    options.backend = GetParam();
    EXPECT_EQ(PincerSearch(db, options).mfs, oracle)
        << CounterBackendName(GetParam()) << " minsup=" << min_support;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendsAgree,
                         ::testing::ValuesIn(AllCounterBackends()),
                         [](const auto& info) {
                           return std::string(CounterBackendName(info.param));
                         });

// Planted-pattern databases: long maximal itemsets (the paper's concentrated
// regime). Pincer must find exactly the oracle MFS and, with the patterns
// clearly frequent, the planted patterns must appear in it.
TEST(PincerProperty, PlantedPatternsAreFoundAsMaximal) {
  const TransactionDatabase db = MakePlantedDatabase(
      /*num_items=*/14, /*num_transactions=*/120, /*num_planted=*/2,
      /*pattern_size=*/6, /*pattern_frequency=*/0.6,
      /*noise_probability=*/0.05, /*seed=*/5);

  MiningOptions options;
  options.min_support = 0.3;
  const MaximalSetResult result = PincerSearch(db, options);
  const std::vector<FrequentItemset> oracle = BruteForceMaximal(db, 0.3);
  EXPECT_EQ(result.mfs, oracle);
  // The concentrated regime should need far fewer candidate counts than
  // the full subset lattice of the planted patterns.
  EXPECT_GE(MaxLength(result.mfs), 5u);
}

// Adaptive variant with an aggressively small cap must still be correct —
// exercises the disable path and the bottom-up maximality merge.
TEST(PincerProperty, TinyMfcsCapStillCorrect) {
  for (uint64_t seed = 40; seed < 48; ++seed) {
    RandomDbParams params;
    params.num_items = 9;
    params.num_transactions = 50;
    params.item_probability = 0.45;
    params.seed = seed;
    const TransactionDatabase db = MakeRandomDatabase(params);

    MiningOptions options;
    options.min_support = 0.12;
    options.mfcs_cardinality_limit = 2;  // trips almost immediately
    const MaximalSetResult result = PincerSearch(db, options);
    EXPECT_EQ(result.mfs, BruteForceMaximal(db, options.min_support))
        << "seed=" << seed;
  }
}

// Supports attached to MFS elements must be exact.
TEST(PincerProperty, MfsSupportsAreExact) {
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 64;
  params.item_probability = 0.5;
  params.seed = 9;
  const TransactionDatabase db = MakeRandomDatabase(params);

  MiningOptions options;
  options.min_support = 0.2;
  for (const FrequentItemset& fi : PincerSearch(db, options).mfs) {
    EXPECT_EQ(fi.support, db.CountSupport(fi.itemset)) << fi.itemset;
  }
}

// Edge cases: empty database, single transaction, support = 1.0.
TEST(PincerProperty, EmptyDatabaseYieldsEmptyMfs) {
  TransactionDatabase db(6);
  MiningOptions options;
  options.min_support = 0.5;
  EXPECT_TRUE(PincerSearch(db, options).mfs.empty());
}

TEST(PincerProperty, SingleTransactionIsItsOwnMfs) {
  const TransactionDatabase db = MakeDatabase({{0, 2, 4}});
  MiningOptions options;
  options.min_support = 1.0;
  const MaximalSetResult result = PincerSearch(db, options);
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 2, 4}));
  EXPECT_EQ(result.mfs[0].support, 1u);
}

TEST(PincerProperty, FullSupportThresholdKeepsOnlyUniversalItems) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1, 2}, {0, 1, 3}, {0, 1, 2, 3}});
  MiningOptions options;
  options.min_support = 1.0;
  const MaximalSetResult result = PincerSearch(db, options);
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 1}));
  EXPECT_EQ(result.mfs[0].support, 3u);
}

}  // namespace
}  // namespace pincer
