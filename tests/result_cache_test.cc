// Tests for the daemon's result cache: the SupportTable lookup tiers and
// their checkpoint round trip, the higher-threshold filter path (including
// its never-wrong guarantee — a missing support yields nullopt, not a
// guess), and the LRU container.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "counting/array_counters.h"
#include "mining/checkpoint.h"
#include "mining/miner.h"
#include "mining/support_table.h"
#include "serve/result_cache.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

TEST(SupportTable, SingletonTierReadsThePassOneArray) {
  SupportTable table;
  table.SetSingletonCounts({5, 4, 3, 0});
  EXPECT_EQ(table.Lookup(Itemset{0}), 5u);
  EXPECT_EQ(table.Lookup(Itemset{2}), 3u);
  EXPECT_EQ(table.Lookup(Itemset{3}), 0u);
  // Out of the array's range, and not in the map either.
  EXPECT_FALSE(table.Lookup(Itemset{4}).has_value());
}

TEST(SupportTable, PairTierReadsTheTriangularMatrix) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}});
  PairCountMatrix matrix({0, 1, 2});
  matrix.CountDatabase(db);

  SupportTable table;
  table.SetPairCounts(std::move(matrix));
  EXPECT_EQ(table.Lookup(Itemset{0, 1}), db.CountSupport(Itemset{0, 1}));
  EXPECT_EQ(table.Lookup(Itemset{1, 2}), db.CountSupport(Itemset{1, 2}));
  // A pair with a non-indexed item falls through to the map and misses.
  EXPECT_FALSE(table.Lookup(Itemset{1, 3}).has_value());
}

TEST(SupportTable, CheckpointRoundTripAnswersTheSameLookups) {
  // A real Pincer run fills all three tiers: the pass-1 array, the pass-2
  // matrix (fast path on) and the map. Written to a checkpoint, through
  // its JSON form, and restored, the table must answer every itemset of
  // the universe as the original does, and write the same sections back.
  const TransactionDatabase db = MakeDatabase({{0, 1, 2, 3, 4},
                                               {0, 1, 2, 3},
                                               {0, 1, 2, 4},
                                               {0, 1, 3, 4},
                                               {1, 2, 3, 4},
                                               {0, 1, 2},
                                               {2, 3, 4, 5},
                                               {0, 5}});
  MiningOptions options;
  options.min_support = 0.25;
  const MaximalSetResult mined = MineMaximal(db, options, Algorithm::kPincer);
  ASSERT_FALSE(mined.stats.aborted);
  ASSERT_GE(mined.stats.passes, 3u);

  Checkpoint written;
  written.next_pass = 2;
  written.database.items = db.num_items();
  mined.supports.WriteCheckpoint(written);
  ASSERT_FALSE(written.singleton_counts.empty());
  ASSERT_FALSE(written.pair_counts.empty());
  ASSERT_FALSE(written.support_cache.empty());
  const StatusOr<Checkpoint> parsed = ParseCheckpoint(written.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const StatusOr<SupportTable> restored = SupportTable::FromCheckpoint(*parsed);
  ASSERT_TRUE(restored.ok()) << restored.status();

  size_t answered = 0;
  for (uint32_t mask = 1; mask < (1u << db.num_items()); ++mask) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if ((mask >> item) & 1u) items.push_back(item);
    }
    const Itemset itemset(std::move(items));
    const std::optional<uint64_t> support = mined.supports.Lookup(itemset);
    EXPECT_EQ(restored->Lookup(itemset), support) << itemset;
    if (support.has_value()) {
      EXPECT_EQ(*support, db.CountSupport(itemset)) << itemset;
      ++answered;
    }
  }
  EXPECT_GT(answered, db.num_items());

  Checkpoint rewritten = written;
  rewritten.support_cache.clear();
  rewritten.singleton_counts.clear();
  rewritten.pair_items.clear();
  rewritten.pair_counts.clear();
  restored->WriteCheckpoint(rewritten);
  EXPECT_EQ(rewritten.ToJsonString(), written.ToJsonString());
}

// A hand-built table for filter tests: supports via the map tier + the
// singleton array.
SupportTable MakeTable(std::vector<uint64_t> singletons,
                       std::vector<FrequentItemset> sets) {
  SupportTable table;
  table.SetSingletonCounts(std::move(singletons));
  for (FrequentItemset& fi : sets) {
    table.Record(std::move(fi.itemset), fi.support);
  }
  return table;
}

TEST(FilterMfs, DescendsToTheExactStricterMfs) {
  // Base MFS at min_count 2: {0,1,2}@2 and {2,3}@3. At min_count 3 the
  // triple dies; among its pairs only {0,1}@3 survives, and {2,3} stays.
  const SupportTable table = MakeTable(
      {4, 4, 4, 3},
      {{Itemset{0, 1, 2}, 2},
       {Itemset{0, 1}, 3},
       {Itemset{0, 2}, 2},
       {Itemset{1, 2}, 2},
       {Itemset{2, 3}, 3}});
  const std::vector<FrequentItemset> base = {{Itemset{0, 1, 2}, 2},
                                             {Itemset{2, 3}, 3}};
  const auto filtered = FilterMfsAtHigherMinCount(base, table, 3);
  ASSERT_TRUE(filtered.has_value());
  const std::vector<FrequentItemset> want = {{Itemset{0, 1}, 3},
                                             {Itemset{2, 3}, 3}};
  EXPECT_EQ(*filtered, want);
}

TEST(FilterMfs, SameThresholdReturnsTheBaseSorted) {
  const SupportTable table =
      MakeTable({}, {{Itemset{2, 3}, 3}, {Itemset{0, 1}, 2}});
  const std::vector<FrequentItemset> base = {{Itemset{2, 3}, 3},
                                             {Itemset{0, 1}, 2}};
  const auto filtered = FilterMfsAtHigherMinCount(base, table, 2);
  ASSERT_TRUE(filtered.has_value());
  const std::vector<FrequentItemset> want = {{Itemset{0, 1}, 2},
                                             {Itemset{2, 3}, 3}};
  EXPECT_EQ(*filtered, want);
}

TEST(FilterMfs, AcceptedCoverSuppressesSubsumedCandidates) {
  // Both base sets shrink to subsets of the surviving {0,1,2}; nothing
  // extra may appear.
  const SupportTable table = MakeTable(
      {9, 9, 9, 1},
      {{Itemset{0, 1, 2, 3}, 1}, {Itemset{0, 1, 2}, 5}, {Itemset{0, 1, 3}, 1},
       {Itemset{0, 2, 3}, 1}, {Itemset{1, 2, 3}, 1}, {Itemset{0, 3}, 1},
       {Itemset{1, 3}, 1}, {Itemset{2, 3}, 1}});
  const std::vector<FrequentItemset> base = {{Itemset{0, 1, 2, 3}, 1}};
  const auto filtered = FilterMfsAtHigherMinCount(base, table, 5);
  ASSERT_TRUE(filtered.has_value());
  const std::vector<FrequentItemset> want = {{Itemset{0, 1, 2}, 5}};
  EXPECT_EQ(*filtered, want);
}

TEST(FilterMfs, MissingSupportMeansNulloptNeverAGuess) {
  // {0,2} is needed once {0,1,2} dies, but the table never counted it.
  const SupportTable table = MakeTable(
      {4, 4, 4},
      {{Itemset{0, 1, 2}, 2}, {Itemset{0, 1}, 3}, {Itemset{1, 2}, 2}});
  const std::vector<FrequentItemset> base = {{Itemset{0, 1, 2}, 2}};
  EXPECT_FALSE(FilterMfsAtHigherMinCount(base, table, 3).has_value());
}

TEST(FilterMfs, EverythingInfrequentYieldsAnEmptyMfs) {
  const SupportTable table =
      MakeTable({2, 2}, {{Itemset{0, 1}, 1}});
  const std::vector<FrequentItemset> base = {{Itemset{0, 1}, 1}};
  const auto filtered = FilterMfsAtHigherMinCount(base, table, 5);
  ASSERT_TRUE(filtered.has_value());
  EXPECT_TRUE(filtered->empty());
}

TEST(FilterMfs, DifferentiallyMatchesAFreshMineOnApriori) {
  // The filter over a run's own supports, for every driver — the
  // in-process version of the daemon's "filter" cache differential. The
  // Apriori drivers hand back the complete frequent set, so their bases
  // must always filter; Pincer-Search skips counting subsets of frequent
  // MFCS elements, so its bases may decline, but never answer wrongly.
  RandomDbParams params;
  params.num_items = 12;
  params.num_transactions = 80;
  params.item_probability = 0.45;
  for (const Algorithm algorithm :
       {Algorithm::kApriori, Algorithm::kAprioriCombined, Algorithm::kPincer,
        Algorithm::kPincerAdaptive}) {
    const bool must_filter = algorithm == Algorithm::kApriori ||
                             algorithm == Algorithm::kAprioriCombined;
    for (uint64_t seed : {3u, 11u, 29u}) {
      params.seed = seed;
      const TransactionDatabase db = MakeRandomDatabase(params);

      MiningOptions base_options;
      base_options.min_support = 0.1;
      const MaximalSetResult base = MineMaximal(db, base_options, algorithm);
      ASSERT_FALSE(base.stats.aborted);

      for (double stricter : {0.15, 0.2, 0.3, 0.5}) {
        const std::string context = std::string(AlgorithmName(algorithm)) +
                                    " seed " + std::to_string(seed) +
                                    " minsup " + std::to_string(stricter);
        const auto filtered = FilterMfsAtHigherMinCount(
            base.mfs, base.supports, db.MinSupportCount(stricter));
        ASSERT_TRUE(filtered.has_value() || !must_filter) << context;
        if (!filtered.has_value()) continue;
        MiningOptions fresh_options;
        fresh_options.min_support = stricter;
        const MaximalSetResult fresh =
            MineMaximal(db, fresh_options, algorithm);
        EXPECT_EQ(*filtered, fresh.mfs) << context;
      }
    }
  }
}

std::shared_ptr<const ResultCache::Entry> MakeEntry(std::string key,
                                                    std::string family,
                                                    uint64_t min_count) {
  auto entry = std::make_shared<ResultCache::Entry>();
  entry->key = std::move(key);
  entry->family = std::move(family);
  entry->min_count = min_count;
  return entry;
}

TEST(ResultCache, LookupHitsAndMisses) {
  ResultCache cache(4);
  cache.Insert(MakeEntry("a", "f", 2));
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Insert(MakeEntry("a", "f", 1));
  cache.Insert(MakeEntry("b", "f", 2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refresh a; b is now oldest
  cache.Insert(MakeEntry("c", "f", 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
}

TEST(ResultCache, ReinsertReplacesWithoutGrowing) {
  ResultCache cache(2);
  cache.Insert(MakeEntry("a", "f", 1));
  cache.Insert(MakeEntry("a", "f", 9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("a")->min_count, 9u);
}

TEST(ResultCache, CapacityIsClampedToAtLeastOne) {
  ResultCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.Insert(MakeEntry("a", "f", 1));
  cache.Insert(MakeEntry("b", "f", 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
}

TEST(ResultCache, FilterBasePicksTheTightestUsableThreshold) {
  ResultCache cache(8);
  cache.Insert(MakeEntry("a", "fam", 5));
  cache.Insert(MakeEntry("b", "fam", 10));
  cache.Insert(MakeEntry("c", "other", 7));

  // Target 12: both fam entries qualify; the tightest (10) wins — the
  // smallest MFS to descend from.
  auto base = cache.LookupFilterBase("fam", 12);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->min_count, 10u);
  // Target 10 inclusive.
  EXPECT_EQ(cache.LookupFilterBase("fam", 10)->min_count, 10u);
  // Target 7: only the min_count-5 entry is at or below.
  EXPECT_EQ(cache.LookupFilterBase("fam", 7)->min_count, 5u);
  // No entry at or below the target, or wrong family: null.
  EXPECT_EQ(cache.LookupFilterBase("fam", 3), nullptr);
  EXPECT_EQ(cache.LookupFilterBase("missing", 100), nullptr);
}

TEST(ResultCache, SharedPtrEntriesSurviveEviction) {
  ResultCache cache(1);
  cache.Insert(MakeEntry("a", "f", 4));
  auto held = cache.Lookup("a");
  cache.Insert(MakeEntry("b", "f", 5));  // evicts a
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  ASSERT_NE(held, nullptr);  // the handed-out entry is still valid
  EXPECT_EQ(held->min_count, 4u);
}

}  // namespace
}  // namespace pincer
