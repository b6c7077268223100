// Scenario tests for the Pincer-Search driver: early termination, MFCS
// descent, stats accounting, and the algorithm-level guarantees of §3.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pincer_search.h"
#include "mining/checkpoint.h"
#include "mining/miner.h"
#include "testing/brute_force.h"
#include "testing/db_builder.h"
#include "util/logging.h"

namespace pincer {
namespace {

MiningOptions WithSupport(double min_support) {
  MiningOptions options;
  options.min_support = min_support;
  return options;
}

// When every transaction is the full universe, the initial MFCS element is
// frequent at pass 1 and the algorithm terminates after a single pass with
// the full itemset as the only maximal element.
TEST(PincerSearch, UniformDatabaseTerminatesInOnePass) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}});
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.9));
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 1, 2, 3}));
  EXPECT_EQ(result.stats.passes, 1u);
}

// A database with one dominant long pattern: the MFCS reaches it right
// after the infrequent singletons are removed, so the maximal itemset is
// found in pass 2 — far before a bottom-up search (which needs as many
// passes as the pattern is long).
TEST(PincerSearch, LongPatternFoundInTwoPasses) {
  // Items 0..5 always appear together; items 6..9 are rare noise.
  TransactionDatabase db(10);
  for (int t = 0; t < 20; ++t) {
    Transaction transaction{0, 1, 2, 3, 4, 5};
    if (t == 0) transaction.push_back(6);
    if (t == 1) transaction.push_back(7);
    db.AddTransaction(std::move(transaction));
  }
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.5));
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(result.mfs[0].support, 20u);
  EXPECT_EQ(result.stats.passes, 2u);
}

// The same database mined bottom-up visits every one of the 2^6 - 1 subsets;
// Pincer's candidate count must be dramatically smaller.
TEST(PincerSearch, SkipsSubsetsOfEarlyMaximalItemsets) {
  TransactionDatabase db(10);
  for (int t = 0; t < 40; ++t) {
    Transaction transaction{0, 1, 2, 3, 4, 5};
    transaction.push_back(static_cast<ItemId>(6 + (t % 4)));
    db.AddTransaction(std::move(transaction));
  }
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.5));
  // {0..5} is maximal; the noise items are each 25% < 50%.
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 1, 2, 3, 4, 5}));
  // No pass-3+ bottom-up candidates were ever needed: subsets of the MFS
  // element were pruned from L_2 and candidate generation died out.
  EXPECT_LE(result.stats.passes, 2u);
}

// Non-monotone MFS (§4.1.3): lowering the support threshold can *shrink*
// the maximum frequent set.
TEST(PincerSearch, MfsIsNonMonotoneInSupport) {
  // {0,1}, {0,2}, {1,2} each in 3/9 transactions; {0,1,2} in 2/9 more
  // (so pair supports are 5/9... construct carefully below).
  // 3 transactions {0,1}, 3 {0,2}, 3 {1,2}, 2 {0,1,2}.
  TransactionDatabase db(3);
  for (int i = 0; i < 3; ++i) db.AddTransaction({0, 1});
  for (int i = 0; i < 3; ++i) db.AddTransaction({0, 2});
  for (int i = 0; i < 3; ++i) db.AddTransaction({1, 2});
  for (int i = 0; i < 2; ++i) db.AddTransaction({0, 1, 2});
  // |D| = 11. Pair supports: 5 each; triple support: 2.
  // At min count 5 (45%): MFS = {{0,1},{0,2},{1,2}} — 3 elements.
  const MaximalSetResult high = PincerSearch(db, WithSupport(0.45));
  EXPECT_EQ(high.mfs.size(), 3u);
  // At min count 2 (18%): {0,1,2} is frequent, MFS = {{0,1,2}} — 1 element.
  const MaximalSetResult low = PincerSearch(db, WithSupport(0.18));
  ASSERT_EQ(low.mfs.size(), 1u);
  EXPECT_EQ(low.mfs[0].itemset, (Itemset{0, 1, 2}));
}

// MFS elements must be pairwise incomparable (they are *maximal*).
TEST(PincerSearch, MfsElementsArePairwiseIncomparable) {
  RandomDbParams params;
  params.num_items = 10;
  params.num_transactions = 70;
  params.item_probability = 0.5;
  params.seed = 31;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.15));
  for (size_t i = 0; i < result.mfs.size(); ++i) {
    for (size_t j = 0; j < result.mfs.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(result.mfs[i].itemset.IsSubsetOf(result.mfs[j].itemset))
          << result.mfs[i].itemset << " within " << result.mfs[j].itemset;
    }
  }
}

// IsFrequent() answers via MFS coverage.
TEST(PincerSearch, ResultAnswersFrequencyQueries) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1, 2}, {0, 1, 2}, {0, 1, 3}, {3, 4}});
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.5));
  EXPECT_TRUE(result.IsFrequent(Itemset{0}));
  EXPECT_TRUE(result.IsFrequent(Itemset{0, 1}));
  EXPECT_FALSE(result.IsFrequent(Itemset{3, 4}));
  EXPECT_FALSE(result.IsFrequent(Itemset{0, 4}));
}

// Stats invariants: pass records are contiguous from 1; reported candidates
// equal pass-3+ bottom-up candidates plus all MFCS candidates.
TEST(PincerSearch, StatsAccountingIsConsistent) {
  RandomDbParams params;
  params.num_items = 10;
  params.num_transactions = 80;
  params.item_probability = 0.45;
  params.seed = 12;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.1));
  const MiningStats& stats = result.stats;

  ASSERT_EQ(stats.per_pass.size(), stats.passes);
  uint64_t reported = 0;
  uint64_t mfcs_total = 0;
  for (size_t i = 0; i < stats.per_pass.size(); ++i) {
    EXPECT_EQ(stats.per_pass[i].pass, i + 1);
    if (stats.per_pass[i].pass >= 3) {
      reported += stats.per_pass[i].num_candidates;
    }
    reported += stats.per_pass[i].num_mfcs_candidates;
    mfcs_total += stats.per_pass[i].num_mfcs_candidates;
  }
  EXPECT_EQ(stats.reported_candidates, reported);
  EXPECT_EQ(stats.mfcs_candidates, mfcs_total);
  EXPECT_GE(stats.elapsed_millis, 0.0);
}

// Verbose mode must not alter results (exercises the logging path).
TEST(PincerSearch, VerboseModeIsBehaviorPreserving) {
  RandomDbParams params;
  params.num_items = 7;
  params.num_transactions = 30;
  params.seed = 3;
  const TransactionDatabase db = MakeRandomDatabase(params);

  MiningOptions quiet = WithSupport(0.2);
  MiningOptions loud = quiet;
  loud.verbose = true;
  SetLogLevel(LogLevel::kOff);  // keep test output clean either way
  EXPECT_EQ(PincerSearch(db, quiet).mfs, PincerSearch(db, loud).mfs);
}

// A support threshold above every itemset's support yields an empty MFS and
// terminates promptly.
TEST(PincerSearch, NoFrequentItemsets) {
  TransactionDatabase db(6);
  db.AddTransaction({0, 1});
  db.AddTransaction({2, 3});
  db.AddTransaction({4, 5});
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.9));
  EXPECT_TRUE(result.mfs.empty());
}

// The top-down mechanism itself: on concentrated data the stats must show
// maximal itemsets being discovered *from the MFCS* in early passes (the
// paper's §4 observation), not merely recovered bottom-up at the end.
TEST(PincerSearch, MaximalItemsetsComeFromMfcsInEarlyPasses) {
  const TransactionDatabase db = MakePlantedDatabase(
      /*num_items=*/30, /*num_transactions=*/600, /*num_planted=*/2,
      /*pattern_size=*/8, /*pattern_frequency=*/0.5,
      /*noise_probability=*/0.02, /*seed=*/44);
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.4));
  ASSERT_GE(MaxLength(result.mfs), 8u);

  size_t mfs_found_by_pass_3 = 0;
  for (const PassStats& pass : result.stats.per_pass) {
    if (pass.pass <= 3) mfs_found_by_pass_3 += pass.num_mfs_found;
  }
  EXPECT_GT(mfs_found_by_pass_3, 0u)
      << "expected early top-down discovery; stats:\n"
      << result.stats.ToString();
  // And the run must terminate well before the bottom-up level of the
  // longest maximal itemset.
  EXPECT_LT(result.stats.passes, 8u);
}

// A run stopped by the pass cap while MFCS elements are still unclassified
// is truncated and must say so: stats.aborted distinguishes it from a
// complete run in the JSON output.
TEST(PincerSearch, PassCapWithLiveMfcsReportsAborted) {
  RandomDbParams params;
  params.num_items = 10;
  params.num_transactions = 60;
  params.item_probability = 0.5;
  params.seed = 9;
  const TransactionDatabase db = MakeRandomDatabase(params);

  MiningOptions options = WithSupport(0.15);
  const MaximalSetResult full = PincerSearch(db, options);
  ASSERT_GT(full.stats.passes, 2u)
      << "fixture database must need more than 2 passes";
  EXPECT_FALSE(full.stats.aborted);

  options.max_passes = 2;
  const MaximalSetResult truncated = PincerSearch(db, options);
  EXPECT_TRUE(truncated.stats.aborted);
  EXPECT_LE(truncated.stats.passes, 2u);
}

// The automatic cap (|items| + 2) is unreachable on well-formed inputs, so
// an ordinary complete run never reports aborted.
TEST(PincerSearch, CompleteRunIsNotAborted) {
  const TransactionDatabase db =
      MakeDatabase({{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}});
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.25));
  EXPECT_FALSE(result.stats.aborted);
}

// Sparse universes: items that never occur must not break the MFCS descent.
TEST(PincerSearch, InactiveItemsAreHandled) {
  TransactionDatabase db(20);  // only items 0..2 ever occur
  for (int i = 0; i < 10; ++i) db.AddTransaction({0, 1, 2});
  const MaximalSetResult result = PincerSearch(db, WithSupport(0.5));
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 1, 2}));
}

// One pass-1 shape for the closed-form tests.
struct PassOneCase {
  std::string name;
  TransactionDatabase db;
  double min_support;
};

std::vector<PassOneCase> PassOneCases() {
  std::vector<PassOneCase> cases;
  {
    // The closed form: items 0-6 common, items 7-11 rare.
    TransactionDatabase db = MakePlantedDatabase(
        /*num_items=*/12, /*num_transactions=*/90, /*num_planted=*/2,
        /*pattern_size=*/4, /*pattern_frequency=*/0.4,
        /*noise_probability=*/0.01, /*seed=*/61);
    for (int i = 0; i < 60; ++i) {
      db.AddTransaction({static_cast<ItemId>(i % 7),
                         static_cast<ItemId>((i + 2) % 7),
                         static_cast<ItemId>((i + 3) % 7)});
    }
    cases.push_back({"closed form", std::move(db), 0.2});
  }
  {
    // Every item frequent, the full itemset not: the general descent.
    RandomDbParams params;
    params.num_items = 8;
    params.num_transactions = 60;
    params.item_probability = 0.6;
    params.seed = 62;
    cases.push_back({"all items frequent", MakeRandomDatabase(params), 0.2});
  }
  cases.push_back({"full itemset frequent",
                   MakeDatabase({{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2}}),
                   0.6});
  cases.push_back({"one frequent item",
                   MakeDatabase({{0, 1}, {0, 2}, {0, 3}, {0}, {0, 4}}), 0.5});
  cases.push_back(
      {"no frequent item", MakeDatabase({{0, 1}, {2, 3}, {4, 5}}), 0.9});
  return cases;
}

TEST(PincerPassOne, ClosedFormMfcsMatchesTheOracleFreshAndResumed) {
  for (const PassOneCase& test : PassOneCases()) {
    const std::vector<FrequentItemset> oracle =
        BruteForceMaximal(test.db, test.min_support);
    const uint64_t min_count = test.db.MinSupportCount(test.min_support);
    std::vector<ItemId> frequent_items;
    for (ItemId item = 0; item < test.db.num_items(); ++item) {
      if (test.db.CountSupport(Itemset{item}) >= min_count) {
        frequent_items.push_back(item);
      }
    }
    const bool closed_form = !frequent_items.empty() &&
                             frequent_items.size() < test.db.num_items();
    for (const Algorithm algorithm :
         {Algorithm::kPincer, Algorithm::kPincerAdaptive}) {
      const std::string context =
          test.name + "/" + std::string(AlgorithmName(algorithm));
      MiningOptions options = WithSupport(test.min_support);
      std::vector<Checkpoint> checkpoints;
      MiningOptions recording = options;
      recording.checkpoint_sink = [&](const Checkpoint& checkpoint) {
        checkpoints.push_back(checkpoint);
        return Status::OK();
      };
      const MaximalSetResult fresh = MineMaximal(test.db, recording, algorithm);
      EXPECT_EQ(fresh.mfs, oracle) << context;
      ASSERT_FALSE(fresh.stats.per_pass.empty()) << context;
      const PassStats& pass_one = fresh.stats.per_pass.front();
      // The full itemset is counted on every path.
      EXPECT_EQ(pass_one.num_mfcs_candidates, 1u) << context;
      if (closed_form) {
        // One element, {frequent items} — unless a lone frequent item
        // already moved to the MFS.
        EXPECT_EQ(pass_one.mfcs_size_after,
                  frequent_items.size() > 1 ? 1u : 0u)
            << context;
        EXPECT_FALSE(fresh.stats.mfcs_disabled) << context;
      }

      const auto pass_two = std::find_if(
          checkpoints.begin(), checkpoints.end(),
          [](const Checkpoint& recorded) { return recorded.next_pass == 2; });
      if (pass_two == checkpoints.end()) {
        // Only a run that ended at pass 1 writes no pass-2 checkpoint.
        EXPECT_EQ(fresh.stats.passes, 1u) << context;
        continue;
      }
      if (closed_form && frequent_items.size() > 1) {
        EXPECT_EQ(pass_two->mfcs,
                  (std::vector<Itemset>{Itemset(frequent_items)}))
            << context;
      }
      const StatusOr<Checkpoint> reloaded =
          ParseCheckpoint(pass_two->ToJsonString());
      ASSERT_TRUE(reloaded.ok()) << context << ": " << reloaded.status();
      const StatusOr<MaximalSetResult> resumed =
          ResumeMaximal(test.db, options, algorithm, *reloaded);
      ASSERT_TRUE(resumed.ok()) << context << ": " << resumed.status();
      EXPECT_EQ(resumed->mfs, oracle) << context << " resumed at pass 2";
      EXPECT_EQ(resumed->stats.total_candidates, fresh.stats.total_candidates)
          << context << " resumed at pass 2";
    }
  }
}

TEST(PincerPassOne, CasesCoverEveryPath) {
  // The fixtures above must actually reach each path they are named for.
  std::vector<std::string> seen;
  for (const PassOneCase& test : PassOneCases()) {
    const uint64_t min_count = test.db.MinSupportCount(test.min_support);
    size_t frequent = 0;
    for (ItemId item = 0; item < test.db.num_items(); ++item) {
      if (test.db.CountSupport(Itemset{item}) >= min_count) ++frequent;
    }
    std::vector<ItemId> items;
    for (ItemId item = 0; item < test.db.num_items(); ++item) {
      items.push_back(item);
    }
    const bool full_frequent =
        test.db.CountSupport(Itemset(items)) >= min_count;
    if (test.name == "closed form") {
      EXPECT_GT(frequent, 1u);
      EXPECT_LT(frequent, test.db.num_items());
    } else if (test.name == "all items frequent") {
      EXPECT_EQ(frequent, test.db.num_items());
      EXPECT_FALSE(full_frequent);
    } else if (test.name == "full itemset frequent") {
      EXPECT_TRUE(full_frequent);
    } else if (test.name == "one frequent item") {
      EXPECT_EQ(frequent, 1u);
    } else if (test.name == "no frequent item") {
      EXPECT_EQ(frequent, 0u);
    }
    seen.push_back(test.name);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// The pass-1 descent used to split {all items} into one element per item
// before the infrequent singletons shrank it back, so a universe wider than
// the adaptive cardinality cap switched the MFCS off at pass 1. The closed
// form reaches {frequent items} directly, and the MFCS stays on.
TEST(PincerPassOne, WideUniverseKeepsTheMfcs) {
  TransactionDatabase db(kDefaultMfcsCardinalityLimit + 50);
  for (int i = 0; i < 40; ++i) {
    db.AddTransaction({0, 1, 2, 3, static_cast<ItemId>(100 + i)});
  }
  MiningOptions options = WithSupport(0.5);
  const MaximalSetResult result =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  EXPECT_FALSE(result.stats.mfcs_disabled);
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset, (Itemset{0, 1, 2, 3}));
  EXPECT_EQ(result.stats.passes, 2u);
}

}  // namespace
}  // namespace pincer
