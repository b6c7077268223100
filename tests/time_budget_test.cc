// Tests for the cooperative time budget used by the benchmark harnesses.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "apriori/apriori.h"
#include "apriori/apriori_combined.h"
#include "core/pincer_search.h"
#include "counting/counter_factory.h"
#include "counting/scan_budget.h"
#include "extensions/partition.h"
#include "extensions/sampling.h"
#include "mining/miner.h"
#include "testing/db_builder.h"
#include "testing/differential.h"

namespace pincer {
namespace {

TransactionDatabase DeepDb() {
  // A 10-item pattern forces many passes, giving the between-pass budget
  // check something to interrupt.
  TransactionDatabase db(12);
  for (int i = 0; i < 30; ++i) {
    db.AddTransaction({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  }
  return db;
}

TEST(TimeBudget, AprioriAbortsWhenExceeded) {
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 1e-6;  // exceeded immediately after pass 2
  const FrequentSetResult result = AprioriMine(DeepDb(), options);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_LT(result.stats.passes, 10u);
}

TEST(TimeBudget, PincerAbortsWhenExceeded) {
  // A random database keeps the bottom-up candidate stream alive past pass
  // 2 (on DeepDb the MFCS finishes everything in two passes, and a
  // completed run must not be marked aborted — see below).
  RandomDbParams params;
  params.num_items = 12;
  params.num_transactions = 60;
  params.item_probability = 0.5;
  params.seed = 5;
  const TransactionDatabase db = MakeRandomDatabase(params);
  MiningOptions options;
  options.min_support = 0.1;
  options.time_budget_ms = 1e-6;
  const MaximalSetResult result = PincerSearch(db, options);
  EXPECT_TRUE(result.stats.aborted);
}

TEST(TimeBudget, CompletedRunIsNeverMarkedAborted) {
  // The MFCS classifies everything by pass 2 here; even with an
  // already-exceeded budget the run is complete, not aborted.
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 1e-6;
  const MaximalSetResult result = PincerSearch(DeepDb(), options);
  EXPECT_FALSE(result.stats.aborted);
  ASSERT_EQ(result.mfs.size(), 1u);
  EXPECT_EQ(result.mfs[0].itemset,
            (Itemset{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(TimeBudget, ZeroMeansUnlimited) {
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 0;
  const FrequentSetResult result = AprioriMine(DeepDb(), options);
  EXPECT_FALSE(result.stats.aborted);
  EXPECT_EQ(result.stats.passes, 10u);
}

TEST(TimeBudget, GenerousBudgetDoesNotAbort) {
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 60000;
  EXPECT_FALSE(AprioriMine(DeepDb(), options).stats.aborted);
  EXPECT_FALSE(PincerSearch(DeepDb(), options).stats.aborted);
}

TEST(TimeBudget, AbortsMidScanInsideASinglePass) {
  // Enough rows that the in-scan poll (every kScanAbortCheckRows rows)
  // fires during pass 1 — before any between-pass check could run. The
  // aborted in-flight pass must leave no stats trace: no pass counted, no
  // per-pass record, no partial counts surfaced.
  TransactionDatabase db(4);
  for (int i = 0; i < 10000; ++i) db.AddTransaction({0, 1, 2});
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 1e-6;  // already exceeded when the scan starts

  const FrequentSetResult apriori = AprioriMine(db, options);
  EXPECT_TRUE(apriori.stats.aborted);
  EXPECT_EQ(apriori.stats.passes, 0u);
  EXPECT_TRUE(apriori.stats.per_pass.empty());
  EXPECT_TRUE(apriori.frequent.empty());

  const MaximalSetResult pincer = PincerSearch(db, options);
  EXPECT_TRUE(pincer.stats.aborted);
  EXPECT_EQ(pincer.stats.passes, 0u);
  EXPECT_TRUE(pincer.mfs.empty());
}

TEST(TimeBudget, MidScanAbortWorksWithoutTheFastPath) {
  // Same mid-scan poll, but through the generic backend's ChunkedCountScan
  // instead of the pass-1 array fast path.
  TransactionDatabase db(4);
  for (int i = 0; i < 10000; ++i) db.AddTransaction({0, 1, 2});
  MiningOptions options;
  options.min_support = 0.5;
  options.use_array_fast_path = false;
  options.time_budget_ms = 1e-6;
  const FrequentSetResult result = AprioriMine(db, options);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.passes, 0u);
  EXPECT_TRUE(result.frequent.empty());
}

// Regression for the dropped vertical plumbing: set_scan_budget used to be
// ignored by the vertical backend "by design", so a vertical run could
// overshoot the budget by a whole pass. It now polls every
// kVerticalBudgetCheckCandidates candidates.
TEST(TimeBudget, VerticalCounterPollsBudgetMidBatch) {
  TransactionDatabase db(8);
  for (int i = 0; i < 50; ++i) db.AddTransaction({0, 1, 2, 3});

  // A batch well past the poll cadence under an already-expired budget:
  // the counter must observe the deadline mid-batch and latch it.
  std::vector<Itemset> batch;
  for (size_t i = 0; i < 4 * kVerticalBudgetCheckCandidates; ++i) {
    batch.push_back(Itemset{static_cast<ItemId>(i % 8)});
  }
  auto counter = CreateCounter(CounterBackend::kVertical, db);
  ScanBudget expired(0);
  counter->set_scan_budget(&expired);
  counter->CountSupports(batch);
  EXPECT_TRUE(expired.exceeded());

  // A batch shorter than one poll slice never checks the clock, so it
  // completes whole even under an expired budget — mirroring the
  // kScanAbortCheckRows semantics for tiny scans.
  std::vector<Itemset> tiny(batch.begin(),
                            batch.begin() + kVerticalBudgetCheckCandidates);
  auto tiny_counter = CreateCounter(CounterBackend::kVertical, db);
  ScanBudget tiny_budget(0);
  tiny_counter->set_scan_budget(&tiny_budget);
  const std::vector<uint64_t> counts = tiny_counter->CountSupports(tiny);
  EXPECT_FALSE(tiny_budget.exceeded());
  for (size_t i = 0; i < tiny.size(); ++i) {
    EXPECT_EQ(counts[i], db.CountSupport(tiny[i]));
  }
}

TEST(TimeBudget, VerticalBackendAbortsMidScanInsideASinglePass) {
  // End to end: pass 1 through the generic vertical backend with more
  // candidates than the poll cadence. The aborted pass must leave no trace.
  TransactionDatabase db(200);
  for (int i = 0; i < 50; ++i) db.AddTransaction({0, 1, 2});
  MiningOptions options;
  options.min_support = 0.5;
  options.backend = CounterBackend::kVertical;
  options.use_array_fast_path = false;
  options.time_budget_ms = 1e-6;  // already exceeded when the count starts

  const FrequentSetResult apriori = AprioriMine(db, options);
  EXPECT_TRUE(apriori.stats.aborted);
  EXPECT_EQ(apriori.stats.passes, 0u);
  EXPECT_TRUE(apriori.frequent.empty());

  const MaximalSetResult pincer = PincerSearch(db, options);
  EXPECT_TRUE(pincer.stats.aborted);
  EXPECT_EQ(pincer.stats.passes, 0u);
  EXPECT_TRUE(pincer.mfs.empty());
}

TEST(TimeBudget, PassTwoIndexFillAbortsTheRun) {
  // Pass 1 reads 100 rows, fewer than one poll slice, so it completes under
  // an expired budget. Pass 2's 190 pairs of 20 items in every row price
  // the vertical index fill, which polls every kVerticalBudgetCheckCandidates
  // pairs: it stops, and the run is aborted with only pass 1 booked.
  TransactionDatabase db(21);
  Transaction common;
  for (ItemId item = 0; item < 20; ++item) common.push_back(item);
  for (int i = 0; i < 100; ++i) db.AddTransaction(common);
  db.AddTransaction({20});
  for (const CounterBackend backend :
       {CounterBackend::kVertical, CounterBackend::kAuto}) {
    MiningOptions options;
    options.min_support = 0.5;
    options.backend = backend;
    options.time_budget_ms = 1e-6;
    const std::string context(CounterBackendName(backend));

    const FrequentSetResult apriori = AprioriMine(db, options);
    EXPECT_TRUE(apriori.stats.aborted) << context;
    EXPECT_TRUE(apriori.stats.budget_exceeded) << context;
    EXPECT_EQ(apriori.stats.passes, 1u) << context;

    const FrequentSetResult combined = AprioriCombinedMine(db, options);
    EXPECT_TRUE(combined.stats.aborted) << context;
    EXPECT_EQ(combined.stats.passes, 1u) << context;

    const MaximalSetResult pincer = PincerSearch(db, options);
    EXPECT_TRUE(pincer.stats.aborted) << context;
    EXPECT_TRUE(pincer.stats.budget_exceeded) << context;
    EXPECT_EQ(pincer.stats.passes, 1u) << context;

    // With time to spare pass 2 completes and records the index fill; the
    // pass cap stops Apriori short of the 2^20 frequent itemsets.
    options.time_budget_ms = 0;
    options.max_passes = 2;
    const FrequentSetResult capped = AprioriMine(db, options);
    EXPECT_FALSE(capped.stats.budget_exceeded) << context;
    ASSERT_EQ(capped.stats.per_pass.size(), 2u) << context;
    EXPECT_EQ(capped.stats.per_pass[1].backend_used, "vertical") << context;
  }
}

// The latch contract between `aborted` and `budget_exceeded` (stats schema
// v1.3): budget_exceeded reflects the ScanBudget's latched poll, so under a
// pure time budget (no pass cap) the two flags must agree in both
// directions — the same invariant the differential harness asserts for
// every paper-convention run.
TEST(TimeBudget, TimeBudgetAbortSetsBothFlags) {
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 1e-6;
  const FrequentSetResult apriori = AprioriMine(DeepDb(), options);
  EXPECT_TRUE(apriori.stats.aborted);
  EXPECT_TRUE(apriori.stats.budget_exceeded);

  RandomDbParams params;
  params.num_items = 12;
  params.num_transactions = 60;
  params.item_probability = 0.5;
  params.seed = 5;
  options.min_support = 0.1;
  const MaximalSetResult pincer =
      PincerSearch(MakeRandomDatabase(params), options);
  EXPECT_TRUE(pincer.stats.aborted);
  EXPECT_TRUE(pincer.stats.budget_exceeded);
}

TEST(TimeBudget, CompletedRunNeverReportsBudgetExceeded) {
  // DeepDb finishes in two passes before any poll observes the expired
  // clock: budget_exceeded is the LATCH, not a fresh clock read, so a
  // complete result carries neither flag even under an expired budget.
  MiningOptions options;
  options.min_support = 0.5;
  options.time_budget_ms = 1e-6;
  const MaximalSetResult result = PincerSearch(DeepDb(), options);
  EXPECT_FALSE(result.stats.aborted);
  EXPECT_FALSE(result.stats.budget_exceeded);

  options.time_budget_ms = 60000;
  const FrequentSetResult unhurried = AprioriMine(DeepDb(), options);
  EXPECT_FALSE(unhurried.stats.aborted);
  EXPECT_FALSE(unhurried.stats.budget_exceeded);
}

TEST(TimeBudget, PassCapTruncationIsAbortedButNotBudgetExceeded) {
  // The one legitimate aborted-without-budget case: a max_passes cap with
  // work left over. budget_exceeded must stay false — there is no budget.
  RandomDbParams params;
  params.num_items = 12;
  params.num_transactions = 60;
  params.item_probability = 0.5;
  params.seed = 5;
  const TransactionDatabase db = MakeRandomDatabase(params);
  MiningOptions options;
  options.min_support = 0.1;
  options.max_passes = 1;

  const FrequentSetResult apriori = AprioriMine(db, options);
  EXPECT_TRUE(apriori.stats.aborted);
  EXPECT_FALSE(apriori.stats.budget_exceeded);
  EXPECT_EQ(apriori.stats.passes, 1u);

  const FrequentSetResult combined = AprioriCombinedMine(db, options);
  EXPECT_TRUE(combined.stats.aborted);
  EXPECT_FALSE(combined.stats.budget_exceeded);
  EXPECT_EQ(combined.stats.passes, 1u);

  const MaximalSetResult pincer = PincerSearch(db, options);
  EXPECT_TRUE(pincer.stats.aborted);
  EXPECT_FALSE(pincer.stats.budget_exceeded);
  EXPECT_EQ(pincer.stats.passes, 1u);
}

// One pass-cap rule for every algorithm: a capped run returns exactly the
// uncapped MFS or says it was truncated, and never reads the database more
// often than the cap allows. An MFCS cap of 2 drives pincer-adaptive
// through its switch-off to plain bottom-up passes on these planted
// databases, where truncation is easiest to miss.
TEST(TimeBudget, PassCapNeverReturnsASilentPartialResult) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const TransactionDatabase db = MakePlantedDatabase(
        /*num_items=*/16, /*num_transactions=*/200, /*num_planted=*/3,
        /*pattern_size=*/7, /*pattern_frequency=*/0.3,
        /*noise_probability=*/0.15, seed);
    for (const Algorithm algorithm :
         {Algorithm::kApriori, Algorithm::kAprioriCombined,
          Algorithm::kPincer, Algorithm::kPincerAdaptive}) {
      MiningOptions options;
      options.min_support = 0.1;
      options.mfcs_cardinality_limit = 2;
      const MaximalSetResult uncapped = MineMaximal(db, options, algorithm);
      ASSERT_FALSE(uncapped.stats.aborted);
      for (size_t cap = 1; cap <= uncapped.stats.passes; ++cap) {
        options.max_passes = cap;
        const MaximalSetResult capped = MineMaximal(db, options, algorithm);
        const std::string context = std::string(AlgorithmName(algorithm)) +
                                    " seed " + std::to_string(seed) +
                                    " cap " + std::to_string(cap);
        EXPECT_LE(capped.stats.passes, cap) << context;
        EXPECT_FALSE(capped.stats.budget_exceeded) << context;
        if (!capped.stats.aborted) {
          EXPECT_EQ(capped.mfs, uncapped.mfs) << context;
        }
        // A cap the run never needed to exceed truncates nothing.
        if (cap == uncapped.stats.passes) {
          EXPECT_FALSE(capped.stats.aborted) << context;
        }
      }
    }
  }
}

// Partition and Sampling stop on the budget like the paper miners do:
// their nested runs get only what remains of it, their validation scans
// poll it, and every stop latches budget_exceeded.
TEST(TimeBudget, ExtensionMinersLatchTheBudgetLikeThePaperMiners) {
  const TransactionDatabase db = MakePlantedDatabase(
      /*num_items=*/16, /*num_transactions=*/20000, /*num_planted=*/3,
      /*pattern_size=*/7, /*pattern_frequency=*/0.3,
      /*noise_probability=*/0.15, /*seed=*/1);
  MiningOptions options;
  options.min_support = 0.1;
  options.time_budget_ms = 1;
  StatsExpectations expect;
  expect.allow_aborted = true;
  expect.abort_implies_budget = true;
  const auto check = [&](const MiningStats& stats, std::string_view miner,
                         bool paper_convention) {
    EXPECT_TRUE(stats.aborted) << miner;
    EXPECT_TRUE(stats.budget_exceeded) << miner;
    expect.paper_candidate_convention = paper_convention;
    for (const std::string& violation :
         CheckStatsInvariants(stats, expect, miner)) {
      ADD_FAILURE() << violation;
    }
  };
  check(AprioriMine(db, options).stats, "apriori", true);
  check(PartitionMine(db, options).stats, "partition", false);
  check(SamplingMine(db, options).stats, "sampling", false);
}

TEST(TimeBudget, GenerousPassCapDoesNotTruncate) {
  // A cap the run never reaches leaves every driver's result identical to
  // the uncapped run, with no flags set.
  MiningOptions capped;
  capped.min_support = 0.5;
  capped.max_passes = 50;
  MiningOptions uncapped = capped;
  uncapped.max_passes = 0;

  const FrequentSetResult a = AprioriMine(DeepDb(), capped);
  EXPECT_FALSE(a.stats.aborted);
  EXPECT_FALSE(a.stats.budget_exceeded);
  EXPECT_EQ(a.frequent, AprioriMine(DeepDb(), uncapped).frequent);

  const FrequentSetResult c = AprioriCombinedMine(DeepDb(), capped);
  EXPECT_FALSE(c.stats.aborted);
  EXPECT_EQ(c.frequent, AprioriCombinedMine(DeepDb(), uncapped).frequent);
}

}  // namespace
}  // namespace pincer
