// Tests for the run context the mining drivers share: the pass cap, the
// budget latch across nested runs, the paper's candidate accounting, where
// pass 1's counts come from, and the resident-counter sinks.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "counting/array_counters.h"
#include "counting/counter_factory.h"
#include "mining/mining_run.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

TEST(MiningRun, PassCapCountsDatabasePasses) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {1, 2}});
  MiningOptions options;
  options.max_passes = 2;
  MiningRun run(db, options);
  for (size_t pass = 1; pass <= 2; ++pass) {
    EXPECT_FALSE(run.PassCapReached()) << "before pass " << pass;
    PassStats record;
    record.pass = pass;
    run.RecordPass(record);
  }
  EXPECT_TRUE(run.PassCapReached());
  EXPECT_TRUE(run.aborted());
  // The cap is not the budget.
  EXPECT_FALSE(run.Finish().budget_exceeded);
}

TEST(MiningRun, AutomaticCapIsItemsPlusTwo) {
  const TransactionDatabase db = MakeDatabase({{0}}, /*num_items=*/1);
  const MiningOptions options;
  MiningRun run(db, options);
  for (size_t pass = 1; pass <= 3; ++pass) {
    EXPECT_FALSE(run.PassCapReached());
    PassStats record;
    record.pass = pass;
    run.RecordPass(record);
  }
  EXPECT_TRUE(run.PassCapReached());
}

TEST(MiningRun, RecordPassFollowsThePaperAccounting) {
  const TransactionDatabase db = MakeDatabase({{0, 1}});
  const MiningOptions options;
  MiningRun run(db, options);
  for (size_t pass = 1; pass <= 3; ++pass) {
    PassStats record;
    record.pass = pass;
    record.num_candidates = 10 * pass;
    record.num_mfcs_candidates = 1;
    run.RecordPass(record);
  }
  const MiningStats stats = run.Finish();
  EXPECT_EQ(stats.passes, 3u);
  EXPECT_EQ(stats.total_candidates, 10u + 20u + 30u + 3u);
  EXPECT_EQ(stats.mfcs_candidates, 3u);
  // Passes 1-2 leave the reported figure; MFCS elements never do (§4.1.1).
  EXPECT_EQ(stats.reported_candidates, 30u + 3u);
  EXPECT_EQ(stats.per_pass.size(), 3u);
}

TEST(MiningRun, NestedOptionsShareThePoolAndNothingBoundToThisRun) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {1}});
  std::unique_ptr<SupportCounter> resident =
      CreateCounter(CounterBackend::kTrie, db);
  PairTable pairs;
  MiningOptions options;
  options.num_threads = 2;
  options.time_budget_ms = 60000;
  options.resident_counter = resident.get();
  options.resident_pairs = &pairs;
  options.checkpoint_sink = [](const Checkpoint&) { return Status::OK(); };
  MiningRun run(db, options);
  const MiningOptions nested = run.NestedOptions();
  EXPECT_EQ(nested.shared_pool, run.pool());
  EXPECT_EQ(nested.resident_counter, nullptr);
  EXPECT_EQ(nested.resident_pairs, nullptr);
  EXPECT_FALSE(nested.checkpoint_sink);
  EXPECT_GT(nested.time_budget_ms, 0);
  EXPECT_LE(nested.time_budget_ms, 60000);
  // Like the resident counter, the table cannot change an answer, so a
  // checkpoint or cache key never sees it.
  MiningOptions plain = options;
  plain.resident_counter = nullptr;
  plain.resident_pairs = nullptr;
  EXPECT_EQ(OptionsFingerprint(options, "pincer"),
            OptionsFingerprint(plain, "pincer"));
}

TEST(MiningRun, SpentBudgetIsNeverPassedOnAsUnlimited) {
  const TransactionDatabase db = MakeDatabase({{0, 1}});
  MiningOptions options;
  options.time_budget_ms = 1e-6;
  MiningRun run(db, options);
  while (!run.BudgetExpired()) {
  }
  // 0 would mean unlimited.
  EXPECT_GT(run.NestedOptions().time_budget_ms, 0);

  // Without a budget there is nothing to pass on.
  const MiningOptions no_budget;
  MiningRun unlimited(db, no_budget);
  EXPECT_EQ(unlimited.NestedOptions().time_budget_ms, 0);
}

TEST(MiningRun, NestedBudgetStopLatchesThisRun) {
  const TransactionDatabase db = MakeDatabase({{0, 1}});
  MiningOptions options;
  options.time_budget_ms = 60000;

  MiningStats budget_stop;
  budget_stop.aborted = true;
  budget_stop.budget_exceeded = true;
  budget_stop.counting.count_calls = 2;
  MiningRun stopped(db, options);
  stopped.Absorb(budget_stop);
  EXPECT_TRUE(stopped.aborted());
  EXPECT_TRUE(stopped.BudgetExpired());
  const MiningStats stats = stopped.Finish();
  EXPECT_TRUE(stats.budget_exceeded);
  EXPECT_EQ(stats.counting.count_calls, 2u);

  // A nested pass-cap stop aborts this run without blaming the budget.
  MiningStats cap_stop;
  cap_stop.aborted = true;
  MiningRun capped(db, options);
  capped.Absorb(cap_stop);
  EXPECT_TRUE(capped.aborted());
  EXPECT_FALSE(capped.Finish().budget_exceeded);
}

// Records the sinks a run attaches, so the test can see them detached.
class SinkRecorder : public SupportCounter {
 public:
  std::vector<uint64_t> CountSupports(
      const std::vector<Itemset>& candidates) override {
    return std::vector<uint64_t>(candidates.size(), 0);
  }
  CounterBackend backend() const override { return CounterBackend::kTrie; }
  CountingMetrics* metrics() const { return metrics_; }
  ScanBudget* budget() const { return budget_; }
};

TEST(MiningRun, PassOneReadsTheIndexWhereTheCounterHasOne) {
  // With the array fast path, pass 1 copies the item supports the vertical
  // index recorded when it was built, and says so; a counter without an
  // index scans the rows through the §4.1.1 array. Both give the scan's
  // counts for every item.
  RandomDbParams params;
  params.num_items = 70;
  params.num_transactions = 300;
  params.item_probability = 0.2;
  params.seed = 17;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const std::vector<uint64_t> expected = CountSingletons(db);
  for (const CounterBackend backend : AllCounterBackends()) {
    const std::string context(CounterBackendName(backend));
    MiningOptions options;
    options.backend = backend;
    MiningRun run(db, options);
    PassStats pass;
    pass.pass = 1;
    const std::optional<std::vector<uint64_t>> counts = run.CountItems(pass);
    ASSERT_TRUE(counts.has_value()) << context;
    EXPECT_EQ(*counts, expected) << context;
    const bool holds_index = run.counter().vertical_index() != nullptr;
    EXPECT_EQ(holds_index, backend == CounterBackend::kVertical ||
                               backend == CounterBackend::kAuto)
        << context;
    EXPECT_EQ(pass.backend_used, holds_index ? "vertical" : "array")
        << context;
  }
}

TEST(MiningRun, TheFirstCountOfAPassNamesItsEngine) {
  // Passes 1 and 2 by the arrays, each followed by an MFCS element counted
  // through the trie, as a Pincer pass does: the passes keep "array". A
  // pass whose first count goes through the counter names the counter.
  const TransactionDatabase db = MakeDatabase({{0, 1, 2}, {0, 1}, {1, 2}});
  MiningOptions options;
  options.backend = CounterBackend::kTrie;
  MiningRun run(db, options);
  const std::vector<Itemset> mfcs = {Itemset{0, 1, 2}};

  PassStats one;
  one.pass = 1;
  ASSERT_TRUE(run.CountItems(one).has_value());
  ASSERT_TRUE(run.Count(mfcs, one).has_value());
  EXPECT_EQ(one.backend_used, "array");

  PassStats two;
  two.pass = 2;
  PairCountMatrix matrix({0, 1, 2});
  ASSERT_TRUE(run.CountPairs(matrix, {2, 3, 2}, two));
  ASSERT_TRUE(run.Count(mfcs, two).has_value());
  EXPECT_EQ(two.backend_used, "array");

  PassStats three;
  three.pass = 3;
  ASSERT_TRUE(run.Count(mfcs, three).has_value());
  EXPECT_EQ(three.backend_used, "trie");
}

TEST(MiningRun, CountPairsCopiesACoveringTableAndOffersWhatItScans) {
  // Eight items in half the rows: the trie leaves pass 2 to the array
  // scan, the vertical counter fills it from its index.
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 300;
  params.item_probability = 0.5;
  params.seed = 5;
  const TransactionDatabase db = MakeRandomDatabase(params);
  const std::vector<uint64_t> supports = CountSingletons(db);
  const std::vector<ItemId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(PairFillPrefersIndex(db.size(), supports));

  PairTable table;
  MiningOptions options;
  options.backend = CounterBackend::kTrie;
  options.resident_pairs = &table;
  {
    MiningRun run(db, options);
    PassStats pass;
    pass.pass = 2;
    PairCountMatrix matrix(all);
    ASSERT_TRUE(run.CountPairs(matrix, supports, pass));
    EXPECT_EQ(pass.backend_used, "array");
    EXPECT_EQ(table.num_items(), all.size());
    EXPECT_EQ(table.fills(), 0u);
  }
  {
    MiningRun run(db, options);
    PassStats pass;
    pass.pass = 2;
    PairCountMatrix matrix({1, 4, 6});
    ASSERT_TRUE(run.CountPairs(matrix, {supports[1], supports[4], supports[6]},
                               pass));
    EXPECT_EQ(pass.backend_used, "array");
    EXPECT_EQ(table.fills(), 1u);
    PairCountMatrix scanned({1, 4, 6});
    scanned.CountDatabase(db);
    EXPECT_EQ(matrix.raw_counts(), scanned.raw_counts());
  }
  // Where the index fill is picked, the table is neither read nor offered.
  options.backend = CounterBackend::kVertical;
  PairTable untouched;
  options.resident_pairs = &untouched;
  {
    MiningRun run(db, options);
    PassStats pass;
    pass.pass = 2;
    PairCountMatrix matrix(all);
    ASSERT_TRUE(run.CountPairs(matrix, supports, pass));
    EXPECT_EQ(pass.backend_used, "vertical");
    EXPECT_EQ(untouched.num_items(), 0u);
  }
}

TEST(MiningRun, ScanStoppedByTheBudgetOffersNothing) {
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 2 * kScanAbortCheckRows + 1;
  params.item_probability = 0.5;
  params.seed = 6;
  const TransactionDatabase db = MakeRandomDatabase(params);
  PairTable table;
  MiningOptions options;
  options.backend = CounterBackend::kTrie;
  options.resident_pairs = &table;
  options.time_budget_ms = 1e-6;
  MiningRun run(db, options);
  PassStats pass;
  pass.pass = 2;
  PairCountMatrix matrix({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_FALSE(run.CountPairs(matrix, CountSingletons(db), pass));
  EXPECT_TRUE(run.aborted());
  EXPECT_EQ(table.num_items(), 0u);
}

TEST(MiningRun, ResidentCounterLosesTheRunSinksWhenTheRunEnds) {
  const TransactionDatabase db = MakeDatabase({{0, 1}});
  SinkRecorder resident;
  MiningOptions options;
  options.resident_counter = &resident;
  options.collect_counter_metrics = true;
  options.time_budget_ms = 60000;
  {
    MiningRun run(db, options);
    EXPECT_EQ(&run.counter(), &resident);
    EXPECT_NE(resident.metrics(), nullptr);
    EXPECT_NE(resident.budget(), nullptr);
  }
  EXPECT_EQ(resident.metrics(), nullptr);
  EXPECT_EQ(resident.budget(), nullptr);
}

}  // namespace
}  // namespace pincer
