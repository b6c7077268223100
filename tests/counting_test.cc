// Cross-backend counting tests: every backend must agree with the direct
// per-itemset scan on arbitrary candidate batches, including mixed lengths
// (the Pincer loop's C_k ∪ MFCS batches).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "counting/counter_factory.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "testing/db_builder.h"
#include "util/metrics.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace pincer {
namespace {

std::vector<Itemset> RandomCandidates(size_t count, size_t num_items,
                                      size_t max_len, uint64_t seed) {
  Prng prng(seed);
  std::vector<Itemset> candidates;
  for (size_t i = 0; i < count; ++i) {
    const size_t len = 1 + prng.UniformUint64(max_len);
    std::vector<ItemId> items;
    for (size_t j = 0; j < len; ++j) {
      items.push_back(static_cast<ItemId>(prng.UniformUint64(num_items)));
    }
    candidates.push_back(Itemset(std::move(items)));
  }
  return candidates;
}

class CounterBackendTest : public ::testing::TestWithParam<CounterBackend> {};

TEST_P(CounterBackendTest, MatchesDirectScanOnRandomBatches) {
  RandomDbParams params;
  params.num_items = 12;
  params.num_transactions = 80;
  params.item_probability = 0.35;
  params.seed = 2;
  const TransactionDatabase db = MakeRandomDatabase(params);
  auto counter = CreateCounter(GetParam(), db);

  const std::vector<Itemset> candidates =
      RandomCandidates(/*count=*/60, /*num_items=*/12, /*max_len=*/6,
                       /*seed=*/99);
  const std::vector<uint64_t> counts = counter->CountSupports(candidates);
  ASSERT_EQ(counts.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(counts[i], db.CountSupport(candidates[i]))
        << candidates[i] << " via " << CounterBackendName(GetParam());
  }
}

TEST_P(CounterBackendTest, HandlesEmptyBatch) {
  const TransactionDatabase db = MakeDatabase({{0, 1}});
  auto counter = CreateCounter(GetParam(), db);
  EXPECT_TRUE(counter->CountSupports({}).empty());
}

TEST_P(CounterBackendTest, HandlesEmptyDatabase) {
  const TransactionDatabase db(5);
  auto counter = CreateCounter(GetParam(), db);
  const std::vector<uint64_t> counts =
      counter->CountSupports({Itemset{0}, Itemset{1, 2}});
  EXPECT_EQ(counts, (std::vector<uint64_t>{0, 0}));
}

TEST_P(CounterBackendTest, DuplicateCandidatesGetIdenticalCounts) {
  const TransactionDatabase db = MakeDatabase({{0, 1, 2}, {0, 1}, {2}});
  auto counter = CreateCounter(GetParam(), db);
  const std::vector<uint64_t> counts = counter->CountSupports(
      {Itemset{0, 1}, Itemset{0, 1}, Itemset{2}});
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
}

TEST_P(CounterBackendTest, MixedLengthBatchIncludingLongItemsets) {
  TransactionDatabase db(16);
  for (int i = 0; i < 10; ++i) {
    db.AddTransaction({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  }
  db.AddTransaction({0, 1});
  auto counter = CreateCounter(GetParam(), db);
  const std::vector<Itemset> candidates = {
      Itemset{0},
      Itemset{0, 1},
      Itemset{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      Itemset{12, 13, 14, 15},
  };
  const std::vector<uint64_t> counts = counter->CountSupports(candidates);
  EXPECT_EQ(counts[0], 11u);
  EXPECT_EQ(counts[1], 11u);
  EXPECT_EQ(counts[2], 10u);
  EXPECT_EQ(counts[3], 0u);
}

TEST_P(CounterBackendTest, RepeatedCallsAreConsistent) {
  RandomDbParams params;
  params.num_items = 8;
  params.num_transactions = 30;
  params.seed = 4;
  const TransactionDatabase db = MakeRandomDatabase(params);
  auto counter = CreateCounter(GetParam(), db);
  const std::vector<Itemset> batch = {Itemset{0, 1}, Itemset{2}};
  EXPECT_EQ(counter->CountSupports(batch), counter->CountSupports(batch));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CounterBackendTest,
                         ::testing::ValuesIn(AllCounterBackends()),
                         [](const auto& info) {
                           return std::string(CounterBackendName(info.param));
                         });

// The engine CreateCounter builds for `backend` on a database whose vertical
// index fits kVerticalIndexByteCap, as every database of these tests does.
CounterBackend EngineFor(CounterBackend backend) {
  return backend == CounterBackend::kAuto ? CounterBackend::kVertical
                                          : backend;
}

// Every engine names itself as backend(); kAuto is no engine of its own and
// names the one it built.
TEST(CounterFactory, ReportsBackendIdentity) {
  const TransactionDatabase db = MakeDatabase({{0}});
  for (CounterBackend backend : AllCounterBackends()) {
    EXPECT_EQ(CreateCounter(backend, db)->backend(), EngineFor(backend))
        << CounterBackendName(backend);
  }
}

// The adaptive backend, kAuto, surfaces its pick as backend_used() before
// and after a count, never "auto": the miners record that name per pass.
TEST(AdaptiveCounter, BackendUsedReportsThePickNeverAuto) {
  const TransactionDatabase db = MakeDatabase({{0, 1, 2}, {0, 1}, {2}});
  auto counter = CreateCounter(CounterBackend::kAuto, db);
  const CounterBackend pick = AutoBackendFor(db.num_items(), db.size());
  EXPECT_EQ(counter->backend_used(), pick);
  EXPECT_EQ(counter->CountSupports({Itemset{0, 1}, Itemset{2}}),
            (std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(counter->backend_used(), pick);
  EXPECT_NE(counter->backend_used(), CounterBackend::kAuto);
}

// Every backend other than kAuto is the engine it counts with.
TEST(AdaptiveCounter, StaticBackendsReportThemselvesAsUsed) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {1}});
  for (CounterBackend backend : AllCounterBackends()) {
    if (backend == CounterBackend::kAuto) continue;
    auto counter = CreateCounter(backend, db);
    counter->CountSupports({Itemset{1}});
    EXPECT_EQ(counter->backend_used(), backend)
        << CounterBackendName(backend);
  }
}

// kAuto's pick reads the shape alone: no index is built here. The cap sits
// at 2^27 words; 1,024 items over 2^23 rows take exactly that.
TEST(CounterFactory, AutoPicksTheIndexWhereItFitsTheCap) {
  EXPECT_EQ(AutoBackendFor(1000, 100000), CounterBackend::kVertical);
  EXPECT_EQ(AutoBackendFor(4000000, 100000), CounterBackend::kTrie);
  EXPECT_EQ(AutoBackendFor(1024, size_t{1} << 23), CounterBackend::kVertical);
  EXPECT_EQ(AutoBackendFor(1025, size_t{1} << 23), CounterBackend::kTrie);
  EXPECT_EQ(AutoBackendFor(1024, (size_t{1} << 23) + 1), CounterBackend::kTrie);
  EXPECT_EQ(AutoBackendFor(0, 100000), CounterBackend::kVertical);
  EXPECT_EQ(AutoBackendFor(1000, 0), CounterBackend::kVertical);
  EXPECT_EQ(AutoBackendFor(SIZE_MAX, SIZE_MAX), CounterBackend::kTrie);
}

// A universe too wide for the cap counts through the trie: 200M items over
// one row would take a 1.6 GB index, which is never built.
TEST(CounterFactory, AutoBuildsTheTrieBeyondTheCap) {
  TransactionDatabase db(200000000);
  db.AddTransaction(Transaction{7, 199999999});
  db.AddTransaction(Transaction{7});
  auto counter = CreateCounter(CounterBackend::kAuto, db);
  EXPECT_EQ(counter->backend(), CounterBackend::kTrie);
  EXPECT_EQ(counter->vertical_index(), nullptr);
  EXPECT_EQ(counter->CountSupports({Itemset{7}, Itemset{7, 199999999}}),
            (std::vector<uint64_t>{2, 1}));
}

TEST(CounterFactory, BackendNamesAreDistinct) {
  EXPECT_EQ(CounterBackendName(CounterBackend::kLinear), "linear");
  EXPECT_EQ(CounterBackendName(CounterBackend::kHashTree), "hash_tree");
  EXPECT_EQ(CounterBackendName(CounterBackend::kTrie), "trie");
  EXPECT_EQ(CounterBackendName(CounterBackend::kVertical), "vertical");
  EXPECT_EQ(CounterBackendName(CounterBackend::kAuto), "auto");
}

// A factory pool reaches every backend.
TEST(CounterFactory, AttachesSharedThreadPool) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {0}, {1}});
  ThreadPool pool(3);
  for (CounterBackend backend : AllCounterBackends()) {
    auto counter = CreateCounter(backend, db, &pool);
    EXPECT_EQ(counter->backend(), EngineFor(backend));
    const std::vector<uint64_t> counts =
        counter->CountSupports({Itemset{0}, Itemset{0, 1}});
    EXPECT_EQ(counts, (std::vector<uint64_t>{2, 1}))
        << CounterBackendName(backend);
  }
}

TEST(CounterFactory, NullPoolMatchesTwoArgumentOverload) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {1}});
  for (CounterBackend backend : AllCounterBackends()) {
    auto counter = CreateCounter(backend, db, /*pool=*/nullptr);
    EXPECT_EQ(counter->CountSupports({Itemset{1}}),
              (std::vector<uint64_t>{2}))
        << CounterBackendName(backend);
  }
}

// Two identical runs under kAuto record the same engine for every pass, and
// never "auto": the pick is a pure function of the database's shape.
TEST(CounterFactory, AutoRunsPickIdenticalBackendsPerPass) {
  RandomDbParams params;
  params.num_items = 14;
  params.num_transactions = 100;
  params.item_probability = 0.45;
  params.seed = 77;
  const TransactionDatabase db = MakeRandomDatabase(params);
  MiningOptions options;
  options.min_support = 0.15;
  options.backend = CounterBackend::kAuto;

  const MaximalSetResult first =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  const MaximalSetResult second =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  EXPECT_EQ(first.mfs, second.mfs);
  ASSERT_EQ(first.stats.per_pass.size(), second.stats.per_pass.size());
  for (size_t i = 0; i < first.stats.per_pass.size(); ++i) {
    EXPECT_EQ(first.stats.per_pass[i].backend_used,
              second.stats.per_pass[i].backend_used)
        << "pass " << first.stats.per_pass[i].pass;
    EXPECT_NE(first.stats.per_pass[i].backend_used, "auto");
  }
}

// A run's counting.count_calls and candidates_counted are the same under
// kAuto as under either engine it can build.
TEST(CounterFactory, AutoCountCallsMatchStaticBackends) {
  RandomDbParams params;
  params.num_items = 14;
  params.num_transactions = 120;
  params.item_probability = 0.4;
  params.seed = 42;
  const TransactionDatabase db = MakeRandomDatabase(params);
  MiningOptions options;
  options.min_support = 0.1;
  options.collect_counter_metrics = true;

  const auto counting_of = [&](CounterBackend backend) {
    MiningOptions run_options = options;
    run_options.backend = backend;
    return MineMaximal(db, run_options, Algorithm::kPincerAdaptive)
        .stats.counting;
  };
  const CountingMetrics adaptive = counting_of(CounterBackend::kAuto);
  const CountingMetrics trie = counting_of(CounterBackend::kTrie);
  const CountingMetrics vertical = counting_of(CounterBackend::kVertical);

  EXPECT_GT(adaptive.count_calls, 0u);
  EXPECT_EQ(adaptive.count_calls, trie.count_calls);
  EXPECT_EQ(adaptive.count_calls, vertical.count_calls);
  EXPECT_EQ(adaptive.candidates_counted, trie.candidates_counted);
  EXPECT_EQ(adaptive.candidates_counted, vertical.candidates_counted);
}

// Figure 4, row 2 (T20.I10, |L| = 50) at 1/10 scale, 6%: long rows whose
// deep passes a trie walk counts hundreds of times slower than the index.
// kAuto counts every pass through the index or the arrays and mines the
// MFS forced vertical mines.
TEST(CounterFactory, AutoCountsFigure4Row2ThroughTheIndex) {
  QuestParams quest;
  quest.num_transactions = 10000;
  quest.avg_transaction_size = 20;
  quest.avg_pattern_size = 10;
  quest.num_items = 1000;
  quest.num_patterns = 50;
  quest.seed = 19980323;
  const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(quest);
  ASSERT_TRUE(db.ok()) << db.status();
  MiningOptions options;
  options.min_support = 0.06;

  options.backend = CounterBackend::kAuto;
  const MaximalSetResult automatic =
      MineMaximal(*db, options, Algorithm::kPincerAdaptive);
  options.backend = CounterBackend::kVertical;
  const MaximalSetResult vertical =
      MineMaximal(*db, options, Algorithm::kPincerAdaptive);

  EXPECT_FALSE(automatic.stats.aborted);
  EXPECT_EQ(automatic.mfs, vertical.mfs);
  EXPECT_GE(automatic.stats.per_pass.size(), 3u);
  for (const PassStats& pass : automatic.stats.per_pass) {
    EXPECT_TRUE(pass.backend_used == "vertical" || pass.backend_used == "array")
        << "pass " << pass.pass << " recorded " << pass.backend_used;
  }
}

// Metrics convention, shared by every backend: the empty candidate is
// answered as |D| without touching the counting structure or the database,
// so it appears in neither candidates_counted nor a scan. A batch of 2
// non-empty + 2 empty candidates therefore reports exactly 2.
TEST_P(CounterBackendTest, MetricsCountOnlyNonEmptyCandidates) {
  const TransactionDatabase db = MakeDatabase({{0, 1, 2}, {0, 1}, {2}});
  auto counter = CreateCounter(GetParam(), db);
  CountingMetrics metrics;
  counter->set_metrics(&metrics);
  const std::vector<uint64_t> counts = counter->CountSupports(
      {Itemset{}, Itemset{0, 1}, Itemset{}, Itemset{2}});
  EXPECT_EQ(counts, (std::vector<uint64_t>{3, 2, 3, 2}));
  EXPECT_EQ(metrics.count_calls, 1u);
  EXPECT_EQ(metrics.candidates_counted, 2u);
}

// An all-empty batch is answered entirely from |D|: no scan happens, so
// transactions_scanned stays 0 for every backend.
TEST_P(CounterBackendTest, AllEmptyBatchScansNothing) {
  const TransactionDatabase db = MakeDatabase({{0, 1}, {2}});
  auto counter = CreateCounter(GetParam(), db);
  CountingMetrics metrics;
  counter->set_metrics(&metrics);
  const std::vector<uint64_t> counts =
      counter->CountSupports({Itemset{}, Itemset{}});
  EXPECT_EQ(counts, (std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(metrics.candidates_counted, 0u);
  EXPECT_EQ(metrics.transactions_scanned, 0u);
}

}  // namespace
}  // namespace pincer

