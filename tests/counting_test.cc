// Cross-backend counting tests: every backend must agree with the direct
// per-itemset scan on arbitrary candidate batches, including mixed lengths
// (the Pincer loop's C_k ∪ MFCS batches).

#include <gtest/gtest.h>

#include <string>

#include "counting/counter_factory.h"
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

TEST(CounterFactory, ReportsBackendIdentity) {
  const TransactionDatabase db = MakeDatabase({{0}});
  for (CounterBackend backend : AllCounterBackends()) {
    EXPECT_EQ(CreateCounter(backend, db)->backend(), backend);
  }
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
    EXPECT_EQ(counter->backend(), backend);
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

