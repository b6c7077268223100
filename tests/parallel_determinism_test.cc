// Determinism sweep for the pooled parallel counting path (satellite of the
// thread-pool change): on generated T5.I2 Quest databases, every backend at
// every thread count must produce counts and an MFS bit-identical to the
// single-threaded run — and the single-threaded run must match the
// brute-force oracle. The chunked scan guarantees this by merging per-chunk
// partial counts in chunk order (uint64 addition, no reassociation hazard).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "counting/counter_factory.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "testing/brute_force.h"
#include "testing/db_builder.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace pincer {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

// T5.I2 in the paper's notation, shrunk to a 15-item universe so the
// brute-force oracle (2^15 subsets) stays fast.
TransactionDatabase MakeT5I2Database(uint64_t seed) {
  QuestParams params;
  params.num_transactions = 400;
  params.num_items = 15;
  params.num_patterns = 8;
  params.avg_transaction_size = 5;
  params.avg_pattern_size = 2;
  params.seed = seed;
  StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

std::vector<Itemset> RandomBatch(size_t count, size_t num_items,
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

class PooledBackendTest : public ::testing::TestWithParam<CounterBackend> {};

TEST_P(PooledBackendTest, CountsAreBitIdenticalAcrossThreadCounts) {
  const TransactionDatabase db = MakeT5I2Database(/*seed=*/42);
  const std::vector<Itemset> candidates =
      RandomBatch(/*count=*/80, /*num_items=*/15, /*max_len=*/5, /*seed=*/7);

  ThreadPool serial(1);
  const std::vector<uint64_t> expected =
      CreateCounter(GetParam(), db, &serial)->CountSupports(candidates);
  ASSERT_EQ(expected.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ASSERT_EQ(expected[i], db.CountSupport(candidates[i]))
        << candidates[i] << " via " << CounterBackendName(GetParam());
  }

  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto counter = CreateCounter(GetParam(), db, &pool);
    // Twice: the second call exercises pool + per-call structure reuse.
    EXPECT_EQ(counter->CountSupports(candidates), expected)
        << CounterBackendName(GetParam()) << " with " << threads
        << " thread(s)";
    EXPECT_EQ(counter->CountSupports(candidates), expected)
        << CounterBackendName(GetParam()) << " with " << threads
        << " thread(s), repeated call";
  }
}

TEST_P(PooledBackendTest, MinedMfsMatchesSerialRunAndOracle) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const TransactionDatabase db = MakeT5I2Database(seed);
    const double min_support = 0.02;
    const std::vector<FrequentItemset> oracle =
        BruteForceMaximal(db, min_support);

    for (Algorithm algorithm :
         {Algorithm::kApriori, Algorithm::kPincerAdaptive}) {
      MiningOptions options;
      options.min_support = min_support;
      options.backend = GetParam();
      options.num_threads = 1;
      const MaximalSetResult serial = MineMaximal(db, options, algorithm);
      EXPECT_EQ(serial.mfs, oracle)
          << AlgorithmName(algorithm) << " serial, seed " << seed;
      EXPECT_EQ(serial.stats.num_threads, 1u);

      for (size_t threads : kThreadCounts) {
        options.num_threads = threads;
        const MaximalSetResult pooled = MineMaximal(db, options, algorithm);
        EXPECT_EQ(pooled.mfs, serial.mfs)
            << AlgorithmName(algorithm) << " via "
            << CounterBackendName(GetParam()) << " with " << threads
            << " thread(s), seed " << seed;
        EXPECT_EQ(pooled.stats.num_threads, threads);
        EXPECT_EQ(pooled.stats.passes, serial.stats.passes);
        EXPECT_EQ(pooled.stats.total_candidates,
                  serial.stats.total_candidates);
      }
    }
  }
}

// Regression for the dropped vertical plumbing: set_thread_pool used to be
// silently ignored by the vertical backend (runs were serial whatever
// --threads said). Now the candidate batch is split into contiguous
// per-worker ranges with disjoint result slots, so counts must be
// bit-identical at every thread count — across batch sizes that exercise
// the chunking edges (below the per-worker minimum, exactly at it, one
// over, and well above), including empty itemsets answered as |D|.
TEST(VerticalPooledCounting, BatchSplitIsBitIdenticalAcrossThreadCounts) {
  const TransactionDatabase db = MakeT5I2Database(/*seed=*/9);
  for (const size_t batch_size : {1u, 15u, 16u, 17u, 100u, 1000u}) {
    std::vector<Itemset> candidates = RandomBatch(
        batch_size, /*num_items=*/15, /*max_len=*/6, /*seed=*/batch_size);
    candidates[batch_size / 2] = Itemset{};  // empty probe mid-batch

    ThreadPool serial(1);
    auto serial_counter = CreateCounter(CounterBackend::kVertical, db, &serial);
    const std::vector<uint64_t> expected =
        serial_counter->CountSupports(candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      ASSERT_EQ(expected[i], candidates[i].empty()
                                 ? db.size()
                                 : db.CountSupport(candidates[i]))
          << candidates[i];
    }

    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      auto counter = CreateCounter(CounterBackend::kVertical, db, &pool);
      EXPECT_EQ(counter->CountSupports(candidates), expected)
          << "batch " << batch_size << ", " << threads << " thread(s)";
      EXPECT_EQ(counter->CountSupports(candidates), expected)
          << "batch " << batch_size << ", " << threads
          << " thread(s), repeated call (index reuse)";
    }
  }
}

// The vertical counter shares each common prefix AND across a batch and
// stops at an empty one. Whatever the batch order, every count must equal
// an independent per-candidate row scan at every thread count: sorted
// AprioriGen-style levels, the same shuffled, adjacent and scattered
// duplicates, empty, one- and two-item candidates, long candidates whose
// prefix ANDs to nothing early, and random mixed lengths. 1,100 rows make
// 18-word tidsets, past the 16-word vector block.
TEST(VerticalPooledCounting, PrefixSharedCountsMatchPerCandidateReference) {
  RandomDbParams params;
  params.num_items = 23;
  params.num_transactions = 1100;
  params.item_probability = 0.6;
  params.seed = 77;
  const TransactionDatabase dense = MakeRandomDatabase(params);
  // Dense items 0-15 and 19-25. Items 16 and 17 split the rows between
  // them, so no row holds both; item 18 is in no row.
  TransactionDatabase db(26);
  for (size_t tid = 0; tid < dense.size(); ++tid) {
    Transaction row;
    for (const ItemId item : dense.transaction(tid)) {
      row.push_back(item < 16 ? item : item + 3);
    }
    row.push_back(tid % 2 == 0 ? 16 : 17);
    db.AddTransaction(std::move(row));
  }

  // Every 3-, 4- and 5-subset of items 0-9, each level in lexicographic
  // order as AprioriGen emits it.
  std::vector<Itemset> sorted_levels;
  for (size_t k = 3; k <= 5; ++k) {
    std::vector<ItemId> items(k);
    for (size_t i = 0; i < k; ++i) items[i] = static_cast<ItemId>(i);
    while (true) {
      sorted_levels.push_back(Itemset::FromSorted(items));
      size_t pos = k;
      while (pos > 0 && items[pos - 1] == 10 - k + pos - 1) --pos;
      if (pos == 0) break;
      ++items[pos - 1];
      for (size_t i = pos; i < k; ++i) items[i] = items[i - 1] + 1;
    }
  }
  std::vector<Itemset> shuffled = sorted_levels;
  Prng prng(5);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[prng.UniformUint64(i)]);
  }
  std::vector<Itemset> duplicates;
  for (size_t i = 0; i < 200; i += 3) {
    duplicates.push_back(sorted_levels[i]);
    duplicates.push_back(sorted_levels[i]);
    duplicates.push_back(shuffled[i]);
    duplicates.push_back(sorted_levels[i]);
  }
  const std::vector<Itemset> short_and_empty = {
      Itemset{},       Itemset{3},       Itemset{3, 4},    Itemset{3, 4, 5},
      Itemset{},       Itemset{3, 4, 6}, Itemset{16},      Itemset{16, 17},
      Itemset{18},     Itemset{2, 18},   Itemset{0, 1, 2}, Itemset{0, 1},
      Itemset{0, 1, 2, 3}};
  // Long candidates whose prefix ANDs to nothing at once ({16, 17} or
  // {18} first) or after several ANDs ({0-6} then 16 and 17), next to
  // others that hold all of that prefix, part of it, or none.
  std::vector<Itemset> empty_prefixes;
  for (ItemId last = 19; last < 26; ++last) {
    empty_prefixes.push_back(Itemset{0, 1, 2, 3, 4, 5, 6, 16, 17, last});
  }
  empty_prefixes.push_back(Itemset{0, 1, 2, 3, 4, 5, 6, 16, 19, 20});
  empty_prefixes.push_back(Itemset{0, 1, 2, 3, 4, 5, 6, 16, 17, 18, 19});
  empty_prefixes.push_back(Itemset{0, 1, 2, 3, 4, 5, 7, 8});
  for (ItemId last = 20; last < 26; ++last) {
    empty_prefixes.push_back(Itemset{16, 17, 19, last});
  }
  for (ItemId last = 20; last < 26; ++last) {
    empty_prefixes.push_back(Itemset{18, 19, last});
  }
  empty_prefixes.push_back(Itemset{19, 20, 21, 22, 23, 24, 25});
  empty_prefixes.push_back(Itemset{0, 1, 2, 3, 4, 5, 6, 16, 17, 25});
  std::vector<Itemset> mixed = RandomBatch(/*count=*/300, /*num_items=*/26,
                                           /*max_len=*/9, /*seed=*/31);
  mixed[10] = Itemset{};
  mixed[11] = Itemset{};

  const std::vector<std::pair<std::string, std::vector<Itemset>>> batches = {
      {"sorted levels", sorted_levels},
      {"shuffled", shuffled},
      {"duplicates", duplicates},
      {"empty batch", {}},
      {"short and empty", short_and_empty},
      {"empty prefixes", empty_prefixes},
      {"mixed lengths", mixed}};
  for (const auto& [name, batch] : batches) {
    std::vector<uint64_t> expected;
    for (const Itemset& candidate : batch) {
      expected.push_back(candidate.empty() ? db.size()
                                           : db.CountSupport(candidate));
    }
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      auto counter = CreateCounter(CounterBackend::kVertical, db, &pool);
      EXPECT_EQ(counter->CountSupports(batch), expected)
          << name << ", " << threads << " thread(s)";
      EXPECT_EQ(counter->CountSupports(batch), expected)
          << name << ", " << threads << " thread(s), repeated call";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PooledBackendTest,
                         ::testing::ValuesIn(AllCounterBackends()),
                         [](const auto& info) {
                           return std::string(CounterBackendName(info.param));
                         });

// num_threads = 0 resolves to hardware concurrency and still mines the
// exact oracle MFS.
TEST(PooledMining, HardwareConcurrencyProducesIdenticalResults) {
  const TransactionDatabase db = MakeT5I2Database(/*seed=*/3);
  MiningOptions options;
  options.min_support = 0.02;
  options.num_threads = 0;
  const MaximalSetResult result =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  EXPECT_EQ(result.mfs, BruteForceMaximal(db, options.min_support));
  EXPECT_GE(result.stats.num_threads, 1u);
}

}  // namespace
}  // namespace pincer
