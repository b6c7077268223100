// Unit and property tests for AntichainIndex: the index must answer every
// superset query exactly like a naive pairwise scan over the elements, under
// arbitrary Add/Clear churn, and the Mfcs split step built on it must be
// bit-identical to the serial reference algorithm at any thread count.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/antichain_index.h"
#include "core/mfcs.h"
#include "core/mfs.h"
#include "itemset/itemset.h"
#include "itemset/itemset_ops.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace pincer {
namespace {

// ---------------------------------------------------------------------------
// Naive oracle: the pairwise scans the index replaces.

using SlotElement = std::pair<size_t, Itemset>;

bool NaiveContainsSupersetOf(const std::vector<SlotElement>& live,
                             const Itemset& query) {
  for (const SlotElement& entry : live) {
    if (query.IsSubsetOf(entry.second)) return true;
  }
  return false;
}

std::vector<size_t> NaiveSupersetsOf(const std::vector<SlotElement>& live,
                                     const Itemset& query) {
  std::vector<size_t> slots;
  for (const SlotElement& entry : live) {
    if (query.IsSubsetOf(entry.second)) slots.push_back(entry.first);
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

Itemset RandomItemset(Prng& prng, size_t universe, size_t max_size) {
  std::vector<ItemId> items;
  const size_t size = static_cast<size_t>(prng.UniformInt(
      0, static_cast<int64_t>(max_size)));
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<ItemId>(prng.UniformUint64(universe)));
  }
  return Itemset(std::move(items));
}

// ---------------------------------------------------------------------------
// Directed cases.

TEST(AntichainIndex, EmptyIndexAnswersEverythingFalse) {
  AntichainIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{}));
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{0, 1}));
  EXPECT_TRUE(index.SupersetsOf(Itemset{0}).empty());
}

TEST(AntichainIndex, SupersetAndSubsetAreNonStrict) {
  AntichainIndex index;
  const Itemset element{1, 3, 5};
  const size_t slot = index.Add(element);
  EXPECT_TRUE(index.ContainsSupersetOf(element));
  EXPECT_EQ(index.SupersetsOf(element), std::vector<size_t>{slot});
  EXPECT_TRUE(index.ContainsSupersetOf(Itemset{1, 5}));
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{1, 2}));
}

TEST(AntichainIndex, EmptyElementIsSubsetOfEverything) {
  AntichainIndex index;
  const size_t slot = index.Add(Itemset{});
  EXPECT_EQ(index.size(), 1u);
  // The empty element is a superset only of the empty query.
  EXPECT_TRUE(index.ContainsSupersetOf(Itemset{}));
  EXPECT_EQ(index.SupersetsOf(Itemset{}), std::vector<size_t>{slot});
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{0}));
}

TEST(AntichainIndex, QueriesPastTheIndexedUniverse) {
  AntichainIndex index;
  index.Add(Itemset{0, 1});
  // Item 999 appears in no element: no superset can exist.
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{0, 999}));
  EXPECT_TRUE(index.SupersetsOf(Itemset{0, 999}).empty());
}

TEST(AntichainIndex, ClearDropsEverything) {
  AntichainIndex index;
  index.Add(Itemset{0, 1});
  index.Add(Itemset{2});
  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{}));
  index.Add(Itemset{0});
  EXPECT_TRUE(index.ContainsSupersetOf(Itemset{0}));
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{1}));
}

TEST(AntichainIndex, GrowsPastOneSlotWord) {
  // More than 64 live elements forces multi-word slot bitmaps.
  AntichainIndex index;
  std::vector<size_t> slots;
  for (ItemId i = 0; i < 150; ++i) {
    slots.push_back(index.Add(Itemset{i, static_cast<ItemId>(i + 1)}));
  }
  EXPECT_EQ(index.size(), 150u);
  for (ItemId i = 0; i < 150; ++i) {
    const std::vector<size_t> found =
        index.SupersetsOf(Itemset{i, static_cast<ItemId>(i + 1)});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], slots[i]);
  }
  EXPECT_FALSE(index.ContainsSupersetOf(Itemset{100, 101, 102}));
}

// ---------------------------------------------------------------------------
// Property test: under random Add/Clear churn, every superset query agrees
// with the naive pairwise scan — including the exact slot lists. Clear keeps
// the row storage, so the rebuilt index must not see the old elements' bits.

TEST(AntichainIndexProperty, MatchesNaiveScanUnderChurn) {
  constexpr size_t kUniverse = 16;
  constexpr size_t kMaxSize = 6;
  constexpr int kOps = 400;
  constexpr int kQueriesPerOp = 4;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Prng prng(seed);
    AntichainIndex index;
    std::vector<SlotElement> live;
    for (int op = 0; op < kOps; ++op) {
      if (prng.Bernoulli(0.01)) {
        index.Clear();
        live.clear();
      } else {
        Itemset element = RandomItemset(prng, kUniverse, kMaxSize);
        const size_t slot = index.Add(element);
        ASSERT_EQ(slot, live.size());
        live.emplace_back(slot, std::move(element));
      }
      ASSERT_EQ(index.size(), live.size());
      for (int q = 0; q < kQueriesPerOp; ++q) {
        const Itemset query = RandomItemset(prng, kUniverse, kMaxSize);
        ASSERT_EQ(index.ContainsSupersetOf(query),
                  NaiveContainsSupersetOf(live, query))
            << "seed " << seed << " op " << op << " query "
            << query.ToString();
        ASSERT_EQ(index.SupersetsOf(query), NaiveSupersetsOf(live, query))
            << "seed " << seed << " op " << op << " query "
            << query.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial case: long near-duplicate elements. 96 elements of length 127
// differing in a single item each — the worst case for per-item rows (every
// row is nearly full, so the AND chains cancel as late as possible).

TEST(AntichainIndexProperty, LongNearDuplicateElements) {
  constexpr ItemId kWidth = 128;
  constexpr ItemId kElements = 96;
  const Itemset full = Itemset::Full(kWidth);
  AntichainIndex index;
  std::vector<SlotElement> live;
  for (ItemId i = 0; i < kElements; ++i) {
    Itemset element = full.WithoutItem(i);
    const size_t slot = index.Add(element);
    live.emplace_back(slot, std::move(element));
  }

  // No element contains the full set; every 126-item query missing two of
  // the punched-out items has exactly two supersets.
  EXPECT_FALSE(index.ContainsSupersetOf(full));
  for (ItemId i = 0; i < kElements; i += 7) {
    for (ItemId j = i + 1; j < kElements; j += 11) {
      const Itemset query = full.WithoutItem(i).WithoutItem(j);
      const std::vector<size_t> expected = NaiveSupersetsOf(live, query);
      ASSERT_EQ(expected.size(), 2u);
      ASSERT_EQ(index.SupersetsOf(query), expected);
    }
  }

  // Rebuild without the middle third and re-verify against the oracle.
  Prng prng(99);
  live.erase(live.begin() + static_cast<long>(kElements / 3),
             live.begin() + static_cast<long>(2 * kElements / 3));
  index.Clear();
  for (SlotElement& entry : live) entry.first = index.Add(entry.second);
  for (int round = 0; round < 64; ++round) {
    const ItemId a = static_cast<ItemId>(prng.UniformUint64(kWidth));
    const ItemId b = static_cast<ItemId>(prng.UniformUint64(kWidth));
    const Itemset query = full.WithoutItem(a).WithoutItem(b);
    ASSERT_EQ(index.ContainsSupersetOf(query),
              NaiveContainsSupersetOf(live, query));
    ASSERT_EQ(index.SupersetsOf(query), NaiveSupersetsOf(live, query));
  }
}

// ---------------------------------------------------------------------------
// Mfcs split-step determinism: the indexed, pool-parallel MFCS-gen must be
// bit-identical (same elements, same order) to a serial reference
// implementation of the §3.2 algorithm, at every thread count.

// Reference MFCS-gen: the plain pairwise-scan algorithm the index replaced.
class ReferenceMfcs {
 public:
  explicit ReferenceMfcs(std::vector<Itemset> elements)
      : elements_(std::move(elements)) {}

  void Update(const std::vector<Itemset>& infrequent, const Mfs& mfs) {
    for (const Itemset& s : infrequent) {
      if (s.empty()) continue;
      std::vector<Itemset> supersets;
      size_t write = 0;
      for (size_t j = 0; j < elements_.size(); ++j) {
        if (s.IsSubsetOf(elements_[j])) {
          supersets.push_back(std::move(elements_[j]));
        } else {
          if (write != j) elements_[write] = std::move(elements_[j]);
          ++write;
        }
      }
      elements_.resize(write);
      for (const Itemset& m : supersets) {
        for (ItemId e : s) {
          Itemset replacement = m.WithoutItem(e);
          if (replacement.empty()) continue;
          bool covered = mfs.CoveredBy(replacement);
          for (size_t j = 0; !covered && j < elements_.size(); ++j) {
            covered = replacement.IsSubsetOf(elements_[j]);
          }
          if (!covered) elements_.push_back(std::move(replacement));
        }
      }
    }
  }

  const std::vector<Itemset>& elements() const { return elements_; }

 private:
  std::vector<Itemset> elements_;
};

// A seed antichain wide enough to push the split over the parallel
// threshold: elements {0,1,2} ∪ {x}, all containing the common core.
std::vector<Itemset> WideSeedAntichain(ItemId extra_items) {
  std::vector<Itemset> seed;
  for (ItemId x = 3; x < 3 + extra_items; ++x) {
    seed.push_back(Itemset{0, 1, 2, x});
  }
  return seed;
}

TEST(MfcsSplitDeterminism, MatchesReferenceAtEveryThreadCount) {
  const std::vector<Itemset> seed = WideSeedAntichain(40);
  const std::vector<std::vector<Itemset>> batches = {
      {Itemset{0, 1}},                     // 40 supersets × 2 items = 80 pairs
      {Itemset{2, 3}, Itemset{0, 4}},      // cascades within one batch
      {Itemset{1}, Itemset{2}},            // singletons split everything
  };
  Mfs mfs;
  mfs.Add(Itemset{0, 2, 3}, 5);
  mfs.Add(Itemset{1, 2, 41}, 5);

  ReferenceMfcs reference(seed);
  for (const std::vector<Itemset>& batch : batches) {
    reference.Update(batch, mfs);
  }

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    Mfcs mfcs(seed);
    mfcs.set_thread_pool(&pool);
    for (const std::vector<Itemset>& batch : batches) {
      ASSERT_TRUE(mfcs.Update(batch, mfs));
    }
    EXPECT_EQ(mfcs.elements(), reference.elements())
        << "divergence at " << threads << " threads";
    EXPECT_TRUE(mfcs.IsAntichain());
  }

  // No pool attached at all — the historical serial configuration.
  Mfcs serial(seed);
  for (const std::vector<Itemset>& batch : batches) {
    ASSERT_TRUE(serial.Update(batch, mfs));
  }
  EXPECT_EQ(serial.elements(), reference.elements());
}

TEST(MfcsSplitDeterminism, RandomBatchesMatchReference) {
  constexpr size_t kUniverse = 14;
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    Prng prng(seed);
    ReferenceMfcs reference({Itemset::Full(kUniverse)});
    ThreadPool pool(4);
    Mfcs mfcs(kUniverse);
    mfcs.set_thread_pool(&pool);
    Mfs mfs;
    for (int round = 0; round < 8; ++round) {
      std::vector<Itemset> batch;
      const int batch_size = static_cast<int>(prng.UniformInt(1, 3));
      for (int b = 0; b < batch_size; ++b) {
        Itemset s = RandomItemset(prng, kUniverse, 3);
        if (!s.empty()) batch.push_back(std::move(s));
      }
      reference.Update(batch, mfs);
      ASSERT_TRUE(mfcs.Update(batch, mfs));
      ASSERT_EQ(mfcs.elements(), reference.elements())
          << "seed " << seed << " round " << round;
    }
  }
}

// The work and cardinality budgets must trip at the same point as the
// pre-index implementation: same return value, same (partial) element list
// left behind — the differential harness depends on this when comparing
// adaptive runs across thread counts.

TEST(MfcsSplitDeterminism, BudgetsTripIdenticallyAcrossThreadCounts) {
  const std::vector<Itemset> seed = WideSeedAntichain(40);
  const std::vector<Itemset> batch = {Itemset{0, 1}, Itemset{2}};

  std::vector<std::vector<Itemset>> snapshots;
  std::vector<bool> verdicts;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    Mfcs mfcs(seed);
    mfcs.set_thread_pool(&pool);
    verdicts.push_back(mfcs.Update(batch, Mfs(), /*max_elements=*/0,
                                   /*max_scan_steps=*/150));
    snapshots.push_back(mfcs.elements());
  }
  EXPECT_FALSE(verdicts[0]);  // the budget is low enough to trip
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(verdicts[i], verdicts[0]);
    EXPECT_EQ(snapshots[i], snapshots[0]) << "divergence in trip state";
  }
}

}  // namespace
}  // namespace pincer
