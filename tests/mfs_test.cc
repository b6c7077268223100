// Unit tests for the append-only Mfs container and for MaximalOf, the one
// maximality routine.

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mfs.h"
#include "util/prng.h"

namespace pincer {
namespace {

TEST(Mfs, AddAndQuery) {
  Mfs mfs;
  EXPECT_TRUE(mfs.empty());
  EXPECT_TRUE(mfs.Add(Itemset{0, 1, 2}, 7));
  EXPECT_EQ(mfs.size(), 1u);
  EXPECT_TRUE(mfs.CoveredBy(Itemset{0, 2}));
  EXPECT_TRUE(mfs.CoveredBy(Itemset{0, 1, 2}));
  EXPECT_FALSE(mfs.CoveredBy(Itemset{0, 3}));
}

TEST(Mfs, AddingSubsetIsNoOp) {
  Mfs mfs;
  mfs.Add(Itemset{0, 1, 2}, 7);
  EXPECT_FALSE(mfs.Add(Itemset{1, 2}, 9));
  EXPECT_EQ(mfs.size(), 1u);
}

TEST(Mfs, AddingDuplicateIsNoOp) {
  Mfs mfs;
  mfs.Add(Itemset{0, 1}, 4);
  EXPECT_FALSE(mfs.Add(Itemset{0, 1}, 4));
  EXPECT_EQ(mfs.size(), 1u);
}

TEST(Mfs, IncomparableElementsCoexist) {
  Mfs mfs;
  mfs.Add(Itemset{0, 1}, 4);
  mfs.Add(Itemset{1, 2}, 3);
  mfs.Add(Itemset{5}, 9);
  EXPECT_EQ(mfs.size(), 3u);
}

TEST(Mfs, SortedReturnsLexicographicOrder) {
  Mfs mfs;
  mfs.Add(Itemset{4, 5}, 1);
  mfs.Add(Itemset{0, 9}, 2);
  mfs.Add(Itemset{2}, 3);
  const std::vector<FrequentItemset> sorted = mfs.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].itemset, (Itemset{0, 9}));
  EXPECT_EQ(sorted[1].itemset, (Itemset{2}));
  EXPECT_EQ(sorted[2].itemset, (Itemset{4, 5}));
}

TEST(Mfs, ItemsetsStripSupports) {
  Mfs mfs;
  mfs.Add(Itemset{0, 1}, 4);
  mfs.Add(Itemset{2}, 3);
  EXPECT_EQ(mfs.Itemsets().size(), 2u);
}

TEST(MaximalOf, FiltersSubsetsAndDuplicates) {
  // The duplicate {1 2 3} keeps the support of its first occurrence.
  const std::vector<FrequentItemset> input = {
      {Itemset{1, 2}, 5}, {Itemset{1, 2, 3}, 3}, {Itemset{2, 3}, 4},
      {Itemset{1, 2, 3}, 9}, {Itemset{4}, 6}};
  const std::vector<FrequentItemset> expected = {{Itemset{1, 2, 3}, 3},
                                                 {Itemset{4}, 6}};
  EXPECT_EQ(MaximalOf(input), expected);
}

TEST(MaximalOf, EmptyInput) { EXPECT_TRUE(MaximalOf({}).empty()); }

TEST(MaximalOf, AllIncomparableKeepsEverything) {
  const std::vector<FrequentItemset> input = {
      {Itemset{1, 2}, 1}, {Itemset{3, 4}, 2}, {Itemset{5}, 3}};
  EXPECT_EQ(MaximalOf(input).size(), 3u);
}

// Property: on any family, in any order, MaximalOf equals the O(n²) filter
// that keeps each distinct itemset no other member strictly contains.

// A support that depends only on the itemset, so duplicates agree and the
// answer cannot depend on which occurrence comes first.
uint64_t SupportOf(const Itemset& itemset) {
  uint64_t support = itemset.size();
  for (ItemId item : itemset) support = support * 31 + item;
  return support;
}

Itemset RandomItemset(Prng& prng, size_t universe, size_t max_size) {
  std::vector<ItemId> items;
  const auto size = static_cast<size_t>(
      prng.UniformInt(0, static_cast<int64_t>(max_size)));
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<ItemId>(prng.UniformUint64(universe)));
  }
  return Itemset(std::move(items));
}

// Every non-empty subset of a few random itemsets, each once — the shape of
// a frequent set.
std::vector<Itemset> DownwardClosedFamily(Prng& prng) {
  std::set<Itemset> family;
  const int64_t tops = prng.UniformInt(1, 4);
  for (int64_t t = 0; t < tops; ++t) {
    const Itemset top = RandomItemset(prng, 10, 6);
    for (size_t k = 1; k <= top.size(); ++k) {
      for (Itemset& subset : top.SubsetsOfSize(k)) {
        family.insert(std::move(subset));
      }
    }
  }
  return {family.begin(), family.end()};
}

// Random itemsets (the empty one included) plus repeats of some of them.
std::vector<Itemset> ArbitraryFamily(Prng& prng) {
  std::vector<Itemset> family;
  const int64_t size = prng.UniformInt(0, 40);
  for (int64_t i = 0; i < size; ++i) {
    family.push_back(RandomItemset(prng, 12, 5));
  }
  const size_t distinct = family.size();
  for (size_t i = 0; i < distinct; ++i) {
    if (prng.Bernoulli(0.3)) family.push_back(family[i]);
  }
  return family;
}

std::vector<FrequentItemset> NaiveMaximal(const std::vector<Itemset>& family) {
  std::set<Itemset> maximal;
  for (const Itemset& x : family) {
    bool strictly_covered = false;
    for (const Itemset& y : family) {
      if (x != y && x.IsSubsetOf(y)) strictly_covered = true;
    }
    if (!strictly_covered) maximal.insert(x);
  }
  std::vector<FrequentItemset> out;
  for (const Itemset& itemset : maximal) {
    out.push_back({itemset, SupportOf(itemset)});
  }
  return out;
}

TEST(MaximalOf, MatchesNaiveFilterInEveryOrder) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Prng prng(seed);
    const std::vector<Itemset> family =
        seed % 2 == 0 ? DownwardClosedFamily(prng) : ArbitraryFamily(prng);
    const std::vector<FrequentItemset> expected = NaiveMaximal(family);
    std::vector<FrequentItemset> input;
    for (const Itemset& itemset : family) {
      input.push_back({itemset, SupportOf(itemset)});
    }
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      for (size_t i = input.size(); i > 1; --i) {
        std::swap(input[i - 1], input[prng.UniformUint64(i)]);
      }
      ASSERT_EQ(MaximalOf(input), expected)
          << "seed " << seed << " shuffle " << shuffle;
    }
  }
}

}  // namespace
}  // namespace pincer
