// Unit tests for the Pincer candidate generation: recovery and the new
// prune, beyond the paper's worked example (covered in
// pincer_paper_example_test.cc).

#include <gtest/gtest.h>

#include "apriori/apriori_gen.h"
#include "core/candidate_gen.h"
#include "itemset/itemset_ops.h"
#include "testing/brute_force.h"
#include "testing/db_builder.h"
#include "util/prng.h"

namespace pincer {
namespace {

// Naive references for the property test below: pairwise scans over the
// "MFS so far".
bool IsSubsetOfAny(const Itemset& candidate,
                   const std::vector<Itemset>& collection) {
  for (const Itemset& element : collection) {
    if (candidate.IsSubsetOf(element)) return true;
  }
  return false;
}

bool ContainsSubsetOf(const Itemset& candidate,
                      const std::vector<Itemset>& collection) {
  for (const Itemset& element : collection) {
    if (element.IsSubsetOf(candidate)) return true;
  }
  return false;
}

TEST(Recover, EmptyInputs) {
  EXPECT_TRUE(Recover({}, {Itemset{0, 1, 2}}).empty());
  EXPECT_TRUE(Recover({Itemset{0, 1}}, {}).empty());
}

TEST(Recover, SkipsMfsElementsNoLongerThanK) {
  // |X| must exceed k for X to contribute restored subsets.
  const std::vector<Itemset> lk = {Itemset{0, 1}};
  EXPECT_TRUE(Recover(lk, {Itemset{0, 1}}).empty());
  EXPECT_TRUE(Recover(lk, {Itemset{2, 3}}).empty());
}

TEST(Recover, RequiresPrefixInsideMfsElement) {
  // Y = {0, 5}: prefix {0} must be in X and items beyond the position of 0
  // are combined. X = {1,2,3}: 0 not in X -> nothing.
  EXPECT_TRUE(Recover({Itemset{0, 5}}, {Itemset{1, 2, 3}}).empty());
}

TEST(Recover, GeneratesUnionCandidates) {
  // Y = {2, 9}, X = {1, 2, 3, 4}: prefix {2} in X at index 1; items beyond:
  // 3 and 4 -> candidates {2,9}∪{3} and {2,9}∪{4}.
  std::vector<Itemset> recovered = Recover({Itemset{2, 9}},
                                           {Itemset{1, 2, 3, 4}});
  SortLexicographically(recovered);
  const std::vector<Itemset> expected = {Itemset{2, 3, 9}, Itemset{2, 4, 9}};
  EXPECT_EQ(recovered, expected);
}

TEST(Recover, SkipsYLastItem) {
  // Y = {2, 4}, X = {1,2,3,4}: item 4 of X equals Y's last -> only 3 used.
  std::vector<Itemset> recovered = Recover({Itemset{2, 4}},
                                           {Itemset{1, 2, 3, 4}});
  SortLexicographically(recovered);
  const std::vector<Itemset> expected = {Itemset{2, 3, 4}};
  EXPECT_EQ(recovered, expected);
}

TEST(NewPrune, DropsCandidatesCoveredByMfs) {
  Mfs mfs;
  mfs.Add(Itemset{0, 1, 2, 3}, 5);
  ItemsetSet lk({Itemset{0, 1}, Itemset{0, 4}, Itemset{1, 4}});
  std::vector<Itemset> candidates = {Itemset{0, 1, 2},   // covered
                                     Itemset{0, 1, 4}};  // not covered
  const std::vector<Itemset> pruned =
      NewPrune(std::move(candidates), lk, mfs);
  const std::vector<Itemset> expected = {Itemset{0, 1, 4}};
  EXPECT_EQ(pruned, expected);
}

TEST(NewPrune, TreatsMfsCoveredSubsetsAsFrequent) {
  // Candidate {0,1,4}: subset {0,1} was removed from L_k because it lies in
  // the MFS element; the prune must not delete the candidate for that.
  Mfs mfs;
  mfs.Add(Itemset{0, 1, 2}, 6);
  ItemsetSet lk({Itemset{0, 4}, Itemset{1, 4}});  // {0,1} absent from L_k
  std::vector<Itemset> candidates = {Itemset{0, 1, 4}};
  const std::vector<Itemset> pruned =
      NewPrune(std::move(candidates), lk, mfs);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned[0], (Itemset{0, 1, 4}));
}

TEST(NewPrune, DropsCandidatesWithUnknownSubset) {
  Mfs mfs;  // empty
  ItemsetSet lk({Itemset{0, 1}, Itemset{0, 2}});  // {1,2} missing, not in MFS
  std::vector<Itemset> candidates = {Itemset{0, 1, 2}};
  EXPECT_TRUE(NewPrune(std::move(candidates), lk, mfs).empty());
}

TEST(PincerCandidateGen, ReducesToAprioriGenWithoutMfs) {
  const std::vector<Itemset> lk = {Itemset{0, 1}, Itemset{0, 2},
                                   Itemset{1, 2}, Itemset{1, 3}};
  Mfs empty_mfs;
  const std::vector<Itemset> candidates = PincerCandidateGen(lk, empty_mfs);
  const std::vector<Itemset> expected = {Itemset{0, 1, 2}};
  EXPECT_EQ(candidates, expected);
}

// Lemma 2 as a property — with a twist this test discovered: the paper's
// claim ("all candidates will be generated") does NOT hold for the
// generation step in isolation. When *both* (k-1)-prefix join parents of a
// candidate are covered by *different* MFS elements, neither join nor
// recovery can produce it (recovery only pairs a restored subset with an
// itemset still present in L_k). The full algorithm is nevertheless correct
// because precisely such candidates contain no infrequent subset and are
// therefore covered by the MFCS, whose top-down search classifies them —
// completeness is holistic, not per-step (verified against the brute-force
// oracle in pincer_property_test.cc).
//
// What the generation step does guarantee, and what we verify here over
// random realizable states:
//  (a) soundness: every generated candidate is an Apriori-gen candidate of
//      the full L_k and is not covered by the MFS;
//  (b) anchored completeness: every Apriori-gen candidate that has at least
//      one of its two join parents still in the filtered L_k is generated.
TEST(PincerCandidateGen, SoundnessAndAnchoredCompletenessOnRandomStates) {
  Prng prng(123);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomDbParams params;
    params.num_items = 9;
    params.num_transactions = 40;
    params.item_probability = 0.5;
    params.seed = seed;
    const TransactionDatabase db = MakeRandomDatabase(params);
    const std::vector<FrequentItemset> frequent = BruteForceFrequent(db, 0.2);
    const std::vector<FrequentItemset> maximal = BruteForceMaximal(db, 0.2);

    for (size_t k = 2; k <= 4; ++k) {
      // Full L_k.
      std::vector<Itemset> lk_full;
      for (const FrequentItemset& fi : frequent) {
        if (fi.itemset.size() == k) lk_full.push_back(fi.itemset);
      }
      if (lk_full.empty()) continue;

      // A random subset of the maximal itemsets plays "MFS so far".
      Mfs mfs;
      std::vector<Itemset> mfs_itemsets;
      for (const FrequentItemset& fi : maximal) {
        if (prng.Bernoulli(0.5)) {
          mfs.Add(fi.itemset, fi.support);
          mfs_itemsets.push_back(fi.itemset);
        }
      }

      // Filtered L_k (line 8 of the main algorithm).
      std::vector<Itemset> lk_filtered;
      for (const Itemset& itemset : lk_full) {
        if (!IsSubsetOfAny(itemset, mfs_itemsets)) {
          lk_filtered.push_back(itemset);
        }
      }

      // Reference: Apriori-gen over the full L_k, minus MFS-covered.
      std::vector<Itemset> reference;
      for (Itemset& candidate : AprioriGen(lk_full)) {
        if (!IsSubsetOfAny(candidate, mfs_itemsets)) {
          reference.push_back(std::move(candidate));
        }
      }
      SortLexicographically(reference);

      const std::vector<Itemset> actual = PincerCandidateGen(lk_filtered, mfs);
      const ItemsetSet actual_set(actual);
      const ItemsetSet reference_set(reference);
      const ItemsetSet lk_filtered_set(lk_filtered);

      // (a) Soundness.
      for (const Itemset& candidate : actual) {
        EXPECT_TRUE(reference_set.Contains(candidate))
            << "junk candidate " << candidate << " seed=" << seed
            << " k=" << k;
      }
      // (b) Anchored completeness: candidate c = prefix + {a, b} with join
      // parents prefix+{a} and prefix+{b}. Candidates with an MFS element
      // as a subset are exempt: a proper superset of a maximal frequent
      // itemset is known infrequent, so Pincer-Search rightly never counts
      // it (Apriori does — part of the candidate savings).
      for (const Itemset& candidate : reference) {
        if (ContainsSubsetOf(candidate, mfs_itemsets)) continue;
        const Itemset parent_a =
            candidate.WithoutItem(candidate[candidate.size() - 1]);
        const Itemset parent_b =
            candidate.WithoutItem(candidate[candidate.size() - 2]);
        if (lk_filtered_set.Contains(parent_a) ||
            lk_filtered_set.Contains(parent_b)) {
          EXPECT_TRUE(actual_set.Contains(candidate))
              << "missing anchored candidate " << candidate << " seed="
              << seed << " k=" << k;
        }
      }
    }
  }
}

TEST(PincerCandidateGen, DeduplicatesJoinAndRecoveryOverlap) {
  // Construct a state where recovery output and join output could overlap;
  // output must be duplicate-free and sorted.
  const std::vector<Itemset> lk = {Itemset{0, 3}, Itemset{1, 3}};
  Mfs mfs;
  mfs.Add(Itemset{0, 1, 2}, 4);
  const std::vector<Itemset> candidates = PincerCandidateGen(lk, mfs);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_TRUE(candidates[i - 1] < candidates[i]);
  }
}

}  // namespace
}  // namespace pincer
