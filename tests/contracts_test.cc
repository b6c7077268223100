// Tests for src/util/contracts.h: passing contracts are silent, failing
// PINCER_CHECKs abort with the condition, file:line, and streamed message
// (death tests), PINCER_DCHECK obeys its Debug-only activation, and the
// sorted-unique helper matches its definition.

#include "util/contracts.h"

#include <vector>

#include "core/mfcs.h"
#include "core/mfs.h"
#include "gtest/gtest.h"
#include "itemset/itemset.h"

namespace pincer {
namespace {

TEST(ContractsTest, PassingChecksAreSilentAndEvaluateOnce) {
  int evaluations = 0;
  PINCER_CHECK([&] {
    ++evaluations;
    return true;
  }());
#if PINCER_CHECK_IS_ON()
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);  // contracts compiled out: not evaluated
#endif
  PINCER_CHECK(1 + 1 == 2, "arithmetic still works");
  const std::vector<int> sorted = {1, 2, 3};
  PINCER_CHECK_SORTED_UNIQUE(sorted);
}

TEST(ContractsTest, IsStrictlyIncreasingMatchesDefinition) {
  using contracts::IsStrictlyIncreasing;
  EXPECT_TRUE(IsStrictlyIncreasing(std::vector<int>{}));
  EXPECT_TRUE(IsStrictlyIncreasing(std::vector<int>{7}));
  EXPECT_TRUE(IsStrictlyIncreasing(std::vector<int>{1, 2, 9}));
  EXPECT_FALSE(IsStrictlyIncreasing(std::vector<int>{1, 1}));
  EXPECT_FALSE(IsStrictlyIncreasing(std::vector<int>{2, 1}));
  EXPECT_FALSE(IsStrictlyIncreasing(std::vector<int>{1, 3, 2}));
}

#if PINCER_CHECK_IS_ON()

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, FailingCheckReportsConditionFileLineAndMessage) {
  EXPECT_DEATH(PINCER_CHECK(2 + 2 == 5, "math broke: ", 42),
               "PINCER_CHECK failed: 2 \\+ 2 == 5.*contracts_test.cc.*"
               "math broke: 42");
}

TEST(ContractsDeathTest, FailingCheckWithoutMessageStillNamesTheCondition) {
  EXPECT_DEATH(PINCER_CHECK(false), "PINCER_CHECK failed: false");
}

TEST(ContractsDeathTest, SortedUniqueCheckDiesOnDuplicatesAndDisorder) {
  const std::vector<int> dup = {1, 1};
  EXPECT_DEATH(PINCER_CHECK_SORTED_UNIQUE(dup),
               "PINCER_CHECK_SORTED_UNIQUE failed: dup");
  const std::vector<int> unsorted = {3, 1};
  EXPECT_DEATH(PINCER_CHECK_SORTED_UNIQUE(unsorted, "restore path"),
               "restore path");
}

#endif  // PINCER_CHECK_IS_ON()

TEST(ContractsTest, DcheckFollowsBuildMode) {
  int evaluations = 0;
  PINCER_DCHECK([&] {
    ++evaluations;
    return true;
  }());
#if PINCER_DCHECK_IS_ON()
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);
#endif
}

#if PINCER_DCHECK_IS_ON()
TEST(ContractsDeathTest, FailingDcheckAborts) {
  EXPECT_DEATH(PINCER_DCHECK(false, "debug-only invariant"),
               "PINCER_DCHECK failed: false.*debug-only invariant");
}
#endif

// The antichain helpers backing the MFCS/MFS contracts are part of the
// public surface; pin their semantics here.
TEST(ContractsTest, MfcsAntichainHelper) {
  Mfcs antichain({Itemset{0, 1}, Itemset{1, 2}, Itemset{2, 3}});
  EXPECT_TRUE(antichain.IsAntichain());
  Mfcs comparable({Itemset{0, 1, 2}, Itemset{1, 2}});
  EXPECT_FALSE(comparable.IsAntichain());
}

TEST(ContractsTest, MfsAntichainHelper) {
  Mfs mfs;
  EXPECT_TRUE(mfs.IsAntichain());
  mfs.Add(Itemset{0, 1}, 3);
  mfs.Add(Itemset{1, 2}, 2);
  EXPECT_TRUE(mfs.IsAntichain());  // incomparable elements
}

}  // namespace
}  // namespace pincer
