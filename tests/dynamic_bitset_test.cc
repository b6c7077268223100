// Unit tests for DynamicBitset.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "itemset/dynamic_bitset.h"
#include "itemset/popcount_kernels.h"
#include "util/prng.h"

namespace pincer {
namespace {

// Set bits of `word`, one bit at a time.
size_t PerBitCount(uint64_t word) {
  size_t count = 0;
  for (size_t bit = 0; bit < 64; ++bit) count += (word >> bit) & 1;
  return count;
}

TEST(DynamicBitset, StartsAllZero) {
  const DynamicBitset bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_TRUE(bits.None());
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(bits.Test(i));
}

TEST(DynamicBitset, SetResetTest) {
  DynamicBitset bits(70);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(69);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(69));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Reset(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(DynamicBitset, ClearKeepsSize) {
  DynamicBitset bits(10);
  bits.Set(3);
  bits.Clear();
  EXPECT_EQ(bits.size(), 10u);
  EXPECT_TRUE(bits.None());
}

TEST(DynamicBitset, SubsetRelation) {
  DynamicBitset small(128), big(128);
  small.Set(5);
  small.Set(100);
  big.Set(5);
  big.Set(100);
  big.Set(64);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(DynamicBitset(128).IsSubsetOf(small));
}

TEST(DynamicBitset, Intersects) {
  DynamicBitset a(80), b(80);
  a.Set(70);
  b.Set(71);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(70);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(DynamicBitset, AndOrOperators) {
  DynamicBitset a(10), b(10);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  DynamicBitset and_result = a;
  and_result &= b;
  EXPECT_EQ(and_result.Count(), 1u);
  EXPECT_TRUE(and_result.Test(2));
  DynamicBitset or_result = a;
  or_result |= b;
  EXPECT_EQ(or_result.Count(), 3u);
}

TEST(DynamicBitset, IntersectionCount) {
  DynamicBitset a(200), b(200);
  for (size_t i = 0; i < 200; i += 3) a.Set(i);
  for (size_t i = 0; i < 200; i += 5) b.Set(i);
  // Multiples of 15 under 200: 0,15,...,195 -> 14 values.
  EXPECT_EQ(a.IntersectionCount(b), 14u);
}

TEST(DynamicBitset, SetAllMasksTailWord) {
  // Sizes straddling the word boundary: the tail word must stay masked or
  // Count()/IntersectionCount() over-report.
  for (const size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    DynamicBitset bits(size);
    bits.SetAll();
    EXPECT_EQ(bits.size(), size) << size;
    EXPECT_EQ(bits.Count(), size) << size;
    for (size_t i = 0; i < size; ++i) EXPECT_TRUE(bits.Test(i)) << size;
    // AND with all-ones must be the identity — fails if tail garbage leaks.
    DynamicBitset probe(size);
    probe.Set(size - 1);
    EXPECT_EQ(probe.IntersectionCount(bits), 1u) << size;
  }
}

TEST(DynamicBitset, SetAllOnEmptyBitset) {
  DynamicBitset bits(0);
  bits.SetAll();
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(DynamicBitset, AssignAndMatchesCopyThenAnd) {
  // The fused AssignAnd must equal the copy-then-&= reference on sizes that
  // exercise the unrolled 4-word loop and its scalar tail.
  for (const size_t size : {1u, 64u, 100u, 256u, 300u, 517u}) {
    DynamicBitset a(size), b(size);
    for (size_t i = 0; i < size; i += 3) a.Set(i);
    for (size_t i = 0; i < size; i += 7) b.Set(i);
    DynamicBitset expected = a;
    expected &= b;
    DynamicBitset fused;
    fused.AssignAnd(a, b);
    EXPECT_TRUE(fused == expected) << size;
    // Reuse without reallocation: overwrite the same scratch with a second,
    // different intersection.
    DynamicBitset expected2 = b;
    expected2 &= a;
    fused.AssignAnd(b, a);
    EXPECT_TRUE(fused == expected2) << size;
  }
}

TEST(DynamicBitset, IntersectionCountMatchesScalarReference) {
  // Every word-loop variant this host runs (the portable loop, and POPCNT
  // where the CPU has it) must agree with a per-bit reference, for Count
  // and IntersectionCount, at random densities and at word counts that
  // leave a 0-3-word tail after the 4-way unrolled body.
  const std::vector<PopcountKernel> kernels = SupportedPopcountKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "portable");
  Prng rng(131);
  for (const size_t num_words :
       {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 63u, 64u, 65u, 66u, 67u, 257u,
        258u, 259u, 300u, 517u}) {
    for (const double density : {0.0, 0.03, 0.5, 0.97, 1.0}) {
      std::vector<uint64_t> a(num_words, 0), b(num_words, 0);
      for (size_t w = 0; w < num_words; ++w) {
        for (size_t bit = 0; bit < 64; ++bit) {
          if (rng.Bernoulli(density)) a[w] |= uint64_t{1} << bit;
          if (rng.Bernoulli(density)) b[w] |= uint64_t{1} << bit;
        }
      }
      size_t count_a = 0, count_ab = 0;
      for (size_t w = 0; w < num_words; ++w) {
        count_a += PerBitCount(a[w]);
        count_ab += PerBitCount(a[w] & b[w]);
      }
      for (const PopcountKernel& kernel : kernels) {
        SCOPED_TRACE(::testing::Message() << kernel.name << ", " << num_words
                                          << " words, density " << density);
        EXPECT_EQ(kernel.count(a.data(), num_words), count_a);
        EXPECT_EQ(kernel.intersection_count(a.data(), b.data(), num_words),
                  count_ab);
        EXPECT_EQ(kernel.intersection_count(b.data(), a.data(), num_words),
                  count_ab);
      }
    }
  }
  // The same through DynamicBitset's active variant, on bit sizes with and
  // without a partial last word.
  for (const size_t size : {0u, 5u, 64u, 65u, 192u, 250u, 449u, 19217u}) {
    DynamicBitset a(size), b(size);
    for (size_t i = 0; i < size; ++i) {
      if (rng.Bernoulli(0.4)) a.Set(i);
      if (rng.Bernoulli(0.6)) b.Set(i);
    }
    size_t expected_a = 0, expected_ab = 0;
    for (size_t i = 0; i < size; ++i) {
      if (a.Test(i)) ++expected_a;
      if (a.Test(i) && b.Test(i)) ++expected_ab;
    }
    EXPECT_EQ(a.Count(), expected_a) << size;
    EXPECT_EQ(a.IntersectionCount(b), expected_ab) << size;
    EXPECT_EQ(b.IntersectionCount(a), expected_ab) << size;
  }
}

TEST(DynamicBitset, UsesThePopcntVariantWhereverTheCpuHasIt) {
  // A build that fell back to the portable loop on a POPCNT CPU would count
  // through one libgcc call per word, several times slower, with the same
  // answers: only this pin would notice.
  bool cpu_has_popcnt = false;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  cpu_has_popcnt = __builtin_cpu_supports("popcnt");
#endif
  EXPECT_STREQ(ActivePopcountKernel().name,
               cpu_has_popcnt ? "popcnt" : "portable");
  EXPECT_EQ(SupportedPopcountKernels().size(), cpu_has_popcnt ? 2u : 1u);
}

TEST(DynamicBitset, Equality) {
  DynamicBitset a(8), b(8);
  EXPECT_TRUE(a == b);
  a.Set(7);
  EXPECT_FALSE(a == b);
  b.Set(7);
  EXPECT_TRUE(a == b);
}

TEST(DynamicBitset, ZeroSize) {
  const DynamicBitset bits(0);
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.Count(), 0u);
}

}  // namespace
}  // namespace pincer
