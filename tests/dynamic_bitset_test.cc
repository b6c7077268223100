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
  // AssignAnd, and operator&= which runs the same word loop, must equal a
  // per-bit AND on sizes around the vector blocks and their tails, and
  // report whether any bit survived.
  for (const size_t size : {1u, 64u, 100u, 256u, 300u, 517u, 1025u}) {
    DynamicBitset a(size), b(size), disjoint(size), expected(size);
    for (size_t i = 0; i < size; i += 3) a.Set(i);
    for (size_t i = 0; i < size; i += 7) b.Set(i);
    for (size_t i = 1; i < size; i += 3) disjoint.Set(i);
    for (size_t i = 0; i < size; ++i) {
      if (a.Test(i) && b.Test(i)) expected.Set(i);
    }
    DynamicBitset fused;
    EXPECT_TRUE(fused.AssignAnd(a, b)) << size;
    EXPECT_TRUE(fused == expected) << size;
    DynamicBitset in_place = a;
    in_place &= b;
    EXPECT_TRUE(in_place == expected) << size;
    // Reuse without reallocation: overwrite the same scratch with an empty
    // intersection, then chain in place.
    EXPECT_FALSE(fused.AssignAnd(a, disjoint)) << size;
    EXPECT_EQ(fused.Count(), 0u) << size;
    EXPECT_TRUE(fused.AssignAnd(b, a)) << size;
    EXPECT_TRUE(fused == expected) << size;
    EXPECT_FALSE(fused.AssignAnd(fused, disjoint)) << size;
    EXPECT_TRUE(fused == DynamicBitset(size)) << size;
  }
}

TEST(DynamicBitset, IntersectionCountMatchesScalarReference) {
  // Every word-loop variant this host runs (the portable loop, POPCNT and
  // AVX-512 where the CPU has them) must agree with a per-bit reference,
  // for Count, IntersectionCount and the AND with its nonzero flag, at
  // random densities and at word counts around the 4-word scalar body and
  // the 8- and 16-word vector blocks, so every tail length is run.
  const std::vector<PopcountKernel> kernels = SupportedPopcountKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "portable");
  Prng rng(131);
  for (const size_t num_words :
       {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u,
        63u, 64u, 65u, 66u, 67u, 257u, 258u, 259u, 300u, 517u}) {
    for (const double density : {0.0, 0.03, 0.5, 0.97, 1.0}) {
      std::vector<uint64_t> a(num_words, 0), b(num_words, 0);
      for (size_t w = 0; w < num_words; ++w) {
        for (size_t bit = 0; bit < 64; ++bit) {
          if (rng.Bernoulli(density)) a[w] |= uint64_t{1} << bit;
          if (rng.Bernoulli(density)) b[w] |= uint64_t{1} << bit;
        }
      }
      size_t count_a = 0, count_ab = 0;
      std::vector<uint64_t> and_ab(num_words, 0);
      for (size_t w = 0; w < num_words; ++w) {
        count_a += PerBitCount(a[w]);
        count_ab += PerBitCount(a[w] & b[w]);
        and_ab[w] = a[w] & b[w];
      }
      for (const PopcountKernel& kernel : kernels) {
        SCOPED_TRACE(::testing::Message() << kernel.name << ", " << num_words
                                          << " words, density " << density);
        EXPECT_EQ(kernel.count(a.data(), num_words), count_a);
        EXPECT_EQ(kernel.intersection_count(a.data(), b.data(), num_words),
                  count_ab);
        EXPECT_EQ(kernel.intersection_count(b.data(), a.data(), num_words),
                  count_ab);
        // Into a fresh buffer one word longer, whose last word must be
        // left alone, and in place over a copy of `a`.
        std::vector<uint64_t> out(num_words + 1, 0x5a5a5a5a5a5a5a5aULL);
        EXPECT_EQ(kernel.assign_and(out.data(), a.data(), b.data(), num_words),
                  count_ab > 0);
        EXPECT_EQ(std::vector<uint64_t>(out.begin(), out.end() - 1), and_ab);
        EXPECT_EQ(out.back(), 0x5a5a5a5a5a5a5a5aULL);
        std::vector<uint64_t> in_place = a;
        EXPECT_EQ(kernel.assign_and(in_place.data(), in_place.data(),
                                    b.data(), num_words),
                  count_ab > 0);
        EXPECT_EQ(in_place, and_ab);
      }
    }
  }
  // A single set bit at each word of the 33-word range: the nonzero flag
  // sees it wherever it lands, in a vector block or in the tail.
  for (const PopcountKernel& kernel : kernels) {
    for (size_t hit = 0; hit < 33; ++hit) {
      std::vector<uint64_t> a(33, 0), b(33, ~uint64_t{0}), out(33, 0);
      a[hit] = uint64_t{1} << (hit % 64);
      EXPECT_TRUE(kernel.assign_and(out.data(), a.data(), b.data(), 33))
          << kernel.name << ", bit in word " << hit;
      EXPECT_EQ(kernel.intersection_count(a.data(), b.data(), 33), 1u)
          << kernel.name << ", bit in word " << hit;
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
  // The active variant is the fastest the CPU reports: AVX-512 with
  // AVX-512F and VPOPCNTDQ, else POPCNT, else the portable loop. A build
  // that fell back to a slower loop would count the same answers several
  // times slower: only this pin would notice.
  bool cpu_has_popcnt = false;
  bool cpu_has_avx512 = false;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  cpu_has_popcnt = __builtin_cpu_supports("popcnt");
  cpu_has_avx512 = __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512vpopcntdq");
#endif
  const char* expected = cpu_has_avx512   ? "avx512"
                         : cpu_has_popcnt ? "popcnt"
                                          : "portable";
  EXPECT_STREQ(ActivePopcountKernel().name, expected);
  EXPECT_EQ(SupportedPopcountKernels().size(),
            1u + (cpu_has_popcnt ? 1u : 0u) + (cpu_has_avx512 ? 1u : 0u));
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
