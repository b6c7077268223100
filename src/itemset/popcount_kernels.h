// The word loops behind DynamicBitset's counts and ANDs, compiled once per
// instruction set.
//
// Private to the bitset: DynamicBitset uses ActivePopcountKernel(). The
// bitset tests and the counting microbenchmark include this header to run
// every variant the host supports and to pin which one is active.
//
// The default x86-64 target has no POPCNT instruction, so a portable loop
// calls libgcc's table routine once per 64-bit word. On x86-64 under
// GCC/Clang two more copies of each loop are compiled with function target
// attributes, never with a global -m flag, so the binary still runs on
// every x86-64 CPU: one with [[gnu::target("popcnt")]], and one with
// [[gnu::target("avx512f,avx512vpopcntdq")]] that ANDs and popcounts eight
// words per instruction. The fastest variant the CPU reports is chosen once
// per process. Elsewhere the portable loop is the only variant. Every
// variant returns the same results for the same words.

#ifndef PINCER_ITEMSET_POPCOUNT_KERNELS_H_
#define PINCER_ITEMSET_POPCOUNT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pincer {

/// One compiled variant of the word loops.
struct PopcountKernel {
  /// "portable", "popcnt" or "avx512".
  const char* name;
  /// Number of set bits in words[0, num_words).
  size_t (*count)(const uint64_t* words, size_t num_words);
  /// Number of set bits in (a[i] & b[i]) over i in [0, num_words).
  size_t (*intersection_count)(const uint64_t* a, const uint64_t* b,
                               size_t num_words);
  /// out[i] = a[i] & b[i] over i in [0, num_words); true when any result
  /// word is nonzero. `out` may be `a` or `b`.
  bool (*assign_and)(uint64_t* out, const uint64_t* a, const uint64_t* b,
                     size_t num_words);
};

/// The variants this host can run, the portable loop first and the
/// fastest last.
std::vector<PopcountKernel> SupportedPopcountKernels();

/// The variant DynamicBitset uses in this process: the last of
/// SupportedPopcountKernels(), chosen on first use.
const PopcountKernel& ActivePopcountKernel();

}  // namespace pincer

#endif  // PINCER_ITEMSET_POPCOUNT_KERNELS_H_
