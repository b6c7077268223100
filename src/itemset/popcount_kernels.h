// The popcount word loops behind DynamicBitset::Count and
// DynamicBitset::IntersectionCount, compiled once per instruction set.
//
// Private to the bitset: DynamicBitset uses ActivePopcountKernel(). The
// bitset tests and the counting microbenchmark include this header to run
// every variant the host supports and to pin which one is active.
//
// The default x86-64 target has no POPCNT instruction, so a portable loop
// calls libgcc's table routine once per 64-bit word. On x86-64 under
// GCC/Clang a second copy of each loop is compiled with
// [[gnu::target("popcnt")]] and chosen once per process when the CPU
// reports POPCNT. Elsewhere the portable loop is the only variant. Every
// variant returns the same count for the same words.

#ifndef PINCER_ITEMSET_POPCOUNT_KERNELS_H_
#define PINCER_ITEMSET_POPCOUNT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pincer {

/// One compiled variant of the two word loops.
struct PopcountKernel {
  /// "portable" or "popcnt".
  const char* name;
  /// Number of set bits in words[0, num_words).
  size_t (*count)(const uint64_t* words, size_t num_words);
  /// Number of set bits in (a[i] & b[i]) over i in [0, num_words).
  size_t (*intersection_count)(const uint64_t* a, const uint64_t* b,
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
