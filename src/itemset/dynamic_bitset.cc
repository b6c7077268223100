#include "itemset/dynamic_bitset.h"

#include <bit>
#include <cassert>

#include "itemset/popcount_kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define PINCER_X86_VARIANTS 1
#include <immintrin.h>
#endif

namespace pincer {

namespace {

// One word's popcount. Under GCC/Clang the builtin expands in its caller's
// target, so each variant below gets its own instruction at every
// optimization level (std::popcount stays an out-of-line call at -O0).
[[gnu::always_inline]] inline size_t PopcountWord(uint64_t word) {
#if defined(__GNUC__)
  return static_cast<size_t>(__builtin_popcountll(word));
#else
  return static_cast<size_t>(std::popcount(word));
#endif
}

// The scalar loop bodies, inlined into the portable and POPCNT variants.
[[gnu::always_inline]] inline size_t CountBody(const uint64_t* words,
                                               size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += PopcountWord(words[i]);
  return total;
}

[[gnu::always_inline]] inline size_t IntersectionCountBody(
    const uint64_t* a, const uint64_t* b, size_t n) {
  // Four independent accumulators break the loop's serial dependence on
  // one sum. Integer addition is associative, so the result is the scalar
  // loop's for any word count.
  size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    t0 += PopcountWord(a[i] & b[i]);
    t1 += PopcountWord(a[i + 1] & b[i + 1]);
    t2 += PopcountWord(a[i + 2] & b[i + 2]);
    t3 += PopcountWord(a[i + 3] & b[i + 3]);
  }
  for (; i < n; ++i) t0 += PopcountWord(a[i] & b[i]);
  return t0 + t1 + t2 + t3;
}

size_t CountPortable(const uint64_t* words, size_t n) {
  return CountBody(words, n);
}

size_t IntersectionCountPortable(const uint64_t* a, const uint64_t* b,
                                 size_t n) {
  return IntersectionCountBody(a, b, n);
}

// An AND has no popcount, so the POPCNT variant shares this loop. Each
// word is read before its slot is written, so `out` may alias `a` or `b`.
bool AssignAndPortable(uint64_t* out, const uint64_t* a, const uint64_t* b,
                       size_t n) {
  uint64_t any = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t w0 = a[i] & b[i];
    const uint64_t w1 = a[i + 1] & b[i + 1];
    const uint64_t w2 = a[i + 2] & b[i + 2];
    const uint64_t w3 = a[i + 3] & b[i + 3];
    out[i] = w0;
    out[i + 1] = w1;
    out[i + 2] = w2;
    out[i + 3] = w3;
    any |= w0 | w1 | w2 | w3;
  }
  for (; i < n; ++i) {
    const uint64_t w = a[i] & b[i];
    out[i] = w;
    any |= w;
  }
  return any != 0;
}

#ifdef PINCER_X86_VARIANTS
[[gnu::target("popcnt")]] size_t CountPopcnt(const uint64_t* words,
                                             size_t n) {
  return CountBody(words, n);
}

[[gnu::target("popcnt")]] size_t IntersectionCountPopcnt(const uint64_t* a,
                                                         const uint64_t* b,
                                                         size_t n) {
  return IntersectionCountBody(a, b, n);
}

// The AVX-512 loops take 16 words per iteration into two accumulators,
// then at most one 8-word block, then a masked load of the last 0-7 words:
// masked-off lanes are neither read nor written.

// The first `n` < 8 lanes.
[[gnu::always_inline]] inline __mmask8 TailMask(size_t n) {
  return static_cast<__mmask8>((1u << n) - 1);
}

// The sum of the eight 64-bit lanes. Stored and summed:
// _mm512_reduce_add_epi64 trips GCC 12's -Wuninitialized inside
// avx512fintrin.h, which -Werror turns into a build failure.
[[gnu::target("avx512f,avx512vpopcntdq"), gnu::always_inline]] inline size_t
SumLanes(__m512i v) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  uint64_t total = 0;
  for (const uint64_t lane : lanes) total += lane;
  return static_cast<size_t>(total);
}

[[gnu::target("avx512f,avx512vpopcntdq")]] size_t CountAvx512(
    const uint64_t* words, size_t n) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_epi64(
        acc0, _mm512_popcnt_epi64(_mm512_loadu_si512(words + i)));
    acc1 = _mm512_add_epi64(
        acc1, _mm512_popcnt_epi64(_mm512_loadu_si512(words + i + 8)));
  }
  if (i + 8 <= n) {
    acc0 = _mm512_add_epi64(
        acc0, _mm512_popcnt_epi64(_mm512_loadu_si512(words + i)));
    i += 8;
  }
  if (i < n) {
    acc1 = _mm512_add_epi64(
        acc1, _mm512_popcnt_epi64(
                  _mm512_maskz_loadu_epi64(TailMask(n - i), words + i)));
  }
  return SumLanes(_mm512_add_epi64(acc0, acc1));
}

[[gnu::target("avx512f,avx512vpopcntdq")]] size_t IntersectionCountAvx512(
    const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_epi64(
        acc0, _mm512_popcnt_epi64(_mm512_and_si512(
                  _mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i))));
    acc1 = _mm512_add_epi64(
        acc1,
        _mm512_popcnt_epi64(_mm512_and_si512(_mm512_loadu_si512(a + i + 8),
                                             _mm512_loadu_si512(b + i + 8))));
  }
  if (i + 8 <= n) {
    acc0 = _mm512_add_epi64(
        acc0, _mm512_popcnt_epi64(_mm512_and_si512(
                  _mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i))));
    i += 8;
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    acc1 = _mm512_add_epi64(
        acc1, _mm512_popcnt_epi64(
                  _mm512_and_si512(_mm512_maskz_loadu_epi64(mask, a + i),
                                   _mm512_maskz_loadu_epi64(mask, b + i))));
  }
  return SumLanes(_mm512_add_epi64(acc0, acc1));
}

// Each block is loaded before it is stored, so `out` may alias `a` or `b`.
[[gnu::target("avx512f,avx512vpopcntdq")]] bool AssignAndAvx512(
    uint64_t* out, const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i any = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i w0 =
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    const __m512i w1 = _mm512_and_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    _mm512_storeu_si512(out + i, w0);
    _mm512_storeu_si512(out + i + 8, w1);
    any = _mm512_or_si512(any, _mm512_or_si512(w0, w1));
  }
  if (i + 8 <= n) {
    const __m512i w =
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    _mm512_storeu_si512(out + i, w);
    any = _mm512_or_si512(any, w);
    i += 8;
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    const __m512i w = _mm512_and_si512(_mm512_maskz_loadu_epi64(mask, a + i),
                                       _mm512_maskz_loadu_epi64(mask, b + i));
    _mm512_mask_storeu_epi64(out + i, mask, w);
    any = _mm512_or_si512(any, w);
  }
  return _mm512_test_epi64_mask(any, any) != 0;
}
#endif

}  // namespace

std::vector<PopcountKernel> SupportedPopcountKernels() {
  std::vector<PopcountKernel> kernels = {{"portable", &CountPortable,
                                          &IntersectionCountPortable,
                                          &AssignAndPortable}};
#ifdef PINCER_X86_VARIANTS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) {
    kernels.push_back({"popcnt", &CountPopcnt, &IntersectionCountPopcnt,
                       &AssignAndPortable});
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    kernels.push_back({"avx512", &CountAvx512, &IntersectionCountAvx512,
                       &AssignAndAvx512});
  }
#endif
  return kernels;
}

const PopcountKernel& ActivePopcountKernel() {
  static const PopcountKernel kActive = SupportedPopcountKernels().back();
  return kActive;
}

DynamicBitset::DynamicBitset(size_t num_bits)
    : num_bits_(num_bits),
      words_((num_bits + kBitsPerWord - 1) / kBitsPerWord, 0) {}

void DynamicBitset::Set(size_t index) {
  assert(index < num_bits_);
  words_[index / kBitsPerWord] |= uint64_t{1} << (index % kBitsPerWord);
}

void DynamicBitset::Reset(size_t index) {
  assert(index < num_bits_);
  words_[index / kBitsPerWord] &= ~(uint64_t{1} << (index % kBitsPerWord));
}

void DynamicBitset::Clear() {
  for (auto& word : words_) word = 0;
}

void DynamicBitset::SetAll() {
  if (num_bits_ == 0) return;
  for (auto& word : words_) word = ~uint64_t{0};
  // Mask the tail so bits in [num_bits_, capacity) stay zero — Count() and
  // the word-level intersection kernels depend on clean tail bits.
  const size_t tail_bits = num_bits_ % kBitsPerWord;
  if (tail_bits != 0) {
    words_.back() = (uint64_t{1} << tail_bits) - 1;
  }
}

bool DynamicBitset::Test(size_t index) const {
  assert(index < num_bits_);
  return (words_[index / kBitsPerWord] >> (index % kBitsPerWord)) & 1;
}

size_t DynamicBitset::Count() const {
  return ActivePopcountKernel().count(words_.data(), words_.size());
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & ~other.words_[i]) return false;
  }
  return true;
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  AssignAnd(*this, other);
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

size_t DynamicBitset::IntersectionCount(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  return ActivePopcountKernel().intersection_count(
      words_.data(), other.words_.data(), words_.size());
}

bool DynamicBitset::AssignAnd(const DynamicBitset& a, const DynamicBitset& b) {
  assert(a.num_bits_ == b.num_bits_);
  num_bits_ = a.num_bits_;
  // A no-op when *this is a or b, whose word counts are equal.
  words_.resize(a.words_.size());
  return ActivePopcountKernel().assign_and(words_.data(), a.words_.data(),
                                           b.words_.data(), words_.size());
}

}  // namespace pincer
