#include "itemset/dynamic_bitset.h"

#include <bit>
#include <cassert>

#include "itemset/popcount_kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define PINCER_POPCNT_VARIANT 1
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

// The two loop bodies, inlined into every variant.
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

#ifdef PINCER_POPCNT_VARIANT
[[gnu::target("popcnt")]] size_t CountPopcnt(const uint64_t* words,
                                             size_t n) {
  return CountBody(words, n);
}

[[gnu::target("popcnt")]] size_t IntersectionCountPopcnt(const uint64_t* a,
                                                         const uint64_t* b,
                                                         size_t n) {
  return IntersectionCountBody(a, b, n);
}
#endif

}  // namespace

std::vector<PopcountKernel> SupportedPopcountKernels() {
  std::vector<PopcountKernel> kernels = {
      {"portable", &CountPortable, &IntersectionCountPortable}};
#ifdef PINCER_POPCNT_VARIANT
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) {
    kernels.push_back({"popcnt", &CountPopcnt, &IntersectionCountPopcnt});
  }
#endif
  return kernels;
}

const PopcountKernel& ActivePopcountKernel() {
  static const PopcountKernel kActive = SupportedPopcountKernels().back();
  return kActive;
}

DynamicBitset::DynamicBitset(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + kBitsPerWord - 1) / kBitsPerWord, 0) {}

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
  assert(num_bits_ == other.num_bits_);
  uint64_t* out = words_.data();
  const uint64_t* w = other.words_.data();
  const size_t n = words_.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i] &= w[i];
    out[i + 1] &= w[i + 1];
    out[i + 2] &= w[i + 2];
    out[i + 3] &= w[i + 3];
  }
  for (; i < n; ++i) out[i] &= w[i];
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

void DynamicBitset::AssignAnd(const DynamicBitset& a, const DynamicBitset& b) {
  assert(a.num_bits_ == b.num_bits_);
  num_bits_ = a.num_bits_;
  words_.resize(a.words_.size());
  uint64_t* out = words_.data();
  const uint64_t* wa = a.words_.data();
  const uint64_t* wb = b.words_.data();
  const size_t n = words_.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i] = wa[i] & wb[i];
    out[i + 1] = wa[i + 1] & wb[i + 1];
    out[i + 2] = wa[i + 2] & wb[i + 2];
    out[i + 3] = wa[i + 3] & wb[i + 3];
  }
  for (; i < n; ++i) out[i] = wa[i] & wb[i];
}

}  // namespace pincer
