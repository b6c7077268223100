// A fixed-capacity dynamic bitset over item ids. Used for transaction
// membership tests (is item i in transaction T?) and for dense itemset
// representations in the counting engines.

#ifndef PINCER_ITEMSET_DYNAMIC_BITSET_H_
#define PINCER_ITEMSET_DYNAMIC_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pincer {

/// Bitset whose size is chosen at construction. Bit indices outside
/// [0, size()) are programming errors (asserted in debug builds).
class DynamicBitset {
 public:
  /// Creates an all-zero bitset with `num_bits` bits.
  explicit DynamicBitset(size_t num_bits = 0);

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  /// Number of bits.
  size_t size() const { return num_bits_; }

  /// Sets bit `index` to 1.
  void Set(size_t index);

  /// Sets bit `index` to 0.
  void Reset(size_t index);

  /// Sets all bits to 0 (keeps the size).
  void Clear();

  /// Sets all bits to 1 (keeps the size). Word-level fill: the partial tail
  /// word is masked so bits beyond size() stay zero, preserving the
  /// invariant Count() and the intersection kernels rely on.
  void SetAll();

  /// Returns bit `index`.
  bool Test(size_t index) const;

  /// Number of set bits.
  size_t Count() const;

  /// Returns true if no bit is set.
  bool None() const { return Count() == 0; }

  /// Returns true if every set bit of this bitset is also set in `other`.
  /// Requires equal sizes.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// Returns true if this bitset shares at least one set bit with `other`.
  /// Requires equal sizes.
  bool Intersects(const DynamicBitset& other) const;

  /// In-place bitwise AND. Requires equal sizes.
  DynamicBitset& operator&=(const DynamicBitset& other);

  /// In-place bitwise OR. Requires equal sizes.
  DynamicBitset& operator|=(const DynamicBitset& other);

  /// Number of set bits in (*this & other) without materializing the
  /// intersection. Requires equal sizes. This is the hot loop of the
  /// vertical counting engine: a 4-at-a-time unrolled intersect-and-popcount
  /// over whole words. It and Count() run the POPCNT instruction where the
  /// CPU has it and a portable loop elsewhere, picked once per process
  /// (itemset/popcount_kernels.h); the bitset tests check every variant
  /// against a per-bit reference.
  size_t IntersectionCount(const DynamicBitset& other) const;

  /// Overwrites this bitset with (a & b) in one word-level pass, resizing to
  /// match. Requires a.size() == b.size(). Unlike `x = a; x &= b;` this
  /// never allocates when the capacity already fits — the vertical counting
  /// engine reuses one scratch accumulator across all candidates.
  void AssignAnd(const DynamicBitset& a, const DynamicBitset& b);

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  static constexpr size_t kBitsPerWord = 64;

  size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace pincer

#endif  // PINCER_ITEMSET_DYNAMIC_BITSET_H_
