// The maximum frequent set (MFS): the algorithm's output container,
// maintaining the set of maximal frequent itemsets discovered so far
// together with their supports, and MaximalOf, the one routine that
// extracts the maximal elements of any itemset collection.

#ifndef PINCER_CORE_MFS_H_
#define PINCER_CORE_MFS_H_

#include <cstdint>
#include <vector>

#include "core/antichain_index.h"
#include "itemset/itemset.h"
#include "mining/frequent_itemset.h"

namespace pincer {

/// An append-only collection of pairwise-incomparable frequent itemsets.
/// Add refuses an itemset that an existing element covers and otherwise
/// appends it; it never evicts. The caller guarantees that no element is a
/// subset of the newcomer: it either adds largest-first (MaximalOf) or adds
/// an itemset already proved maximal (a frequent MFCS element).
///
/// Coverage queries are the hot path of the new prune procedure and of
/// MFCS-gen, so the elements are mirrored in an AntichainIndex: CoveredBy is
/// an AND of |query| slot-bitmap rows instead of a scan over all elements.
class Mfs {
 public:
  Mfs() = default;

  /// Adds a frequent itemset. Returns true if the element was appended,
  /// false if an existing element covers it.
  bool Add(const Itemset& itemset, uint64_t support);

  /// True if `itemset` is a subset of some element — the pruning test of the
  /// new prune procedure and of line 8 of the main algorithm ("subsets of
  /// itemsets in MFS").
  bool CoveredBy(const Itemset& itemset) const;

  /// Size of the largest element. Any query longer than this cannot be
  /// covered, so callers — and CoveredBy itself — use it to refuse
  /// oversized queries before touching the index; the MFCS descent
  /// produces near-universe-sized replacement queries against an MFS of
  /// short maximal itemsets, where this gate answers essentially every
  /// coverage check for free.
  size_t max_element_size() const { return max_element_size_; }

  size_t size() const { return elements_.size(); }
  bool empty() const { return elements_.empty(); }

  const std::vector<FrequentItemset>& elements() const { return elements_; }

  /// True if the elements are pairwise incomparable — the maximality
  /// invariant Add()'s callers maintain. O(n²); used by tests and by the
  /// PINCER_DCHECK after every successful Add (which, to keep Debug wall
  /// clock sane, skips sets past an internal size bound).
  bool IsAntichain() const;

  /// Bare itemsets of all elements (used by the recovery procedure).
  std::vector<Itemset> Itemsets() const;

  /// Elements sorted lexicographically — the final MFS output.
  std::vector<FrequentItemset> Sorted() const;

 private:
  std::vector<FrequentItemset> elements_;
  AntichainIndex index_;  // slot j holds elements_[j]
  size_t max_element_size_ = 0;
};

/// The maximal elements of `itemsets` — those not a proper subset of another
/// — sorted lexicographically. Stable-sorts the input largest-first and adds
/// each itemset no kept element covers to an Mfs, so duplicates collapse to
/// their first occurrence.
std::vector<FrequentItemset> MaximalOf(std::vector<FrequentItemset> itemsets);

}  // namespace pincer

#endif  // PINCER_CORE_MFS_H_
