#include "core/mfs.h"

#include <algorithm>

#include "util/contracts.h"

namespace pincer {

namespace {

// Same bound as in mfcs.cc: the O(n²) antichain contract checks only sets
// small enough not to turn Debug mining runs quadratic in wall clock.
constexpr size_t kAntichainDcheckLimit = 64;

}  // namespace

bool Mfs::Add(const Itemset& itemset, uint64_t support) {
  if (CoveredBy(itemset)) return false;
  max_element_size_ = std::max(max_element_size_, itemset.size());
  index_.Add(itemset);
  elements_.push_back({itemset, support});
  PINCER_DCHECK(elements_.size() > kAntichainDcheckLimit || IsAntichain(),
                "MFS holds comparable elements after Add of ",
                itemset.ToString());
  return true;
}

bool Mfs::IsAntichain() const {
  for (size_t i = 0; i < elements_.size(); ++i) {
    for (size_t j = 0; j < elements_.size(); ++j) {
      if (i != j &&
          elements_[i].itemset.IsSubsetOf(elements_[j].itemset)) {
        return false;
      }
    }
  }
  return true;
}

bool Mfs::CoveredBy(const Itemset& itemset) const {
  // A superset is at least as large as the query; longer-than-anything
  // queries are refused without a row walk (see max_element_size()).
  if (itemset.size() > max_element_size_) return false;
  return index_.ContainsSupersetOf(itemset);
}

std::vector<Itemset> Mfs::Itemsets() const { return ItemsetsOf(elements_); }

std::vector<FrequentItemset> Mfs::Sorted() const {
  std::vector<FrequentItemset> sorted = elements_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<FrequentItemset> MaximalOf(std::vector<FrequentItemset> itemsets) {
  // Largest first, every superset precedes its subsets: an itemset no kept
  // element covers is maximal, and no kept element is a subset of it.
  std::stable_sort(itemsets.begin(), itemsets.end(),
                   [](const FrequentItemset& a, const FrequentItemset& b) {
                     return a.itemset.size() > b.itemset.size();
                   });
  Mfs mfs;
  for (const FrequentItemset& fi : itemsets) mfs.Add(fi.itemset, fi.support);
  return mfs.Sorted();
}

}  // namespace pincer
