#include "itemset/itemset_ops.h"

#include <algorithm>
#include <cassert>

namespace pincer {

bool Joinable(const Itemset& a, const Itemset& b) {
  if (a.size() != b.size() || a.empty()) return false;
  const size_t prefix = a.size() - 1;
  return a.SharesPrefix(b, prefix) && a[prefix] != b[prefix];
}

Itemset Join(const Itemset& a, const Itemset& b) {
  assert(Joinable(a, b));
  std::vector<ItemId> merged(a.items());
  const ItemId last_b = b[b.size() - 1];
  merged.insert(std::upper_bound(merged.begin(), merged.end(), last_b),
                last_b);
  return Itemset::FromSorted(std::move(merged));
}

std::vector<Itemset> NonTrivialSubsets(const Itemset& itemset) {
  std::vector<Itemset> subsets;
  for (size_t k = 1; k < itemset.size(); ++k) {
    std::vector<Itemset> level = itemset.SubsetsOfSize(k);
    subsets.insert(subsets.end(), level.begin(), level.end());
  }
  return subsets;
}

void SortLexicographically(std::vector<Itemset>& itemsets) {
  std::sort(itemsets.begin(), itemsets.end());
}

}  // namespace pincer
