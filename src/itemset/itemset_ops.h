// Free functions on itemsets and itemset collections shared by the mining
// algorithms: the (k-1)-prefix join primitive, subset enumeration and
// lexicographic sorting. Maximality extraction is MaximalOf (core/mfs.h).

#ifndef PINCER_ITEMSET_ITEMSET_OPS_H_
#define PINCER_ITEMSET_ITEMSET_OPS_H_

#include <cstddef>
#include <vector>

#include "itemset/itemset.h"

namespace pincer {

/// True if `a` and `b` are k-itemsets of the same size sharing their first
/// (k-1) items — the joinability test of the Apriori-gen join procedure.
bool Joinable(const Itemset& a, const Itemset& b);

/// Joins two joinable k-itemsets into their (k+1)-item union. Requires
/// Joinable(a, b).
Itemset Join(const Itemset& a, const Itemset& b);

/// All non-empty proper subsets of `itemset` — the "2^l - 2 non-trivial
/// frequent itemsets" of the paper's introduction. Intended for small sets;
/// the count is 2^size - 2.
std::vector<Itemset> NonTrivialSubsets(const Itemset& itemset);

/// Sorts a candidate list lexicographically — the precondition of the join
/// procedure.
void SortLexicographically(std::vector<Itemset>& itemsets);

}  // namespace pincer

#endif  // PINCER_ITEMSET_ITEMSET_OPS_H_
