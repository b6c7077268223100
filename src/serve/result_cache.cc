#include "serve/result_cache.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/mfs.h"

namespace pincer {

std::optional<std::vector<FrequentItemset>> FilterMfsAtHigherMinCount(
    const std::vector<FrequentItemset>& base_mfs, const SupportTable& supports,
    uint64_t min_count) {
  // Top-down descent over subsets of the base MFS, largest first. A
  // candidate still frequent at the stricter threshold is maximal (its
  // strict supersets were either infrequent at the base threshold or are
  // larger candidates already found infrequent here) and is accepted
  // without expanding; an infrequent candidate sheds one item at a time.
  // Processing strictly by descending size means the accepted sets can be
  // used as the cover set: only larger itemsets can cover a candidate, so
  // the append-only Mfs never holds a subset of a newcomer.
  size_t max_size = 0;
  for (const FrequentItemset& fi : base_mfs) {
    max_size = std::max(max_size, fi.itemset.size());
  }
  std::vector<std::vector<Itemset>> buckets(max_size + 1);
  std::unordered_set<Itemset, ItemsetHash> visited;
  for (const FrequentItemset& fi : base_mfs) {
    if (!fi.itemset.empty() && visited.insert(fi.itemset).second) {
      buckets[fi.itemset.size()].push_back(fi.itemset);
    }
  }

  Mfs accepted;
  for (size_t k = max_size; k > 0; --k) {
    for (const Itemset& candidate : buckets[k]) {
      if (accepted.CoveredBy(candidate)) continue;
      const std::optional<uint64_t> support = supports.Lookup(candidate);
      // The originating run classified this set without counting it
      // individually (Pincer's frequent-MFCS shortcut): the filter cannot
      // decide, so the caller must mine.
      if (!support.has_value()) return std::nullopt;
      if (*support >= min_count) {
        accepted.Add(candidate, *support);
        continue;
      }
      if (k == 1) continue;
      for (Itemset& subset : candidate.SubsetsOfSize(k - 1)) {
        if (visited.insert(subset).second) {
          buckets[k - 1].push_back(std::move(subset));
        }
      }
    }
  }
  return accepted.Sorted();
}

ResultCache::ResultCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void ResultCache::Touch(
    std::list<std::shared_ptr<const Entry>>::iterator it) {
  order_.splice(order_.begin(), order_, it);
}

std::shared_ptr<const ResultCache::Entry> ResultCache::Lookup(
    const std::string& key) {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return nullptr;
  Touch(it->second);
  return *it->second;
}

std::shared_ptr<const ResultCache::Entry> ResultCache::LookupFilterBase(
    const std::string& family, uint64_t min_count) {
  auto best = order_.end();
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    const Entry& entry = **it;
    if (entry.family != family || entry.min_count > min_count) continue;
    if (best == order_.end() || entry.min_count > (*best)->min_count) {
      best = it;
    }
  }
  if (best == order_.end()) return nullptr;
  Touch(best);
  return order_.front();
}

void ResultCache::Insert(std::shared_ptr<const Entry> entry) {
  const auto it = by_key_.find(entry->key);
  if (it != by_key_.end()) {
    Touch(it->second);
    order_.front() = std::move(entry);
    return;
  }
  if (order_.size() >= capacity_) {
    by_key_.erase(order_.back()->key);
    order_.pop_back();
  }
  order_.push_front(std::move(entry));
  by_key_.emplace(order_.front()->key, order_.begin());
}

}  // namespace pincer
