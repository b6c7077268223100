// Result cache for the mining daemon: completed (non-aborted) runs are
// stored under a key derived from the database fingerprint plus the
// checkpoint layer's options fingerprint, so a repeat query is answered
// without touching the counting layer at all. An entry keeps its answer as
// JSON text too, so serving it again copies bytes instead of walking the
// itemsets. A second, cheaper path covers
// the common "same query, stricter support" case: a query at a strictly
// higher min_support than a cached run is answered by filtering the cached
// MFS downward and re-validating supports against the run's SupportTable —
// sound because raising the threshold can only shrink the frequent set, so
// every newly-maximal itemset is a subset of a cached maximal one. When a
// needed support was never counted by the original run (routine for
// Pincer-Search, which skips counting subsets of frequent MFCS elements)
// the filter reports failure and the caller falls back to a full mine.

#ifndef PINCER_SERVE_RESULT_CACHE_H_
#define PINCER_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mining/frequent_itemset.h"
#include "mining/support_table.h"

namespace pincer {

/// Recomputes the MFS at a stricter threshold from a cached one.
/// `base_mfs` must be the complete MFS at some min_count <= `min_count`;
/// `supports` must be the originating run's MaximalSetResult::supports.
/// Returns the exact MFS at `min_count` (lexicographically sorted, like
/// MaximalSetResult::mfs), or nullopt as soon as a needed support is not in
/// the table — never a wrong answer. Differentially validated against fresh
/// mines in tests/serve_service_test.cc.
std::optional<std::vector<FrequentItemset>> FilterMfsAtHigherMinCount(
    const std::vector<FrequentItemset>& base_mfs, const SupportTable& supports,
    uint64_t min_count);

/// Bounded LRU cache of completed mining runs, shared by all daemon
/// sessions. Entries are immutable and handed out as shared_ptr, so a hit
/// stays valid even if concurrent inserts evict it. Thread-safe via an
/// internal mutex in the daemon (serve/server.cc); this class itself is a
/// plain single-threaded container.
class ResultCache {
 public:
  struct Entry {
    /// Exact key: database fingerprint + options fingerprint (includes
    /// min_support).
    std::string key;
    /// Family key: the same fingerprint with min_support zeroed — shared by
    /// runs that differ only in threshold, the filter path's search space.
    std::string family;
    double min_support = 0;
    uint64_t min_count = 0;
    /// The answer's itemsets: what the filter path descends from.
    std::vector<FrequentItemset> mfs;
    /// `mfs` as the response's compact JSON array, written once when the
    /// entry is made; every response that serves the entry copies it.
    std::string mfs_json;
    /// The originating run's stats object as compact JSON. Entries derived
    /// by the filter path share their base entry's text.
    std::shared_ptr<const std::string> stats_json;
    /// The originating run's counted supports, read without a lock.
    /// Entries derived by the filter path share their base entry's table
    /// (shared_ptr keeps it alive past the base's eviction), so they can
    /// serve as filter bases themselves.
    std::shared_ptr<const SupportTable> supports;
  };

  /// Keeps at most `capacity` entries (>= 1), evicting least-recently-used.
  explicit ResultCache(size_t capacity);

  /// Exact-key lookup; refreshes recency. Null on miss.
  std::shared_ptr<const Entry> Lookup(const std::string& key);

  /// Best base for the filter path: among entries of `family` with
  /// min_count <= `min_count`, the one with the largest min_count (the
  /// smallest MFS to descend from). Null when the family has no usable
  /// entry. Refreshes recency of the returned entry.
  std::shared_ptr<const Entry> LookupFilterBase(const std::string& family,
                                                uint64_t min_count);

  /// Inserts (or replaces) `entry` under entry->key as most recent.
  void Insert(std::shared_ptr<const Entry> entry);

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  void Touch(std::list<std::shared_ptr<const Entry>>::iterator it);

  size_t capacity_;
  /// Most recent first.
  std::list<std::shared_ptr<const Entry>> order_;
  std::unordered_map<std::string,
                     std::list<std::shared_ptr<const Entry>>::iterator>
      by_key_;
};

}  // namespace pincer

#endif  // PINCER_SERVE_RESULT_CACHE_H_
