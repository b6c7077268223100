#include "core/mfcs.h"

#include <algorithm>
#include <utility>

#include "util/contracts.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pincer {

namespace {

// IsAntichain() is O(n²); asserting it after every update would make Debug
// runs quadratic in wall clock once the MFCS/MFS reaches §4 scales
// (thousands of elements × thousands of updates). The contract therefore
// verifies only sets small enough to check cheaply — which still covers
// every unit-test scale and the early passes where MFCS-gen bugs surface.
constexpr size_t kAntichainDcheckLimit = 64;

// Minimum number of (superset × removed-item) pairs before the coverage
// phase of a split fans out across the pool. Below this the per-batch
// wake-up cost exceeds the coverage work itself.
constexpr size_t kParallelPairThreshold = 64;

// An index superset query costs |query| row-ANDs, each a pointer chase into
// a separate heap-allocated row; the dense alternative scans every element's
// universe-wide bitset contiguously. The penalty weights the scattered
// accesses so the cost model below doesn't pick the index for the regime
// where it loses: few live elements with near-universe sizes (the pass-1
// descent), where |query| row chases dwarf a handful of contiguous bitset
// compares. Both paths compute the same predicate, so the choice affects
// time only, never results.
constexpr size_t kIndexScatterPenalty = 2;

// The dense scan's modeled cost ignores two strong mitigations — subset
// tests exit at the first violating word, and same-superset siblings are
// skipped without any compare — so the model overestimates it badly in
// exactly the regimes where the index is marginal. Require the index to win
// by this factor before trusting the estimate; its genuine regime (a
// fragmented set of small elements, queried with small replacements) clears
// the margin by orders of magnitude.
constexpr size_t kIndexWinMargin = 8;

// Pairs per phase-A/phase-B round. Chunking bounds the work wasted when a
// scan budget trips mid-split: phase A precomputes verdicts for at most one
// chunk beyond the trip point instead of the whole pair space. The size is a
// constant (never derived from the thread count) so chunk boundaries — and
// therefore every intermediate state — are identical at any concurrency.
constexpr size_t kSplitChunkPairs = 1024;

// One (superset m × removed item e) pair of a split: the replacement
// m \ {e}, precomputed in the read-only phase together with its coverage
// verdict against the retained elements and the MFS. The item list and
// bitset are materialized lazily — covered replacements on the dense-scan
// path never allocate either.
struct SplitCandidate {
  Itemset items;
  DynamicBitset bits;
  bool covered = false;
  bool empty_replacement = false;
};

}  // namespace

Mfcs::Mfcs(size_t num_items) : universe_(num_items) {
  if (num_items > 0) {
    Itemset full = Itemset::Full(num_items);
    DynamicBitset bits = BitsOf(full);
    AppendElement(std::move(full), std::move(bits));
  }
}

Mfcs::Mfcs(const std::vector<Itemset>& elements) : universe_(0) {
  for (const Itemset& element : elements) {
    if (!element.empty()) {
      universe_ = std::max(
          universe_, static_cast<size_t>(element[element.size() - 1]) + 1);
    }
  }
  for (const Itemset& element : elements) {
    AppendElement(element, BitsOf(element));
  }
}

Mfcs::Mfcs(size_t num_items, const std::vector<Itemset>& elements)
    : universe_(num_items) {
  for (const Itemset& element : elements) {
    AppendElement(element, BitsOf(element));
  }
  // The restore path trusts its input (it came from elements() via a
  // validated checkpoint); re-verify the trust in Debug builds.
  PINCER_DCHECK(items_.size() > kAntichainDcheckLimit || IsAntichain(),
                "restored MFCS elements are not an antichain");
}

bool Mfcs::IsAntichain() const {
  for (size_t i = 0; i < bits_.size(); ++i) {
    for (size_t j = 0; j < bits_.size(); ++j) {
      if (i != j && bits_[i].IsSubsetOf(bits_[j])) return false;
    }
  }
  return true;
}

DynamicBitset Mfcs::BitsOf(const Itemset& itemset) const {
  DynamicBitset bits(universe_);
  for (ItemId item : itemset) bits.Set(item);
  return bits;
}

void Mfcs::AppendElement(Itemset item, DynamicBitset bits) {
  total_item_count_ += item.size();
  index_stale_ = true;
  items_.push_back(std::move(item));
  bits_.push_back(std::move(bits));
}

void Mfcs::FreshenIndex() const {
  if (!index_stale_) return;
  index_.Clear();
  for (const Itemset& element : items_) index_.Add(element);
  index_stale_ = false;
}

bool Mfcs::Update(const std::vector<Itemset>& infrequent, const Mfs& mfs,
                  size_t max_elements, size_t max_scan_steps) {
  size_t scan_steps = 0;
  for (const Itemset& s : infrequent) {
    if (s.empty()) continue;
    if (max_elements > 0 && items_.size() > max_elements) return false;
    scan_steps += items_.size() + 1;
    if (max_scan_steps > 0 && scan_steps > max_scan_steps) return false;

    // Locate the elements containing s, then detach them in position order
    // (the order the serial partition scan produced, which the merge below
    // depends on). The cost model picks the cheaper engine: a row-AND over
    // the (possibly rebuild-needing) index, or a dense-bitset scan — the
    // latter wins whenever churn keeps the index stale, e.g. the pass-1
    // descent, where every split mutates and a rebuild would dwarf the one
    // query it serves.
    const size_t universe_words = universe_ / 64 + 1;
    std::vector<size_t> positions;
    {
      ScopedMsTimer timer(index_millis_);
      // A rebuild pays one Add per element item plus a constant per item
      // row of the universe (growing the recycled row storage), so both
      // terms are charged.
      const size_t rebuild_cost =
          index_stale_ ? total_item_count_ + universe_ : 0;
      const size_t index_slot_words = items_.size() / 64 + 1;
      const size_t index_cost =
          (rebuild_cost + s.size() * index_slot_words) * kIndexScatterPenalty;
      if (index_cost * kIndexWinMargin <= items_.size() * universe_words) {
        FreshenIndex();
        // Slot j == position j after a rebuild, and SupersetsOf returns
        // ascending slots, so the result is already in position order.
        positions = index_.SupersetsOf(s);
      } else {
        // Probe the |s| bits directly instead of materializing a
        // universe-wide bitset for s and comparing word-wise: s is tiny
        // (an infrequent k-itemset) while the universe is not, and the
        // probe exits at the first absent item.
        bool in_universe = true;
        for (ItemId item : s) {
          if (static_cast<size_t>(item) >= universe_) {
            in_universe = false;
            break;
          }
        }
        for (size_t j = 0; in_universe && j < bits_.size(); ++j) {
          bool contains_s = true;
          for (ItemId item : s) {
            if (!bits_[j].Test(item)) {
              contains_s = false;
              break;
            }
          }
          if (contains_s) positions.push_back(j);
        }
      }
    }
    if (positions.empty()) continue;

    std::vector<Itemset> superset_items;
    std::vector<DynamicBitset> superset_bits;
    superset_items.reserve(positions.size());
    superset_bits.reserve(positions.size());
    size_t next = 0;
    size_t write = positions[0];
    for (size_t j = write; j < items_.size(); ++j) {
      if (next < positions.size() && positions[next] == j) {
        total_item_count_ -= items_[j].size();
        superset_items.push_back(std::move(items_[j]));
        superset_bits.push_back(std::move(bits_[j]));
        ++next;
      } else {
        items_[write] = std::move(items_[j]);
        bits_[write] = std::move(bits_[j]);
        ++write;
      }
    }
    items_.resize(write);
    bits_.resize(write);
    index_stale_ = true;

    // Phase A (read-only, parallel-safe): every replacement m \ {e} and its
    // coverage against the elements present when its chunk starts; phase B
    // resolves the order-dependent remainder (replacements appended after
    // the chunk began) serially. Processing chunk by chunk bounds the work a
    // budget trip wastes to one chunk of precomputation.
    const size_t num_items_of_s = s.size();
    const size_t num_pairs = superset_items.size() * num_items_of_s;
    const size_t base = items_.size();
    // Which superset produced each element appended this split: replacements
    // of the same superset never cover one another (each keeps the item the
    // other dropped), so coverage scans skip them wholesale — without this
    // the self-split of a near-full element is quadratic in the universe.
    std::vector<size_t> appended_from;
    // Replacement queries are one item shorter than their largest superset.
    size_t max_superset_size = 0;
    for (const Itemset& m : superset_items) {
      max_superset_size = std::max(max_superset_size, m.size());
    }
    const size_t query_size = max_superset_size > 0 ? max_superset_size - 1 : 0;
    std::vector<SplitCandidate> candidates;
    std::vector<DynamicBitset> scratch;
    for (size_t chunk_begin = 0; chunk_begin < num_pairs;
         chunk_begin += kSplitChunkPairs) {
      const size_t chunk_end =
          std::min(chunk_begin + kSplitChunkPairs, num_pairs);
      const size_t chunk_size = chunk_end - chunk_begin;
      const size_t chunk_present = items_.size();
      candidates.clear();
      candidates.resize(chunk_size);
      {
        ScopedMsTimer timer(index_millis_);
        // One possible rebuild amortized over the whole chunk of coverage
        // queries, against a dense scan per query — with the win margin,
        // since the dense estimate ignores early exits and sibling skips.
        const size_t rebuild_cost =
            index_stale_ ? total_item_count_ + universe_ : 0;
        const size_t index_slot_words = chunk_present / 64 + 1;
        const bool query_via_index =
            (rebuild_cost + chunk_size * query_size * index_slot_words) *
                kIndexScatterPenalty * kIndexWinMargin <=
            chunk_size * chunk_present * universe_words;
        if (query_via_index) FreshenIndex();
        const bool check_mfs = !mfs.empty();
        // With a single superset every element appended this split is a
        // same-superset sibling; the dense scan can stop at the retained
        // elements instead of testing (and skipping) each appended one.
        const size_t dense_scan_end =
            superset_items.size() == 1 ? std::min(base, chunk_present)
                                       : chunk_present;
        const auto compute = [&](size_t offset, DynamicBitset& bits) {
          SplitCandidate& candidate = candidates[offset];
          const size_t pair = chunk_begin + offset;
          const size_t m = pair / num_items_of_s;
          const ItemId e = s[pair % num_items_of_s];
          if (superset_items[m].size() <= 1) {
            // e ∈ m, so the replacement is empty exactly for singleton m.
            candidate.empty_replacement = true;
            return;
          }
          // An MFS element covering the replacement must be at least as
          // large, so oversized replacements (the descent splits, where
          // they are near-universe-sized and the MFS holds short maximal
          // itemsets) skip both the query and the materialization.
          const bool mfs_can_cover =
              check_mfs &&
              superset_items[m].size() - 1 <= mfs.max_element_size();
          if (query_via_index || mfs_can_cover) {
            candidate.items = superset_items[m].WithoutItem(e);
          }
          bool covered = false;
          if (query_via_index) {
            covered = index_.ContainsSupersetOf(candidate.items);
          } else {
            bits = superset_bits[m];
            bits.Reset(e);
            for (size_t j = 0; j < dense_scan_end; ++j) {
              if (j >= base && appended_from[j - base] == m) continue;
              if (bits.IsSubsetOf(bits_[j])) {
                covered = true;
                break;
              }
            }
          }
          if (!covered && mfs_can_cover) {
            covered = mfs.CoveredBy(candidate.items);
          }
          candidate.covered = covered;
        };
        if (pool_ != nullptr && pool_->num_threads() > 1 &&
            chunk_size >= kParallelPairThreshold) {
          const size_t num_jobs =
              std::min(chunk_size, pool_->num_threads() * 4);
          const size_t job_size = (chunk_size + num_jobs - 1) / num_jobs;
          if (scratch.size() < num_jobs) scratch.resize(num_jobs);
          pool_->RunBatch(num_jobs, [&](size_t job) {
            const size_t begin = job * job_size;
            const size_t end = std::min(begin + job_size, chunk_size);
            for (size_t offset = begin; offset < end; ++offset) {
              compute(offset, scratch[job]);
            }
          });
        } else {
          if (scratch.empty()) scratch.resize(1);
          for (size_t offset = 0; offset < chunk_size; ++offset) {
            compute(offset, scratch[0]);
          }
        }
      }

      // Phase B (serial merge): replay the verdicts in pair order — identical
      // to the serial algorithm's element order, so the result is bit-for-bit
      // the same at any thread count, including the work accounting and the
      // exact element where an exceeded budget stops the update.
      for (size_t offset = 0; offset < chunk_size; ++offset) {
        SplitCandidate& candidate = candidates[offset];
        if (candidate.empty_replacement) continue;
        const size_t pair = chunk_begin + offset;
        const size_t m = pair / num_items_of_s;
        const ItemId e = s[pair % num_items_of_s];
        // The coverage check (phase A + the sibling scan below) visits the
        // element list and the MFS once per replacement.
        scan_steps += items_.size() + mfs.size() + 1;
        if (max_scan_steps > 0 && scan_steps > max_scan_steps) return false;
        if (candidate.covered) continue;
        candidate.bits = superset_bits[m];
        candidate.bits.Reset(e);
        // Phase A already checked everything present when the chunk began;
        // only elements appended since then remain, minus same-superset
        // siblings (never comparable) — with a single superset that is
        // everything, so the scan vanishes.
        bool covered_by_sibling = false;
        if (superset_items.size() > 1) {
          for (size_t j = chunk_present; j < items_.size(); ++j) {
            if (appended_from[j - base] == m) continue;
            if (candidate.bits.IsSubsetOf(bits_[j])) {
              covered_by_sibling = true;
              break;
            }
          }
        }
        if (covered_by_sibling) continue;
        if (candidate.items.empty()) {
          candidate.items = superset_items[m].WithoutItem(e);
        }
        appended_from.push_back(m);
        AppendElement(std::move(candidate.items), std::move(candidate.bits));
        if (max_elements > 0 && items_.size() > max_elements) {
          return false;
        }
      }
    }
  }
  PINCER_DCHECK(items_.size() > kAntichainDcheckLimit || IsAntichain(),
                "MFCS-gen left comparable elements after a completed update");
  return true;
}

void Mfcs::Clear() {
  items_.clear();
  bits_.clear();
  total_item_count_ = 0;
  index_.Clear();
  index_stale_ = true;
}

bool Mfcs::Remove(const Itemset& itemset) {
  auto it = std::find(items_.begin(), items_.end(), itemset);
  if (it == items_.end()) return false;
  const size_t index = static_cast<size_t>(it - items_.begin());
  total_item_count_ -= itemset.size();
  index_stale_ = true;
  items_.erase(it);
  bits_.erase(bits_.begin() + static_cast<long>(index));
  return true;
}

bool Mfcs::Covers(const Itemset& itemset, const Mfs& mfs) const {
  bool in_universe = true;
  for (ItemId item : itemset) {
    if (static_cast<size_t>(item) >= universe_) {
      in_universe = false;
      break;
    }
  }
  if (in_universe) {
    const DynamicBitset query = BitsOf(itemset);
    for (const DynamicBitset& bits : bits_) {
      if (query.IsSubsetOf(bits)) return true;
    }
  }
  return mfs.CoveredBy(itemset);
}

double Mfcs::ConsumeIndexMillis() {
  const double millis = index_millis_;
  index_millis_ = 0.0;
  return millis;
}

}  // namespace pincer
