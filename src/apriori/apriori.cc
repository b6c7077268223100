#include "apriori/apriori.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>

#include "apriori/apriori_gen.h"
#include "core/mfs.h"
#include "mining/mining_run.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pincer {

std::vector<FrequentItemset> FrequentSetResult::MaximalItemsets() const {
  return MaximalOf(frequent);
}

namespace {

// Level k's counts from the last pass's optimistic precounts, which hold
// AprioriGen(C_{k-1}) ⊇ AprioriGen(L_{k-1}) sorted by itemset. Empty when a
// candidate is missing, which only a checkpoint written elsewhere can
// cause; the level then gets a pass of its own.
std::vector<uint64_t> LookUpPrecounts(
    const std::vector<Itemset>& candidates,
    const std::vector<FrequentItemset>& precounted) {
  std::vector<uint64_t> counts;
  counts.reserve(candidates.size());
  for (const Itemset& candidate : candidates) {
    const auto it = std::lower_bound(
        precounted.begin(), precounted.end(), candidate,
        [](const FrequentItemset& entry, const Itemset& value) {
          return entry.itemset < value;
        });
    if (it == precounted.end() || it->itemset != candidate) return {};
    counts.push_back(it->support);
  }
  return counts;
}

// The one driver of both variants: `combine_threshold` 0 is plain Apriori,
// kCombineThreshold the combined-pass variant. `resume` null mines from
// scratch; otherwise the run resumes from the checkpoint (rejected if
// stale) at its next_pass. A pass is booked only after its counting scan
// completes, so a scan aborted by the time budget leaves no trace of the
// in-flight pass.
StatusOr<FrequentSetResult> AprioriRun(const TransactionDatabase& db,
                                       const MiningOptions& options,
                                       size_t combine_threshold,
                                       const Checkpoint* resume) {
  const std::string_view algorithm =
      combine_threshold > 0 ? "apriori-combined" : "apriori";
  MiningRun run(db, options, algorithm);
  FrequentSetResult result;
  const uint64_t min_count = db.MinSupportCount(options.min_support);
  // `lk` is the current level: frequent 1-itemsets after pass 1, then L_k.
  std::vector<Itemset> lk;
  // The optimistic next level a combined pass counted, sorted by itemset.
  std::vector<FrequentItemset> precounted;
  size_t k = 1;
  if (resume != nullptr) {
    PINCER_RETURN_IF_ERROR(run.Resume(*resume));
    result.frequent = resume->frequent;
    lk = resume->live_candidates;
    precounted = resume->precounted;
    k = static_cast<size_t>(resume->next_pass);
  }

  // The snapshot after each completed level: the frequent set so far plus
  // L_k, everything the next level depends on. The optimistic next-level
  // counts ride along, so a resumed run consumes them without re-reading
  // the database, exactly like the uninterrupted run.
  const auto emit_checkpoint = [&](size_t next_pass) {
    run.EmitCheckpoint(next_pass, [&](Checkpoint& checkpoint) {
      checkpoint.frequent = result.frequent;
      checkpoint.live_candidates = lk;
      checkpoint.precounted = precounted;
    });
  };
  const auto finish = [&]() {
    std::sort(result.frequent.begin(), result.frequent.end());
    result.stats = run.Finish();
    return std::move(result);
  };

  // ---- Pass 1: 1-itemsets.
  if (k <= 1) {
    PassStats pass;
    pass.pass = 1;
    pass.num_candidates = db.num_items();
    const std::optional<std::vector<uint64_t>> counts = run.CountItems(pass);
    if (!counts.has_value()) return finish();
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if ((*counts)[item] >= min_count) {
        lk.push_back(Itemset{item});
        result.frequent.push_back({lk.back(), (*counts)[item]});
      }
    }
    pass.num_frequent = lk.size();
    run.RecordPass(pass);
    if (options.verbose) {
      PINCER_LOG(kInfo) << algorithm << " pass 1: " << lk.size() << "/"
                        << db.num_items() << " items frequent";
    }
    k = 2;
    emit_checkpoint(2);
  }

  // ---- Pass 2: 2-itemsets via the triangular array (no generation step).
  if (k == 2) {
    if (lk.size() >= 2) {
      if (run.PassCapReached()) return finish();
      PassStats pass;
      pass.pass = 2;
      std::vector<ItemId> frequent_items;
      frequent_items.reserve(lk.size());
      for (const Itemset& single : lk) frequent_items.push_back(single[0]);
      pass.num_candidates = lk.size() * (lk.size() - 1) / 2;
      // Until pass 2 books its pairs, the frequent set is L_1.
      std::vector<uint64_t> supports;
      supports.reserve(result.frequent.size());
      for (const FrequentItemset& fi : result.frequent) {
        supports.push_back(fi.support);
      }
      PairCountMatrix matrix(frequent_items);
      if (!run.CountPairs(matrix, supports, pass)) return finish();
      std::vector<Itemset> l2;
      for (size_t i = 0; i < frequent_items.size(); ++i) {
        for (size_t j = i + 1; j < frequent_items.size(); ++j) {
          const uint64_t count =
              matrix.PairCount(frequent_items[i], frequent_items[j]);
          if (count >= min_count) {
            l2.push_back(Itemset{frequent_items[i], frequent_items[j]});
            result.frequent.push_back({l2.back(), count});
          }
        }
      }
      pass.num_frequent = l2.size();
      run.RecordPass(pass);
      if (options.verbose) {
        PINCER_LOG(kInfo) << algorithm << " pass 2: " << l2.size() << "/"
                          << pass.num_candidates << " pairs frequent";
      }
      lk = std::move(l2);
      emit_checkpoint(3);
    }
    k = 3;
  }

  // ---- Levels k >= 3: Apriori-gen, then a database pass unless the last
  // pass already counted this level optimistically.
  while (lk.size() >= 2) {
    double gen_ms = 0;
    std::vector<Itemset> candidates;
    {
      ScopedMsTimer gen_timer(gen_ms);
      candidates = AprioriGen(lk);
    }
    if (candidates.empty()) break;
    const size_t level_size = candidates.size();

    std::vector<uint64_t> counts;
    if (!precounted.empty()) {
      counts = LookUpPrecounts(candidates, precounted);
      precounted.clear();
    }
    const bool reads_database = counts.empty();
    PassStats pass;
    if (reads_database) {
      // Ordered after the termination test so a complete run is never
      // reported aborted, and after generation, which with millions of
      // candidates can overshoot the budget on its own. The cap bounds
      // database reads, not levels: a precounted level consumed none.
      if (run.StopBeforePass()) break;
      // Combining: the optimistic C_{k+1} rides along in the same read.
      if (level_size <= combine_threshold) {
        ScopedMsTimer gen_timer(gen_ms);
        std::vector<Itemset> optimistic = AprioriGen(candidates);
        candidates.insert(candidates.end(),
                          std::make_move_iterator(optimistic.begin()),
                          std::make_move_iterator(optimistic.end()));
      }
      pass.pass = k;
      pass.num_candidates = candidates.size();
      pass.candidate_gen_ms = gen_ms;
      std::optional<std::vector<uint64_t>> batch_counts =
          run.Count(candidates, pass);
      if (!batch_counts.has_value()) break;
      counts = std::move(*batch_counts);
      // AprioriGen output is sorted, so the precounts are too.
      for (size_t i = level_size; i < candidates.size(); ++i) {
        precounted.push_back({std::move(candidates[i]), counts[i]});
      }
      candidates.erase(candidates.begin() + level_size, candidates.end());
    }

    std::vector<Itemset> next;
    for (size_t i = 0; i < level_size; ++i) {
      if (counts[i] >= min_count) {
        next.push_back(candidates[i]);
        result.frequent.push_back({candidates[i], counts[i]});
      }
    }
    if (reads_database) {
      pass.num_frequent = next.size();
      run.RecordPass(std::move(pass));
    }
    if (options.verbose) {
      PINCER_LOG(kInfo) << algorithm << " level " << k << ": " << next.size()
                        << "/" << level_size << " candidates frequent"
                        << (reads_database ? "" : " (no pass)");
    }
    lk = std::move(next);
    ++k;
    emit_checkpoint(k);
  }

  return finish();
}

}  // namespace

FrequentSetResult AprioriMine(const TransactionDatabase& db,
                              const MiningOptions& options) {
  // Without a checkpoint there is nothing to reject.
  return AprioriRun(db, options, /*combine_threshold=*/0, /*resume=*/nullptr)
      .value();
}

StatusOr<FrequentSetResult> AprioriResume(const TransactionDatabase& db,
                                          const MiningOptions& options,
                                          const Checkpoint& checkpoint) {
  return AprioriRun(db, options, /*combine_threshold=*/0, &checkpoint);
}

FrequentSetResult AprioriCombinedMine(const TransactionDatabase& db,
                                      const MiningOptions& options) {
  return AprioriRun(db, options, kCombineThreshold, /*resume=*/nullptr)
      .value();
}

StatusOr<FrequentSetResult> AprioriCombinedResume(
    const TransactionDatabase& db, const MiningOptions& options,
    const Checkpoint& checkpoint) {
  return AprioriRun(db, options, kCombineThreshold, &checkpoint);
}

}  // namespace pincer
