#include "apriori/apriori_combined.h"

#include <algorithm>
#include <optional>

#include "apriori/apriori_gen.h"
#include "mining/mining_run.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pincer {

namespace {

// The shared driver; `resume` null mines from scratch, otherwise the run
// resumes from the checkpoint (rejected if stale). A level is booked only
// after its counting scan completes, so a scan aborted by the time budget
// leaves no trace of the in-flight level.
StatusOr<FrequentSetResult> AprioriCombinedRun(
    const TransactionDatabase& db, const MiningOptions& options,
    const CombinedPassOptions& combined, const Checkpoint* resume) {
  MiningRun run(db, options, "apriori-combined", combined.combine_threshold);
  FrequentSetResult result;
  const uint64_t min_count = db.MinSupportCount(options.min_support);
  std::vector<Itemset> lk;
  std::vector<std::pair<Itemset, uint64_t>> precounted;  // sorted by itemset
  size_t k = 1;
  if (resume != nullptr) {
    PINCER_RETURN_IF_ERROR(run.Resume(*resume));
    result.frequent = resume->frequent;
    lk = resume->live_candidates;
    precounted.reserve(resume->precounted.size());
    for (const FrequentItemset& fi : resume->precounted) {
      precounted.emplace_back(fi.itemset, fi.support);
    }
    k = static_cast<size_t>(resume->next_pass);
  }

  // The snapshot after each completed level. The optimistic next-level
  // counts ride along so a resumed run can consume them without re-reading
  // the database, exactly like the uninterrupted run.
  const auto emit_checkpoint = [&](size_t next_level) {
    run.EmitCheckpoint(next_level, [&](Checkpoint& checkpoint) {
      checkpoint.frequent = result.frequent;
      checkpoint.live_candidates = lk;
      checkpoint.precounted.reserve(precounted.size());
      for (const auto& [itemset, count] : precounted) {
        checkpoint.precounted.push_back({itemset, count});
      }
    });
  };
  const auto finish = [&]() {
    std::sort(result.frequent.begin(), result.frequent.end());
    result.stats = run.Finish();
    return std::move(result);
  };

  // Passes 1 and 2 are identical to plain Apriori (array fast paths).
  if (k <= 1) {
    PassStats pass;
    pass.pass = 1;
    pass.num_candidates = db.num_items();
    const std::optional<std::vector<uint64_t>> counts =
        run.CountItems(pass, /*array_fast_path=*/true);
    if (!counts.has_value()) return finish();
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if ((*counts)[item] >= min_count) {
        lk.push_back(Itemset{item});
        result.frequent.push_back({lk.back(), (*counts)[item]});
      }
    }
    pass.num_frequent = lk.size();
    run.RecordPass(pass);
    k = 2;
    emit_checkpoint(2);
  }

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
      lk = std::move(l2);
      emit_checkpoint(3);
    }
    k = 3;
  }

  // Levels >= 3, combining two levels per pass when C_k is small. When the
  // previous pass already counted this level optimistically, the counts are
  // consumed without a new database read.
  while (lk.size() >= 2) {
    double gen_ms = 0;
    std::vector<Itemset> candidates;
    {
      ScopedMsTimer gen_timer(gen_ms);
      candidates = AprioriGen(lk);
    }
    if (candidates.empty()) break;

    std::vector<uint64_t> counts(candidates.size(), 0);
    std::vector<bool> have_count(candidates.size(), false);
    if (!precounted.empty()) {
      // Candidates generated from L_k are a subset of the optimistic set
      // counted last pass; look counts up by binary search.
      for (size_t i = 0; i < candidates.size(); ++i) {
        auto it = std::lower_bound(
            precounted.begin(), precounted.end(), candidates[i],
            [](const auto& entry, const Itemset& value) {
              return entry.first < value;
            });
        if (it != precounted.end() && it->first == candidates[i]) {
          counts[i] = it->second;
          have_count[i] = true;
        }
      }
      precounted.clear();
    }

    const bool all_precounted =
        std::all_of(have_count.begin(), have_count.end(),
                    [](bool have) { return have; });

    if (!all_precounted) {
      // This level needs a real database pass. The cap bounds database
      // reads, not levels: a precounted level above consumed none.
      if (run.StopBeforePass()) break;
      // Decide whether to piggyback the optimistic next level onto it.
      std::vector<Itemset> batch = candidates;
      size_t optimistic_start = batch.size();
      if (candidates.size() <= combined.combine_threshold) {
        std::vector<Itemset> optimistic;
        {
          ScopedMsTimer gen_timer(gen_ms);
          optimistic = AprioriGen(candidates);
        }
        optimistic_start = batch.size();
        batch.insert(batch.end(),
                     std::make_move_iterator(optimistic.begin()),
                     std::make_move_iterator(optimistic.end()));
      }

      PassStats pass;
      pass.pass = k;
      pass.num_candidates = batch.size();
      pass.candidate_gen_ms = gen_ms;
      const std::optional<std::vector<uint64_t>> batch_counts =
          run.Count(batch, pass);
      if (!batch_counts.has_value()) break;

      for (size_t i = 0; i < candidates.size(); ++i) {
        counts[i] = (*batch_counts)[i];
        if (counts[i] >= min_count) ++pass.num_frequent;
      }
      for (size_t i = optimistic_start; i < batch.size(); ++i) {
        precounted.emplace_back(std::move(batch[i]), (*batch_counts)[i]);
      }
      // AprioriGen output is sorted, so precounted is sorted by itemset.
      run.RecordPass(pass);
    }

    std::vector<Itemset> next;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= min_count) {
        next.push_back(candidates[i]);
        result.frequent.push_back({candidates[i], counts[i]});
      }
    }
    if (options.verbose) {
      PINCER_LOG(kInfo) << "apriori-combined level " << k << ": "
                        << next.size() << "/" << candidates.size()
                        << " frequent" << (all_precounted ? " (no pass)" : "");
    }
    lk = std::move(next);
    ++k;
    emit_checkpoint(k);
  }

  return finish();
}

}  // namespace

FrequentSetResult AprioriCombinedMine(const TransactionDatabase& db,
                                      const MiningOptions& options,
                                      const CombinedPassOptions& combined) {
  // Without a checkpoint there is nothing to reject.
  return AprioriCombinedRun(db, options, combined, /*resume=*/nullptr).value();
}

StatusOr<FrequentSetResult> AprioriCombinedResume(
    const TransactionDatabase& db, const MiningOptions& options,
    const Checkpoint& checkpoint, const CombinedPassOptions& combined) {
  return AprioriCombinedRun(db, options, combined, &checkpoint);
}

}  // namespace pincer
