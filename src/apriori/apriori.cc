#include "apriori/apriori.h"

#include <algorithm>
#include <optional>

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

// The shared driver. `resume` null mines from scratch; otherwise the run
// resumes from the checkpoint (rejected if stale) at its next_pass. A pass
// is booked only after its counting scan completes, so a scan aborted by
// the time budget leaves no trace of the in-flight pass.
StatusOr<FrequentSetResult> AprioriRun(const TransactionDatabase& db,
                                       const MiningOptions& options,
                                       const Checkpoint* resume) {
  MiningRun run(db, options, "apriori");
  FrequentSetResult result;
  const uint64_t min_count = db.MinSupportCount(options.min_support);
  // `lk` is the current level: frequent 1-itemsets after pass 1, then L_k.
  std::vector<Itemset> lk;
  size_t k = 1;
  if (resume != nullptr) {
    PINCER_RETURN_IF_ERROR(run.Resume(*resume));
    result.frequent = resume->frequent;
    lk = resume->live_candidates;
    k = static_cast<size_t>(resume->next_pass);
  }

  // The snapshot after each completed pass: the frequent set so far plus
  // L_k, everything the next pass depends on.
  const auto emit_checkpoint = [&](size_t next_pass) {
    run.EmitCheckpoint(next_pass, [&](Checkpoint& checkpoint) {
      checkpoint.frequent = result.frequent;
      checkpoint.live_candidates = lk;
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
    const std::optional<std::vector<uint64_t>> counts =
        run.CountItems(pass, options.use_array_fast_path);
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
      PINCER_LOG(kInfo) << "apriori pass 1: " << lk.size() << "/"
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

      std::vector<Itemset> l2;
      if (options.use_array_fast_path) {
        PairCountMatrix matrix(frequent_items);
        if (!run.CountPairs(matrix, pass)) return finish();
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
      } else {
        std::vector<Itemset> pairs;
        pairs.reserve(pass.num_candidates);
        for (size_t i = 0; i < frequent_items.size(); ++i) {
          for (size_t j = i + 1; j < frequent_items.size(); ++j) {
            pairs.push_back(Itemset{frequent_items[i], frequent_items[j]});
          }
        }
        const std::optional<std::vector<uint64_t>> counts =
            run.Count(pairs, pass);
        if (!counts.has_value()) return finish();
        for (size_t i = 0; i < pairs.size(); ++i) {
          if ((*counts)[i] >= min_count) {
            l2.push_back(pairs[i]);
            result.frequent.push_back({pairs[i], (*counts)[i]});
          }
        }
      }
      pass.num_frequent = l2.size();
      run.RecordPass(pass);
      if (options.verbose) {
        PINCER_LOG(kInfo) << "apriori pass 2: " << l2.size() << "/"
                          << pass.num_candidates << " pairs frequent";
      }
      lk = std::move(l2);
      emit_checkpoint(3);
    }
    k = 3;
  }

  // ---- Passes k >= 3: Apriori-gen + backend counting.
  while (lk.size() >= 2) {
    double gen_ms = 0;
    std::vector<Itemset> candidates;
    {
      ScopedMsTimer gen_timer(gen_ms);
      candidates = AprioriGen(lk);
    }
    if (candidates.empty()) break;
    // Ordered after the termination test so a complete run is never
    // reported aborted, and after generation, which with millions of
    // candidates can overshoot the budget on its own.
    if (run.StopBeforePass()) break;

    PassStats pass;
    pass.pass = k;
    pass.num_candidates = candidates.size();
    pass.candidate_gen_ms = gen_ms;
    const std::optional<std::vector<uint64_t>> counts =
        run.Count(candidates, pass);
    if (!counts.has_value()) break;
    std::vector<Itemset> next;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*counts)[i] >= min_count) {
        next.push_back(candidates[i]);
        result.frequent.push_back({candidates[i], (*counts)[i]});
      }
    }
    pass.num_frequent = next.size();
    run.RecordPass(pass);
    if (options.verbose) {
      PINCER_LOG(kInfo) << "apriori pass " << k << ": " << next.size() << "/"
                        << candidates.size() << " candidates frequent";
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
  return AprioriRun(db, options, /*resume=*/nullptr).value();
}

StatusOr<FrequentSetResult> AprioriResume(const TransactionDatabase& db,
                                          const MiningOptions& options,
                                          const Checkpoint& checkpoint) {
  return AprioriRun(db, options, &checkpoint);
}

}  // namespace pincer
