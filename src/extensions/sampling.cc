#include "extensions/sampling.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "apriori/apriori_gen.h"
#include "itemset/itemset_ops.h"
#include "itemset/itemset_set.h"
#include "mining/mining_run.h"
#include "util/prng.h"

namespace pincer {

std::vector<Itemset> NegativeBorder(const std::vector<Itemset>& family,
                                    size_t num_items) {
  const ItemsetSet members(family);
  std::vector<Itemset> border;

  // Level 1: items whose singleton is not in the family.
  std::vector<std::vector<Itemset>> by_level;
  for (const Itemset& itemset : family) {
    if (itemset.size() >= by_level.size() + 1) {
      by_level.resize(itemset.size());
    }
    by_level[itemset.size() - 1].push_back(itemset);
  }
  for (ItemId item = 0; item < num_items; ++item) {
    if (!members.Contains(Itemset{item})) border.push_back(Itemset{item});
  }

  // Level k >= 2: join the family's (k-1)-level, keep itemsets whose every
  // (k-1)-subset is in the family but which are not members themselves.
  for (size_t level = 1; level <= by_level.size(); ++level) {
    std::vector<Itemset> lower = by_level[level - 1];
    SortLexicographically(lower);
    for (Itemset& candidate : AprioriJoin(lower)) {
      if (members.Contains(candidate)) continue;
      bool all_subsets_in_family = true;
      for (size_t drop = 0; drop < candidate.size(); ++drop) {
        std::vector<ItemId> subset;
        for (size_t i = 0; i < candidate.size(); ++i) {
          if (i != drop) subset.push_back(candidate[i]);
        }
        if (!members.Contains(Itemset::FromSorted(std::move(subset)))) {
          all_subsets_in_family = false;
          break;
        }
      }
      if (all_subsets_in_family) border.push_back(std::move(candidate));
    }
  }
  SortLexicographically(border);
  border.erase(std::unique(border.begin(), border.end()), border.end());
  return border;
}

FrequentSetResult SamplingMine(const TransactionDatabase& db,
                               const MiningOptions& options,
                               const SamplingOptions& sampling) {
  MiningRun run(db, options);
  MiningStats& stats = run.stats();
  FrequentSetResult result;
  const uint64_t min_count = db.MinSupportCount(options.min_support);
  const auto finish = [&]() {
    result.stats = run.Finish();
    return std::move(result);
  };

  // Draw the sample.
  Prng prng(sampling.seed);
  TransactionDatabase sample(db.num_items());
  for (const Transaction& transaction : db.transactions()) {
    if (prng.Bernoulli(sampling.sample_fraction)) {
      sample.AddTransaction(transaction);
    }
  }
  if (sample.empty() && !db.empty()) {
    sample.AddTransaction(db.transaction(0));
  }

  // Mine the sample in memory at the lowered threshold, on this run's pool
  // and what is left of its budget.
  MiningOptions sample_options = run.NestedOptions();
  sample_options.min_support = options.min_support * sampling.lowered_factor;
  const FrequentSetResult sample_result = AprioriMine(sample, sample_options);
  run.Absorb(sample_result.stats);

  // Candidate family S (downward closed by construction).
  std::vector<Itemset> family = ItemsetsOf(sample_result.frequent);
  SortLexicographically(family);

  std::unordered_map<Itemset, uint64_t, ItemsetHash> supports;

  // One full-database pass over the batch's not yet counted itemsets; false
  // when the budget stopped it.
  auto count_batch = [&](const std::vector<Itemset>& batch) {
    std::vector<Itemset> uncounted;
    for (const Itemset& itemset : batch) {
      if (!supports.contains(itemset)) uncounted.push_back(itemset);
    }
    if (uncounted.empty()) return true;
    PassStats pass;
    pass.pass = stats.passes + 1;
    pass.num_candidates = uncounted.size();
    const std::optional<std::vector<uint64_t>> counts =
        run.Count(uncounted, pass);
    if (!counts.has_value()) return false;
    ++stats.passes;
    stats.reported_candidates += uncounted.size();
    stats.total_candidates += uncounted.size();
    for (size_t i = 0; i < uncounted.size(); ++i) {
      if ((*counts)[i] >= min_count) ++pass.num_frequent;
      supports.emplace(std::move(uncounted[i]), (*counts)[i]);
    }
    stats.per_pass.push_back(pass);
    return true;
  };

  // Verify S plus its negative border; extend on misses.
  for (size_t round = 0; round < sampling.max_correction_rounds; ++round) {
    if (run.BudgetExpired()) return finish();
    std::vector<Itemset> border = NegativeBorder(family, db.num_items());
    std::vector<Itemset> batch = family;
    batch.insert(batch.end(), border.begin(), border.end());
    if (!count_batch(batch)) return finish();

    std::vector<Itemset> misses;
    for (const Itemset& itemset : border) {
      if (supports.at(itemset) >= min_count) misses.push_back(itemset);
    }
    if (misses.empty()) {
      // Toivonen's guarantee: with no frequent border itemset, every
      // frequent itemset of the database is in S.
      for (const Itemset& itemset : family) {
        const uint64_t count = supports.at(itemset);
        if (count >= min_count) result.frequent.push_back({itemset, count});
      }
      std::sort(result.frequent.begin(), result.frequent.end());
      return finish();
    }
    // Extend the family (still downward closed: each miss's subsets are in
    // it) and retry.
    family.insert(family.end(), misses.begin(), misses.end());
    SortLexicographically(family);
  }

  // Safety valve: exact fallback if the correction loop did not converge.
  // The correction rounds did real full-database work, so the fallback's
  // passes are appended to theirs in execution order, pass numbers
  // shifted, and every counter accumulates.
  FrequentSetResult fallback = AprioriMine(db, run.NestedOptions());
  run.Absorb(fallback.stats);
  for (PassStats& pass : fallback.stats.per_pass) {
    pass.pass += stats.passes;
    stats.per_pass.push_back(std::move(pass));
  }
  stats.passes += fallback.stats.passes;
  stats.reported_candidates += fallback.stats.reported_candidates;
  stats.total_candidates += fallback.stats.total_candidates;
  result.frequent = std::move(fallback.frequent);
  return finish();
}

}  // namespace pincer
