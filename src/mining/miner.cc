#include "mining/miner.h"

#include <algorithm>
#include <unordered_set>

#include "itemset/itemset_set.h"
#include "mining/mining_run.h"

namespace pincer {

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
      return "apriori";
    case Algorithm::kAprioriCombined:
      return "apriori-combined";
    case Algorithm::kPincer:
      return "pincer";
    case Algorithm::kPincerAdaptive:
      return "pincer-adaptive";
  }
  return "unknown";
}

StatusOr<Algorithm> ParseAlgorithm(std::string_view name) {
  if (name == "apriori") return Algorithm::kApriori;
  if (name == "apriori-combined") return Algorithm::kAprioriCombined;
  if (name == "pincer") return Algorithm::kPincer;
  if (name == "pincer-adaptive") return Algorithm::kPincerAdaptive;
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

MiningOptions EffectiveMiningOptions(MiningOptions options,
                                     Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
    case Algorithm::kAprioriCombined:
      break;
    case Algorithm::kPincer:
      options.mfcs_cardinality_limit = 0;
      break;
    case Algorithm::kPincerAdaptive:
      if (options.mfcs_cardinality_limit == 0) {
        options.mfcs_cardinality_limit = kDefaultMfcsCardinalityLimit;
      }
      if (options.mfcs_work_limit == 0) {
        options.mfcs_work_limit = kDefaultMfcsWorkLimit;
      }
      break;
  }
  return options;
}

std::string_view CheckpointAlgorithmId(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
      return "apriori";
    case Algorithm::kAprioriCombined:
      return "apriori-combined";
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      return "pincer";
  }
  return "unknown";
}

namespace {

// An Apriori driver's result with its frequent set as the supports. The
// combined variant's precounts outside the frequent set are infrequent:
// they failed the threshold or have an infrequent subset.
MaximalSetResult FromFrequentSet(FrequentSetResult full) {
  MaximalSetResult result;
  result.mfs = full.MaximalItemsets();
  result.stats = std::move(full.stats);
  for (FrequentItemset& fi : full.frequent) {
    result.supports.Record(std::move(fi.itemset), fi.support);
  }
  return result;
}

}  // namespace

MaximalSetResult MineMaximal(const TransactionDatabase& db,
                             const MiningOptions& options,
                             Algorithm algorithm) {
  const MiningOptions effective = EffectiveMiningOptions(options, algorithm);
  switch (algorithm) {
    case Algorithm::kApriori:
      return FromFrequentSet(AprioriMine(db, effective));
    case Algorithm::kAprioriCombined:
      return FromFrequentSet(AprioriCombinedMine(db, effective));
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      return PincerSearch(db, effective);
  }
  return MaximalSetResult{};
}

StatusOr<MaximalSetResult> ResumeMaximal(const TransactionDatabase& db,
                                         const MiningOptions& options,
                                         Algorithm algorithm,
                                         const Checkpoint& checkpoint) {
  const MiningOptions effective = EffectiveMiningOptions(options, algorithm);
  switch (algorithm) {
    case Algorithm::kApriori: {
      StatusOr<FrequentSetResult> full =
          AprioriResume(db, effective, checkpoint);
      if (!full.ok()) return full.status();
      return FromFrequentSet(std::move(*full));
    }
    case Algorithm::kAprioriCombined: {
      StatusOr<FrequentSetResult> full =
          AprioriCombinedResume(db, effective, checkpoint);
      if (!full.ok()) return full.status();
      return FromFrequentSet(std::move(*full));
    }
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      return PincerResume(db, effective, checkpoint);
  }
  return Status::InvalidArgument("unknown algorithm");
}

FrequentSetResult MineFrequent(const TransactionDatabase& db,
                               const MiningOptions& options) {
  return AprioriMine(db, options);
}

std::vector<FrequentItemset> ExpandToFrequentSet(
    const TransactionDatabase& db, const MaximalSetResult& maximal,
    const MiningOptions& options) {
  // Enumerate all distinct non-empty subsets of MFS elements.
  std::unordered_set<Itemset, ItemsetHash> seen;
  std::vector<Itemset> subsets;
  for (const FrequentItemset& element : maximal.mfs) {
    for (size_t k = 1; k <= element.itemset.size(); ++k) {
      for (Itemset& subset : element.itemset.SubsetsOfSize(k)) {
        if (seen.insert(subset).second) subsets.push_back(std::move(subset));
      }
    }
  }
  // One batch count over the database: a single pass with no way to report
  // an abort, so the time budget does not apply to it.
  MiningOptions expansion = options;
  expansion.time_budget_ms = 0;
  MiningRun run(db, expansion);
  const std::vector<uint64_t> counts = run.counter().CountSupports(subsets);

  std::vector<FrequentItemset> frequent;
  frequent.reserve(subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    frequent.push_back({subsets[i], counts[i]});
  }
  std::sort(frequent.begin(), frequent.end());
  return frequent;
}

}  // namespace pincer
