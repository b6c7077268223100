#include "testing/differential.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "apriori/apriori.h"
#include "apriori/apriori_combined.h"
#include "core/pincer_search.h"
#include "counting/counter_factory.h"
#include "counting/support_counter.h"
#include "extensions/partition.h"
#include "extensions/sampling.h"
#include "testing/brute_force.h"
#include "util/thread_pool.h"

namespace pincer {

std::string_view DifferentialMinerName(DifferentialConfig::Miner miner) {
  switch (miner) {
    case DifferentialConfig::Miner::kApriori:
      return "apriori";
    case DifferentialConfig::Miner::kAprioriCombined:
      return "apriori-combined";
    case DifferentialConfig::Miner::kPincer:
      return "pincer";
    case DifferentialConfig::Miner::kPartition:
      return "partition";
    case DifferentialConfig::Miner::kSampling:
      return "sampling";
  }
  return "unknown";
}

std::string DifferentialConfig::Label() const {
  std::ostringstream os;
  os << DifferentialMinerName(miner) << '/'
     << CounterBackendName(options.backend) << "/s" << options.min_support
     << "/t" << options.num_threads
     << (options.use_array_fast_path ? "/fast" : "/nofast");
  if (miner == Miner::kPincer) os << "/mfcs" << options.mfcs_cardinality_limit;
  if (miner == Miner::kPartition) os << "/p" << num_partitions;
  if (miner == Miner::kSampling) {
    os << "/f" << sample_fraction << "/seed" << sampling_seed;
  }
  return os.str();
}

std::vector<DifferentialConfig> BuildConfigGrid(const DifferentialGrid& grid) {
  using Miner = DifferentialConfig::Miner;
  std::vector<DifferentialConfig> configs;
  std::vector<bool> fast_settings = {true};
  if (grid.include_fast_path_off) fast_settings.push_back(false);

  for (double support : grid.min_supports) {
    for (size_t threads : grid.thread_counts) {
      for (CounterBackend backend : AllCounterBackends()) {
        MiningOptions base;
        base.min_support = support;
        base.backend = backend;
        base.num_threads = threads;

        for (bool fast : fast_settings) {
          MiningOptions options = base;
          options.use_array_fast_path = fast;

          DifferentialConfig apriori;
          apriori.miner = Miner::kApriori;
          apriori.options = options;
          configs.push_back(apriori);

          for (size_t limit : grid.mfcs_limits) {
            DifferentialConfig pincer;
            pincer.miner = Miner::kPincer;
            pincer.options = options;
            pincer.options.mfcs_cardinality_limit = limit;
            configs.push_back(pincer);
          }
        }

        // The combined-pass miner has no fast-path toggle: passes 1-2 are
        // always the array paths.
        DifferentialConfig combined;
        combined.miner = Miner::kAprioriCombined;
        combined.options = base;
        configs.push_back(combined);

        if (grid.include_extensions) {
          for (size_t partitions : grid.partition_counts) {
            DifferentialConfig partition;
            partition.miner = Miner::kPartition;
            partition.options = base;
            partition.num_partitions = partitions;
            configs.push_back(partition);
          }
          DifferentialConfig sampling;
          sampling.miner = Miner::kSampling;
          sampling.options = base;
          configs.push_back(sampling);
        }
      }
    }
  }
  return configs;
}

namespace {

// The quoted-key needle `"key":`.
std::string KeyNeedle(std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle.push_back('"');
  needle.append(key);
  needle.append("\":");
  return needle;
}

// Locates `"key":` at the top nesting level it first appears at and parses
// the following number. The schema-v1 document emits every top-level scalar
// before the nested "counting" object and "per_pass" array, so a first-match
// scan is unambiguous for the keys validated here.
std::optional<double> FindJsonNumber(const std::string& json,
                                     std::string_view key) {
  const std::string needle = KeyNeedle(key);
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = json.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return value;
}

std::optional<bool> FindJsonBool(const std::string& json,
                                 std::string_view key) {
  const std::string needle = KeyNeedle(key);
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < json.size() && (json[pos] == ' ' || json[pos] == '\n')) ++pos;
  if (json.compare(pos, 4, "true") == 0) return true;
  if (json.compare(pos, 5, "false") == 0) return false;
  return std::nullopt;
}

size_t CountJsonKey(const std::string& json, std::string_view key) {
  const std::string needle = KeyNeedle(key);
  size_t count = 0;
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string DescribeDifference(const std::vector<FrequentItemset>& got,
                               const std::vector<FrequentItemset>& want) {
  std::ostringstream os;
  os << "got " << got.size() << " itemset(s), want " << want.size();
  const size_t common = std::min(got.size(), want.size());
  for (size_t i = 0; i < common; ++i) {
    if (!(got[i] == want[i])) {
      os << "; first difference at index " << i << ": got " << got[i]
         << ", want " << want[i];
      return os.str();
    }
  }
  if (got.size() > want.size()) {
    os << "; first extra: " << got[common];
  } else if (want.size() > got.size()) {
    os << "; first missing: " << want[common];
  }
  return os.str();
}

}  // namespace

std::vector<std::string> CheckStatsInvariants(const MiningStats& stats,
                                              const StatsExpectations& expect,
                                              std::string_view context) {
  std::vector<std::string> violations;
  auto fail = [&](const std::string& message) {
    violations.push_back(std::string(context) + ": " + message);
  };
  auto number = [](uint64_t value) { return std::to_string(value); };

  if (stats.per_pass.size() != stats.passes) {
    fail("per_pass has " + number(stats.per_pass.size()) +
         " record(s) but passes = " + number(stats.passes));
  }
  uint64_t sum_candidates = 0;
  uint64_t sum_mfcs = 0;
  uint64_t reported_tail = 0;
  size_t last_pass_number = 0;
  for (const PassStats& pass : stats.per_pass) {
    if (pass.pass <= last_pass_number) {
      fail("pass numbers not strictly increasing at pass record " +
           number(pass.pass));
    }
    last_pass_number = pass.pass;
    if (pass.num_frequent > pass.num_candidates) {
      fail("pass " + number(pass.pass) + " reports " +
           number(pass.num_frequent) + " frequent out of " +
           number(pass.num_candidates) + " candidates");
    }
    if (pass.candidate_gen_ms < 0 || pass.counting_ms < 0 ||
        pass.mfcs_update_ms < 0 || pass.mfcs_index_ms < 0) {
      fail("pass " + number(pass.pass) + " has a negative phase timer");
    }
    // backend_used names the backend that actually served the pass: a
    // concrete CounterBackendName, or "array" for fast-path-only passes.
    // "auto" in particular must never appear — kAuto builds a concrete
    // engine, which reports itself.
    if (pass.backend_used != "array" && pass.backend_used != "linear" &&
        pass.backend_used != "hash_tree" && pass.backend_used != "trie" &&
        pass.backend_used != "vertical") {
      fail("pass " + number(pass.pass) + " has invalid backend_used \"" +
           pass.backend_used + "\"");
    }
    sum_candidates += pass.num_candidates;
    sum_mfcs += pass.num_mfcs_candidates;
    if (pass.pass >= 3) reported_tail += pass.num_candidates;
  }
  if (sum_candidates + sum_mfcs != stats.total_candidates) {
    fail("per-pass candidates sum to " + number(sum_candidates + sum_mfcs) +
         " but total_candidates = " + number(stats.total_candidates));
  }
  if (sum_mfcs != stats.mfcs_candidates) {
    fail("per-pass MFCS candidates sum to " + number(sum_mfcs) +
         " but mfcs_candidates = " + number(stats.mfcs_candidates));
  }
  if (expect.paper_candidate_convention &&
      stats.reported_candidates != reported_tail + stats.mfcs_candidates) {
    fail("reported_candidates = " + number(stats.reported_candidates) +
         " violates the §4.1.1 convention (pass >= 3 candidates " +
         number(reported_tail) + " + MFCS " + number(stats.mfcs_candidates) +
         ")");
  }
  if (stats.reported_candidates > stats.total_candidates) {
    fail("reported_candidates " + number(stats.reported_candidates) +
         " exceeds total_candidates " + number(stats.total_candidates));
  }
  const size_t resolved =
      ThreadPool::ResolveThreadCount(expect.requested_threads);
  if (stats.num_threads != resolved) {
    fail("num_threads = " + number(stats.num_threads) +
         " does not echo the requested " + number(expect.requested_threads) +
         " (resolves to " + number(resolved) + ")");
  }
  if (!expect.allow_aborted && stats.aborted) {
    fail("aborted = true without a time budget or pass cap");
  }
  if (stats.budget_exceeded && !stats.aborted) {
    fail("budget_exceeded = true but aborted = false");
  }
  if (expect.abort_implies_budget && stats.aborted &&
      !stats.budget_exceeded) {
    fail("aborted = true under a time budget (no pass cap) but "
         "budget_exceeded = false — the between-pass check and the scan "
         "polls disagree about the ScanBudget latch");
  }
  if (stats.mfcs_disabled) {
    if (stats.mfcs_disabled_at_pass < 1 ||
        stats.mfcs_disabled_at_pass > std::max<size_t>(stats.passes, 1)) {
      fail("mfcs_disabled_at_pass = " + number(stats.mfcs_disabled_at_pass) +
           " outside [1, passes]");
    }
  } else if (stats.mfcs_disabled_at_pass != 0) {
    fail("mfcs_disabled_at_pass nonzero without mfcs_disabled");
  }
  if (stats.elapsed_millis < 0) fail("negative elapsed_millis");

  // Schema-v1 JSON truthfulness: the document must carry the same numbers
  // as the struct it serializes.
  const std::string json = stats.ToJsonString();
  auto check_number = [&](std::string_view key, double want) {
    const std::optional<double> got = FindJsonNumber(json, key);
    if (!got.has_value()) {
      fail("stats JSON missing \"" + std::string(key) + "\"");
    } else if (*got != want) {
      std::ostringstream os;
      os << "stats JSON \"" << key << "\" = " << *got << ", struct has "
         << want;
      fail(os.str());
    }
  };
  auto check_bool = [&](std::string_view key, bool want) {
    const std::optional<bool> got = FindJsonBool(json, key);
    if (!got.has_value()) {
      fail("stats JSON missing \"" + std::string(key) + "\"");
    } else if (*got != want) {
      fail("stats JSON \"" + std::string(key) + "\" disagrees with struct");
    }
  };
  check_number("passes", static_cast<double>(stats.passes));
  check_number("reported_candidates",
               static_cast<double>(stats.reported_candidates));
  check_number("total_candidates", static_cast<double>(stats.total_candidates));
  check_number("mfcs_candidates", static_cast<double>(stats.mfcs_candidates));
  check_number("num_threads", static_cast<double>(stats.num_threads));
  check_number("mfcs_disabled_at_pass",
               static_cast<double>(stats.mfcs_disabled_at_pass));
  check_number("retries", static_cast<double>(stats.retries));
  check_number("rows_skipped", static_cast<double>(stats.rows_skipped));
  check_number("rows_dropped_items",
               static_cast<double>(stats.rows_dropped_items));
  check_bool("aborted", stats.aborted);
  check_bool("budget_exceeded", stats.budget_exceeded);
  check_bool("mfcs_disabled", stats.mfcs_disabled);
  if (CountJsonKey(json, "pass") != stats.per_pass.size()) {
    fail("stats JSON per_pass array has " +
         number(CountJsonKey(json, "pass")) + " object(s), struct has " +
         number(stats.per_pass.size()));
  }
  if (CountJsonKey(json, "backend_used") != stats.per_pass.size()) {
    fail("stats JSON emits " + number(CountJsonKey(json, "backend_used")) +
         " backend_used value(s) for " + number(stats.per_pass.size()) +
         " pass record(s)");
  }
  return violations;
}

std::string DifferentialReport::Summary() const {
  std::ostringstream os;
  os << configs_run << " config(s) across " << databases << " database(s), "
     << index_item_counts << " pass-1 count(s) from the index and "
     << array_item_counts << " from the array, " << index_pair_fills
     << " pass-2 index fill(s) and " << array_pair_fills
     << " array fill(s) under an index: ";
  if (failures.empty()) {
    os << "all agree with the oracle";
    return os.str();
  }
  os << failures.size() << " divergence(s)";
  const size_t shown = std::min<size_t>(failures.size(), 10);
  for (size_t i = 0; i < shown; ++i) os << "\n  " << failures[i];
  if (failures.size() > shown) {
    os << "\n  ... and " << failures.size() - shown << " more";
  }
  return os.str();
}

namespace {

struct Oracle {
  std::vector<FrequentItemset> frequent;
  std::vector<FrequentItemset> maximal;
};

}  // namespace

void RunConfigsOnDatabase(const TransactionDatabase& db,
                          std::string_view db_label,
                          const std::vector<DifferentialConfig>& configs,
                          DifferentialReport& report) {
  using Miner = DifferentialConfig::Miner;
  ++report.databases;

  // One oracle per distinct min-support level (the grid reuses exact
  // double values, so keying on the raw double is safe).
  std::unordered_map<double, Oracle> oracles;
  auto oracle_for = [&](double min_support) -> const Oracle& {
    auto [it, inserted] = oracles.try_emplace(min_support);
    if (inserted) {
      it->second.frequent = BruteForceFrequent(db, min_support);
      it->second.maximal = BruteForceMaximal(db, min_support);
    }
    return it->second;
  };

  for (const DifferentialConfig& config : configs) {
    ++report.configs_run;
    const std::string context =
        std::string(db_label) + "/" + config.Label();
    const Oracle& oracle = oracle_for(config.options.min_support);

    StatsExpectations expect;
    expect.requested_threads = config.options.num_threads;
    expect.allow_aborted = config.options.time_budget_ms > 0 ||
                           config.options.max_passes > 0;
    expect.paper_candidate_convention =
        config.miner != Miner::kPartition && config.miner != Miner::kSampling;
    expect.abort_implies_budget = config.options.time_budget_ms > 0 &&
                                  config.options.max_passes == 0;

    auto check_frequent = [&](const std::vector<FrequentItemset>& got) {
      if (got != oracle.frequent) {
        report.failures.push_back(
            context + ": frequent set diverges from oracle (" +
            DescribeDifference(got, oracle.frequent) + ")");
      }
    };
    auto check_maximal = [&](const std::vector<FrequentItemset>& got) {
      if (got != oracle.maximal) {
        report.failures.push_back(context + ": MFS diverges from oracle (" +
                                  DescribeDifference(got, oracle.maximal) +
                                  ")");
      }
    };
    auto check_stats = [&](const MiningStats& stats) {
      std::vector<std::string> violations =
          CheckStatsInvariants(stats, expect, context);
      report.failures.insert(report.failures.end(),
                             std::make_move_iterator(violations.begin()),
                             std::make_move_iterator(violations.end()));
      // Every sweep database's vertical index fits kAuto's memory cap, so
      // each auto pass counts through the index or the arrays, never the
      // trie.
      if (config.options.backend != CounterBackend::kAuto) return;
      for (const PassStats& pass : stats.per_pass) {
        if (pass.backend_used != "vertical" && pass.backend_used != "array") {
          report.failures.push_back(context + ": auto pass " +
                                    std::to_string(pass.pass) + " recorded \"" +
                                    pass.backend_used + "\"");
        }
      }
    };
    // Passes 1 and 2 of an Apriori driver make no other counter call, so
    // their backend_used names where the counts came from.
    auto tally_fast_passes = [&](const MiningStats& stats) {
      if (!config.options.use_array_fast_path) return;
      const bool holds_index =
          config.options.backend == CounterBackend::kVertical ||
          config.options.backend == CounterBackend::kAuto;
      for (const PassStats& pass : stats.per_pass) {
        if (pass.pass > 2) break;
        const std::string& used = pass.backend_used;
        if (!holds_index && used != "array") {
          report.failures.push_back(context + ": pass " +
                                    std::to_string(pass.pass) + " recorded \"" +
                                    used + "\" without a vertical index");
        }
        if (pass.pass == 1) {
          if (used == "vertical") ++report.index_item_counts;
          if (used == "array") ++report.array_item_counts;
        } else if (holds_index) {
          if (used == "vertical") ++report.index_pair_fills;
          if (used == "array") ++report.array_pair_fills;
        }
      }
    };

    switch (config.miner) {
      case Miner::kApriori: {
        const FrequentSetResult result = AprioriMine(db, config.options);
        check_frequent(result.frequent);
        check_maximal(result.MaximalItemsets());
        check_stats(result.stats);
        tally_fast_passes(result.stats);
        break;
      }
      case Miner::kAprioriCombined: {
        const FrequentSetResult result =
            AprioriCombinedMine(db, config.options);
        check_frequent(result.frequent);
        check_maximal(result.MaximalItemsets());
        check_stats(result.stats);
        tally_fast_passes(result.stats);
        break;
      }
      case Miner::kPincer: {
        const MaximalSetResult result = PincerSearch(db, config.options);
        check_maximal(result.mfs);
        check_stats(result.stats);
        for (const FrequentItemset& fi : result.mfs) {
          if (result.supports.Lookup(fi.itemset) != fi.support) {
            report.failures.push_back(context + ": result.supports lacks " +
                                      fi.itemset.ToString() + "'s support");
          }
        }
        break;
      }
      case Miner::kPartition: {
        PartitionOptions popts;
        popts.num_partitions = config.num_partitions;
        const FrequentSetResult result =
            PartitionMine(db, config.options, popts);
        check_frequent(result.frequent);
        check_maximal(result.MaximalItemsets());
        check_stats(result.stats);
        break;
      }
      case Miner::kSampling: {
        SamplingOptions sopts;
        sopts.sample_fraction = config.sample_fraction;
        sopts.seed = config.sampling_seed;
        const FrequentSetResult result =
            SamplingMine(db, config.options, sopts);
        check_frequent(result.frequent);
        check_stats(result.stats);
        break;
      }
    }
  }
}

DifferentialReport RunDifferentialSweep(const std::vector<QuestParams>& shapes,
                                        const DifferentialGrid& grid) {
  DifferentialReport report;
  const std::vector<DifferentialConfig> configs = BuildConfigGrid(grid);
  for (const QuestParams& shape : shapes) {
    const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(shape);
    if (!db.ok()) {
      report.failures.push_back(shape.Name() + ": generation failed: " +
                                db.status().ToString());
      continue;
    }
    RunConfigsOnDatabase(
        *db, shape.Name() + "/seed" + std::to_string(shape.seed), configs,
        report);
  }
  return report;
}

}  // namespace pincer
