// Command-line miner: the end-to-end tool a downstream user would run on
// their own basket file.
//
//   ./mine_cli <database.basket> [options]
//     --min-support=0.01         fraction of |D| (default 0.01)
//     --algorithm=pincer-adaptive
//                                apriori | apriori-combined | pincer |
//                                pincer-adaptive
//     --backend=auto             auto | trie | hash_tree | linear |
//                                vertical (auto counts through vertical
//                                wherever its index fits a 1 GiB cap, else
//                                through trie; the engine lands in the
//                                stats as per-pass backend_used)
//     --threads=1                counting worker threads (0 = all cores);
//                                results are identical for every value
//     --rules=<min_confidence>   also generate association rules
//     --stats                    print per-pass statistics
//     --stats-json=FILE          write run statistics as JSON (schema in
//                                EXPERIMENTS.md; also enables backend
//                                counter metrics)
//     --malformed=strict|skip    what to do with rows that fail to parse:
//                                fail the run (default) or drop and count
//                                them (reported as stats.rows_skipped)
//     --checkpoint=FILE          write a resumable checkpoint after every
//                                completed pass (atomic: temp + rename)
//     --resume                   resume from --checkpoint's file instead of
//                                starting over; rejects a checkpoint from a
//                                different database, algorithm, or options
//
// The PINCER_FAILPOINTS environment variable arms fault-injection points
// (see util/failpoint.h) — used by the crash-recovery CI job.
//
// Exit status: 0 on success, 1 on bad input, 2 on bad usage.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "counting/counter_factory.h"
#include "data/database_io.h"
#include "data/database_stats.h"
#include "mining/checkpoint.h"
#include "mining/miner.h"
#include "rules/mfs_rule_gen.h"
#include "util/failpoint.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/parse_number.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <database.basket> [--min-support=F] "
               "[--algorithm=apriori|apriori-combined|pincer|"
               "pincer-adaptive] "
               "[--backend=auto|trie|hash_tree|linear|vertical] "
               "[--threads=N] "
               "[--rules=MIN_CONFIDENCE] [--stats] [--stats-json=FILE] "
               "[--malformed=strict|skip] [--checkpoint=FILE] [--resume]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  // A flag where the database path belongs (--help among them) is a usage
  // error, never a file to open.
  if (argc < 2 || argv[1][0] == '-') return Usage(argv[0]);
  const std::string path = argv[1];

  if (const Status armed = failpoint::ArmFromEnv(); !armed.ok()) {
    std::cerr << "PINCER_FAILPOINTS: " << armed << "\n";
    return 2;
  }

  MiningOptions options;
  // The engine the daemon and the shard workers count with.
  options.backend = CounterBackend::kAuto;
  DatabaseReadOptions read_options;
  Algorithm algorithm = Algorithm::kPincerAdaptive;
  double min_confidence = -1.0;
  bool print_stats = false;
  bool resume = false;
  std::string stats_json_path;
  std::string checkpoint_path;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--min-support=", 0) == 0) {
      const StatusOr<double> parsed =
          ParseDouble(arg.substr(14), "--min-support");
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.min_support = *parsed;
      if (options.min_support <= 0.0 || options.min_support > 1.0) {
        std::cerr << "min-support must be in (0, 1]\n";
        return 2;
      }
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      const StatusOr<Algorithm> parsed = ParseAlgorithm(arg.substr(12));
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      algorithm = *parsed;
    } else if (arg.rfind("--backend=", 0) == 0) {
      const std::string name = arg.substr(10);
      bool found = false;
      for (CounterBackend backend : AllCounterBackends()) {
        if (name == CounterBackendName(backend)) {
          options.backend = backend;
          found = true;
        }
      }
      if (!found) {
        std::cerr << "unknown backend: " << name << "\n";
        return 2;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      const StatusOr<size_t> parsed =
          ParseSize(arg.substr(10), "--threads");
      if (!parsed.ok()) {
        std::cerr << parsed.status() << " (0 = all cores)\n";
        return 2;
      }
      options.num_threads = *parsed;
    } else if (arg.rfind("--rules=", 0) == 0) {
      const StatusOr<double> parsed = ParseDouble(arg.substr(8), "--rules");
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      min_confidence = *parsed;
      if (min_confidence < 0.0 || min_confidence > 1.0) {
        std::cerr << "--rules confidence must be in [0, 1]\n";
        return 2;
      }
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = arg.substr(13);
      if (stats_json_path.empty()) {
        std::cerr << "--stats-json needs a file path\n";
        return 2;
      }
    } else if (arg.rfind("--malformed=", 0) == 0) {
      const std::optional<MalformedRowPolicy> policy =
          ParseMalformedRowPolicy(arg.substr(12));
      if (!policy.has_value()) {
        std::cerr << "--malformed must be 'strict' or 'skip'\n";
        return 2;
      }
      read_options.malformed_rows = *policy;
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      checkpoint_path = arg.substr(13);
      if (checkpoint_path.empty()) {
        std::cerr << "--checkpoint needs a file path\n";
        return 2;
      }
    } else if (arg == "--resume") {
      resume = true;
    } else {
      return Usage(argv[0]);
    }
  }
  options.collect_counter_metrics = !stats_json_path.empty();
  if (resume && checkpoint_path.empty()) {
    std::cerr << "--resume requires --checkpoint=FILE\n";
    return 2;
  }

  DatabaseReadReport read_report;
  const StatusOr<TransactionDatabase> db =
      ReadDatabaseFromFile(path, read_options, &read_report);
  if (!db.ok()) {
    std::cerr << "error reading " << path << ": " << db.status() << "\n";
    return 1;
  }
  std::cerr << ComputeStats(*db).ToString();
  if (read_report.rows_skipped > 0) {
    std::cerr << "warning: skipped " << read_report.rows_skipped
              << " malformed row(s) (--malformed=skip)\n";
  }

  // The checkpoint carries the database file's identity so --resume can
  // refuse a checkpoint from different data.
  DatabaseFingerprint file_fingerprint;
  if (!checkpoint_path.empty()) {
    if (const Status status = FillFileFingerprint(path, file_fingerprint);
        !status.ok()) {
      std::cerr << "error fingerprinting " << path << ": " << status << "\n";
      return 1;
    }
    options.checkpoint_sink = [&](Checkpoint checkpoint) {
      checkpoint.database.path = file_fingerprint.path;
      checkpoint.database.file_bytes = file_fingerprint.file_bytes;
      return WriteCheckpointToFile(checkpoint, checkpoint_path);
    };
  }

  MaximalSetResult result;
  if (resume) {
    const StatusOr<Checkpoint> checkpoint =
        ReadCheckpointFromFile(checkpoint_path);
    if (!checkpoint.ok()) {
      std::cerr << "error reading checkpoint " << checkpoint_path << ": "
                << checkpoint.status() << "\n";
      return 1;
    }
    if (const Status same_file =
            CheckCheckpointFile(*checkpoint, file_fingerprint);
        !same_file.ok()) {
      std::cerr << "error resuming from " << checkpoint_path << ": "
                << same_file << "\n";
      return 1;
    }
    StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(*db, options, algorithm, *checkpoint);
    if (!resumed.ok()) {
      std::cerr << "error resuming from " << checkpoint_path << ": "
                << resumed.status() << "\n";
      return 1;
    }
    result = std::move(*resumed);
  } else {
    result = MineMaximal(*db, options, algorithm);
  }
  result.stats.rows_skipped += read_report.rows_skipped;
  result.stats.rows_dropped_items += db->num_dropped_items();
  std::cout << "# maximal frequent itemsets: " << result.mfs.size() << "\n";
  std::cout << "# format: support <tab> items...\n";
  for (const FrequentItemset& fi : result.mfs) {
    std::cout << fi.support << "\t";
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) std::cout << ' ';
      std::cout << fi.itemset[i];
    }
    std::cout << "\n";
  }

  if (print_stats) std::cerr << result.stats.ToString();

  if (!stats_json_path.empty()) {
    std::ofstream out(stats_json_path);
    if (!out) {
      std::cerr << "error: cannot write " << stats_json_path << "\n";
      return 1;
    }
    JsonWriter json(out);
    json.BeginObject();
    json.KeyValue("schema_version", kStatsJsonSchemaVersion);
    json.KeyValue("schema_minor", kStatsJsonSchemaMinorVersion);
    json.KeyValue("tool", "mine_cli");
    json.KeyValue("input", path);
    json.KeyValue("algorithm", AlgorithmName(algorithm));
    json.KeyValue("backend", CounterBackendName(options.backend));
    json.KeyValue("min_support", options.min_support);
    json.KeyValue("num_transactions", static_cast<uint64_t>(db->size()));
    json.KeyValue("num_items", static_cast<uint64_t>(db->num_items()));
    json.KeyValue("mfs_size", static_cast<uint64_t>(result.mfs.size()));
    json.KeyValue("mfs_max_len", static_cast<uint64_t>(MaxLength(result.mfs)));
    json.Key("stats");
    result.stats.ToJson(json);
    json.EndObject();
    out << "\n";
    if (!out.good()) {
      std::cerr << "error: failed writing " << stats_json_path << "\n";
      return 1;
    }
  }

  if (min_confidence >= 0.0) {
    RuleOptions rule_options;
    rule_options.min_confidence = min_confidence;
    const std::vector<AssociationRule> rules =
        GenerateRulesFromMfs(*db, result, options, rule_options);
    std::cout << "# rules (confidence >= " << min_confidence
              << "): " << rules.size() << "\n";
    for (const AssociationRule& rule : rules) {
      std::cout << rule << "\n";
    }
  }
  return 0;
}
