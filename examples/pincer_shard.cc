// Fault-tolerant sharded miner: splits a basket file into shards, mines
// each shard in a supervised worker process (crash recovery from per-shard
// checkpoints, capped-exponential-backoff retries), then merges and
// validates with one streaming scan. The output is bit-identical to
// mine_cli over the same file (docs/sharding.md).
//
//   ./pincer_shard <database.basket> --work-dir=DIR [options]
//     --shards=N                 shard count (default 2)
//     --workers=N                concurrent worker slots (default 2)
//     --min-support=F            fraction of |D| (default 0.01)
//     --algorithm=pincer-adaptive
//                                apriori | apriori-combined | pincer |
//                                pincer-adaptive
//     --worker-threads=N         counting threads per worker (default 1)
//     --resume                   reuse DIR from a previous run: keep valid
//                                shard results, restart the rest from their
//                                checkpoints; rejects a DIR built for a
//                                different database or options
//     --malformed=strict|skip    malformed-row policy for the shard split
//                                and the validation scan
//     --max-attempts=N           attempt budget per shard (default 3)
//     --attempt-deadline-ms=F    per-attempt wall clock; past it the worker
//                                is SIGTERMed, then SIGKILLed (default: none)
//     --term-grace-ms=F          SIGTERM -> SIGKILL grace (default 2000)
//     --backoff-ms=F             initial retry backoff (default 0)
//     --max-backoff-ms=F         backoff cap (default 0 = uncapped)
//     --budget-ms=F              validation-scan wall-clock budget
//     --stats-json=FILE          stats JSON (schema v1.4: adds the
//                                "orchestrator" section; EXPERIMENTS.md)
//     --worker-binary=PATH       worker executable (default: this binary)
//
//   Failure injection (recovery tests; hits FIRST attempts only):
//     --worker-failpoints=SPEC   PINCER_FAILPOINTS for first attempts, e.g.
//                                checkpoint.write=once@2:kill: each worker
//                                SIGKILLs itself at its second checkpoint
//                                write, with the first one on disk
//
//   Worker mode (what the supervisor execs; not for direct use):
//     ./pincer_shard --worker <shard.basket> --out=FILE [worker flags]
//
// Exit status: 0 on success, 1 on runtime failure, 2 on bad usage.

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "orchestrate/orchestrator.h"
#include "orchestrate/worker.h"
#include "util/failpoint.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/parse_number.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <database.basket> --work-dir=DIR [--shards=N] [--workers=N] "
               "[--min-support=F] "
               "[--algorithm=apriori|apriori-combined|pincer|"
               "pincer-adaptive] [--worker-threads=N] "
               "[--resume] [--malformed=strict|skip] [--max-attempts=N] "
               "[--attempt-deadline-ms=F] [--term-grace-ms=F] "
               "[--backoff-ms=F] [--max-backoff-ms=F] [--budget-ms=F] "
               "[--stats-json=FILE] [--worker-binary=PATH]\n"
            << "   or: " << argv0
            << " --worker <shard.basket> --out=FILE ...\n";
  return 2;
}

/// The path workers are exec'd from: this very binary. /proc/self/exe is
/// authoritative on Linux; argv[0] is the fallback (tests always pass
/// --worker-binary explicitly anyway).
std::string SelfBinary(const char* argv0) {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (len > 0) return std::string(buffer, static_cast<size_t>(len));
  return argv0;
}

int RunWorker(int argc, char** argv) {
  using namespace pincer;
  // Failpoints arm from the environment the supervisor passed us, so a
  // fault schedule can target first attempts only.
  if (const Status armed = failpoint::ArmFromEnv(); !armed.ok()) {
    std::cerr << "PINCER_FAILPOINTS: " << armed << "\n";
    return 2;
  }
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  const StatusOr<ShardWorkerConfig> config = ParseShardWorkerArgv(args);
  if (!config.ok()) {
    std::cerr << "worker: " << config.status() << "\n";
    return 2;
  }
  if (const Status status = RunShardWorker(*config); !status.ok()) {
    std::cerr << "worker: " << status << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    return RunWorker(argc, argv);
  }
  if (argc < 2) return Usage(argv[0]);
  const std::string path = argv[1];

  OrchestratorOptions options;
  options.worker_binary = SelfBinary(argv[0]);
  std::string stats_json_path;
  std::string worker_failpoints;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto size_flag = [&arg](const char* name,
                                  size_t prefix) -> StatusOr<size_t> {
      return ParseSize(arg.substr(prefix), name);
    };
    const auto double_flag = [&arg](const char* name,
                                    size_t prefix) -> StatusOr<double> {
      return ParseDouble(arg.substr(prefix), name);
    };
    if (arg.rfind("--shards=", 0) == 0) {
      const StatusOr<size_t> parsed = size_flag("--shards", 9);
      if (!parsed.ok() || *parsed == 0) {
        std::cerr << "--shards must be a positive integer\n";
        return 2;
      }
      options.num_shards = *parsed;
    } else if (arg.rfind("--workers=", 0) == 0) {
      const StatusOr<size_t> parsed = size_flag("--workers", 10);
      if (!parsed.ok() || *parsed == 0) {
        std::cerr << "--workers must be a positive integer\n";
        return 2;
      }
      options.slots = *parsed;
    } else if (arg.rfind("--min-support=", 0) == 0) {
      const StatusOr<double> parsed = double_flag("--min-support", 14);
      if (!parsed.ok() || *parsed <= 0.0 || *parsed > 1.0) {
        std::cerr << "min-support must be in (0, 1]\n";
        return 2;
      }
      options.min_support = *parsed;
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      const StatusOr<Algorithm> parsed = ParseAlgorithm(arg.substr(12));
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.algorithm = *parsed;
    } else if (arg.rfind("--worker-threads=", 0) == 0) {
      const StatusOr<size_t> parsed = size_flag("--worker-threads", 17);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.worker_threads = *parsed;
    } else if (arg.rfind("--work-dir=", 0) == 0) {
      options.work_dir = arg.substr(11);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg.rfind("--malformed=", 0) == 0) {
      const std::optional<MalformedRowPolicy> policy =
          ParseMalformedRowPolicy(arg.substr(12));
      if (!policy.has_value()) {
        std::cerr << "--malformed must be 'strict' or 'skip'\n";
        return 2;
      }
      options.malformed_rows = *policy;
    } else if (arg.rfind("--max-attempts=", 0) == 0) {
      const StatusOr<size_t> parsed = size_flag("--max-attempts", 15);
      if (!parsed.ok() || *parsed == 0) {
        std::cerr << "--max-attempts must be a positive integer\n";
        return 2;
      }
      options.max_attempts = *parsed;
    } else if (arg.rfind("--attempt-deadline-ms=", 0) == 0) {
      const StatusOr<double> parsed = double_flag("--attempt-deadline-ms", 22);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.attempt_deadline_ms = *parsed;
    } else if (arg.rfind("--term-grace-ms=", 0) == 0) {
      const StatusOr<double> parsed = double_flag("--term-grace-ms", 16);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.term_grace_ms = *parsed;
    } else if (arg.rfind("--backoff-ms=", 0) == 0) {
      const StatusOr<double> parsed = double_flag("--backoff-ms", 13);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.backoff.initial_backoff_ms = *parsed;
    } else if (arg.rfind("--max-backoff-ms=", 0) == 0) {
      const StatusOr<double> parsed = double_flag("--max-backoff-ms", 17);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.backoff.max_backoff_ms = *parsed;
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      const StatusOr<double> parsed = double_flag("--budget-ms", 12);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      options.validation_budget_ms = *parsed;
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = arg.substr(13);
      if (stats_json_path.empty()) {
        std::cerr << "--stats-json needs a file path\n";
        return 2;
      }
    } else if (arg.rfind("--worker-binary=", 0) == 0) {
      options.worker_binary = arg.substr(16);
    } else if (arg.rfind("--worker-failpoints=", 0) == 0) {
      worker_failpoints = arg.substr(20);
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.work_dir.empty()) {
    std::cerr << "--work-dir=DIR is required\n";
    return 2;
  }
  if (!worker_failpoints.empty()) {
    options.first_attempt_env.emplace_back("PINCER_FAILPOINTS",
                                           worker_failpoints);
  }

  const StatusOr<OrchestratorResult> result =
      OrchestrateMining(path, options);
  if (!result.ok()) {
    std::cerr << "error: " << result.status() << "\n";
    return 1;
  }

  // Same output format as mine_cli, so the two are directly diffable.
  std::cout << "# maximal frequent itemsets: " << result->mfs.size() << "\n";
  std::cout << "# format: support <tab> items...\n";
  for (const FrequentItemset& fi : result->mfs) {
    std::cout << fi.support << "\t";
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) std::cout << ' ';
      std::cout << fi.itemset[i];
    }
    std::cout << "\n";
  }

  const OrchestratorStats& stats = result->stats;
  std::cerr << "shards=" << stats.num_shards
            << " candidates=" << stats.candidates
            << " min_count=" << result->min_count
            << " reused=" << stats.shard_results_reused << "\n";
  for (size_t i = 0; i < stats.workers.tasks.size(); ++i) {
    const TaskReport& report = stats.workers.tasks[i];
    if (report.retries > 0 || report.recovered_from_checkpoint > 0) {
      std::cerr << "shard " << i << ": attempts=" << report.attempts
                << " retries=" << report.retries
                << " recovered_from_checkpoint="
                << report.recovered_from_checkpoint << "\n";
    }
  }

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
    json.KeyValue("tool", "pincer_shard");
    json.KeyValue("input", path);
    json.KeyValue("algorithm", AlgorithmName(options.algorithm));
    json.KeyValue("min_support", options.min_support);
    json.KeyValue("min_count", result->min_count);
    json.KeyValue("mfs_size", static_cast<uint64_t>(result->mfs.size()));
    json.KeyValue("mfs_max_len",
                  static_cast<uint64_t>(MaxLength(result->mfs)));
    json.Key("orchestrator").BeginObject();
    json.KeyValue("num_shards", stats.num_shards);
    json.KeyValue("transactions", stats.transactions);
    json.KeyValue("rows_skipped", stats.rows_skipped);
    json.KeyValue("shard_results_reused", stats.shard_results_reused);
    json.KeyValue("candidates", stats.candidates);
    json.KeyValue("validation_transactions", stats.validation_transactions);
    json.KeyValue("validation_retries", stats.validation_retries);
    json.KeyValue("validation_rows_skipped", stats.validation_rows_skipped);
    json.KeyValue("shard_ms", stats.shard_ms);
    json.KeyValue("supervise_ms", stats.supervise_ms);
    json.KeyValue("merge_ms", stats.merge_ms);
    json.KeyValue("validate_ms", stats.validate_ms);
    json.Key("workers").BeginArray();
    for (size_t i = 0; i < stats.workers.tasks.size(); ++i) {
      const TaskReport& report = stats.workers.tasks[i];
      json.BeginObject();
      json.KeyValue("shard", static_cast<uint64_t>(i));
      json.KeyValue("attempts", report.attempts);
      json.KeyValue("retries", report.retries);
      json.KeyValue("recovered_from_checkpoint",
                    report.recovered_from_checkpoint);
      json.KeyValue("timeouts", report.timeouts);
      json.KeyValue("invalid_results", report.invalid_results);
      json.KeyValue("succeeded", report.succeeded);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
    out << "\n";
    if (!out.good()) {
      std::cerr << "error: failed writing " << stats_json_path << "\n";
      return 1;
    }
  }
  return 0;
}
