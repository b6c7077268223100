#include "orchestrate/worker.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "data/database_io.h"
#include "mining/checkpoint.h"
#include "orchestrate/shard_result.h"
#include "util/parse_number.h"
#include "util/timer.h"

namespace pincer {

namespace {

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string FormatMinSupport(double min_support) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", min_support);
  return text;
}

}  // namespace

Status RunShardWorker(const ShardWorkerConfig& config) {
  Timer timer;
  // Strict read: the sharder already enforced the malformed-row policy, so
  // a malformed row here means the shard file itself was corrupted.
  const StatusOr<TransactionDatabase> db =
      ReadDatabaseFromFile(config.shard_path);
  if (!db.ok()) {
    return Status(db.status().code(), "reading shard " + config.shard_path +
                                          ": " + db.status().message());
  }

  DatabaseFingerprint fingerprint;
  PINCER_RETURN_IF_ERROR(
      FillFileFingerprint(config.shard_path, fingerprint));
  fingerprint.rows = db->size();
  fingerprint.items = db->num_items();

  MiningOptions options;
  options.min_support = config.min_support;
  options.backend = CounterBackend::kAuto;
  options.num_threads = config.num_threads;

  if (!config.checkpoint_path.empty()) {
    options.checkpoint_sink = [&](Checkpoint checkpoint) {
      checkpoint.database.path = fingerprint.path;
      checkpoint.database.file_bytes = fingerprint.file_bytes;
      return WriteCheckpointToFile(checkpoint, config.checkpoint_path);
    };
  }

  MaximalSetResult mined;
  bool resumed = false;
  if (config.resume && FileExists(config.checkpoint_path)) {
    const auto cannot_resume = [&](const Status& cause) {
      return Status(cause.code(), "cannot resume shard " +
                                      std::to_string(config.shard_index) +
                                      ": " + cause.message());
    };
    const StatusOr<Checkpoint> checkpoint =
        ReadCheckpointFromFile(config.checkpoint_path);
    if (!checkpoint.ok()) return cannot_resume(checkpoint.status());
    if (const Status same_file = CheckCheckpointFile(*checkpoint, fingerprint);
        !same_file.ok()) {
      return cannot_resume(same_file);
    }
    StatusOr<MaximalSetResult> result =
        ResumeMaximal(*db, options, config.algorithm, *checkpoint);
    if (!result.ok()) return cannot_resume(result.status());
    mined = std::move(*result);
    resumed = true;
  } else {
    mined = MineMaximal(*db, options, config.algorithm);
  }

  ShardResult result;
  result.shard_index = config.shard_index;
  result.shard = fingerprint;
  result.options_fingerprint = OptionsFingerprint(
      EffectiveMiningOptions(options, config.algorithm),
      CheckpointAlgorithmId(config.algorithm));
  result.resumed_from_checkpoint = resumed;
  result.passes = mined.stats.passes;
  result.mine_ms = timer.ElapsedMillis();
  result.mfs = std::move(mined.mfs);
  // Lexicographic order: the file bytes (checksum aside) are then a pure
  // function of the mined SET, identical for fresh and resumed runs.
  std::sort(result.mfs.begin(), result.mfs.end());
  return WriteShardResultToFile(result, config.result_path);
}

std::vector<std::string> ShardWorkerArgv(const std::string& worker_binary,
                                         const ShardWorkerConfig& config) {
  std::vector<std::string> argv = {
      worker_binary,
      "--worker",
      config.shard_path,
      "--out=" + config.result_path,
      "--shard-index=" + std::to_string(config.shard_index),
      "--min-support=" + FormatMinSupport(config.min_support),
      "--algorithm=" + std::string(AlgorithmName(config.algorithm)),
      "--threads=" + std::to_string(config.num_threads),
  };
  if (!config.checkpoint_path.empty()) {
    argv.push_back("--checkpoint=" + config.checkpoint_path);
  }
  if (config.resume) argv.push_back("--resume");
  return argv;
}

StatusOr<ShardWorkerConfig> ParseShardWorkerArgv(
    const std::vector<std::string>& args) {
  ShardWorkerConfig config;
  for (const std::string& arg : args) {
    if (arg.rfind("--out=", 0) == 0) {
      config.result_path = arg.substr(6);
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      config.checkpoint_path = arg.substr(13);
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg.rfind("--shard-index=", 0) == 0) {
      const StatusOr<uint64_t> parsed =
          ParseUint64(arg.substr(14), "--shard-index");
      if (!parsed.ok()) return parsed.status();
      config.shard_index = *parsed;
    } else if (arg.rfind("--min-support=", 0) == 0) {
      const StatusOr<double> parsed =
          ParseDouble(arg.substr(14), "--min-support");
      if (!parsed.ok()) return parsed.status();
      config.min_support = *parsed;
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      const StatusOr<Algorithm> parsed = ParseAlgorithm(arg.substr(12));
      if (!parsed.ok()) return parsed.status();
      config.algorithm = *parsed;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const StatusOr<size_t> parsed = ParseSize(arg.substr(10), "--threads");
      if (!parsed.ok()) return parsed.status();
      config.num_threads = *parsed;
    } else if (arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown worker flag: " + arg);
    } else if (config.shard_path.empty()) {
      config.shard_path = arg;
    } else {
      return Status::InvalidArgument("unexpected worker argument: " + arg);
    }
  }
  if (config.shard_path.empty()) {
    return Status::InvalidArgument("worker needs a shard file path");
  }
  if (config.result_path.empty()) {
    return Status::InvalidArgument("worker needs --out=FILE");
  }
  if (config.resume && config.checkpoint_path.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint=FILE");
  }
  return config;
}

}  // namespace pincer
