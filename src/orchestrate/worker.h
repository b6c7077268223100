// The shard worker: the mine_cli-shaped unit of work the supervisor
// fork/execs, one per shard. A worker reads its shard strictly (the
// sharder already dropped or rejected malformed rows), mines the local
// MFS, writes a pass-level checkpoint after every completed pass (PR-4
// atomic temp+rename path), and writes its ShardResult atomically on
// success. On --resume it restarts from the checkpoint and produces a
// bit-identical local MFS; a checkpoint from a different shard file or
// different effective options is rejected with a clear Status, never mined
// from. The argv builder and parser live side by side so the supervisor's
// command line and the worker's flag parsing cannot drift apart.

#ifndef PINCER_ORCHESTRATE_WORKER_H_
#define PINCER_ORCHESTRATE_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mining/miner.h"
#include "util/statusor.h"

namespace pincer {

struct ShardWorkerConfig {
  std::string shard_path;
  /// Where the ShardResult lands (atomic write).
  std::string result_path;
  /// Checkpoint file; empty disables checkpointing (and resume).
  std::string checkpoint_path;
  /// Restart from checkpoint_path if it holds a valid checkpoint for this
  /// shard and these options; a missing file falls back to a fresh mine
  /// (the supervisor only passes --resume when the file exists, but it may
  /// vanish between the check and the exec).
  bool resume = false;
  uint64_t shard_index = 0;
  double min_support = 0.01;
  Algorithm algorithm = Algorithm::kPincerAdaptive;
  size_t num_threads = 1;
};

/// Runs one shard worker to completion. On success the ShardResult is on
/// disk at config.result_path. Errors are returned, not printed.
Status RunShardWorker(const ShardWorkerConfig& config);

/// The argv the supervisor execs for this config: `worker_binary --worker
/// <shard> --out=... [flags]`. ParseShardWorkerArgv inverts it.
std::vector<std::string> ShardWorkerArgv(const std::string& worker_binary,
                                         const ShardWorkerConfig& config);

/// Parses the arguments following "--worker" (i.e. argv[2:] of a worker
/// invocation). InvalidArgument on unknown or malformed flags.
StatusOr<ShardWorkerConfig> ParseShardWorkerArgv(
    const std::vector<std::string>& args);

}  // namespace pincer

#endif  // PINCER_ORCHESTRATE_WORKER_H_
