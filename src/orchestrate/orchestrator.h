// The fault-tolerant sharded mining orchestrator. One call runs the whole
// pipeline against a basket file:
//
//   1. Shard   — split the database into S shard files (orchestrate/sharder).
//   2. Mine    — supervise one worker process per shard over a bounded pool
//                of slots (orchestrate/supervisor), with crash recovery from
//                per-shard checkpoints and capped-exponential-backoff
//                retries.
//   3. Merge   — union the local MFSes and expand every subset: by the
//                partition lemma, a globally frequent itemset is locally
//                frequent in at least one shard, and by downward closure the
//                locally frequent sets are exactly the subsets of the local
//                MFS elements. The union is therefore a superset of every
//                globally frequent itemset.
//   4. Validate — one streaming scan of the ORIGINAL database counts every
//                candidate's global support; the frequent ones fold into an
//                Mfs antichain, whose sorted elements are the global MFS.
//
// Determinism: the MFS of a database at a threshold is unique, the shard
// files are a pure function of (file, S), each worker's local MFS is a pure
// function of its shard (fresh or resumed — ResumeMaximal is bit-identical),
// and merge + validation are deterministic folds over sorted data. So the
// output is bit-identical across shard counts, slot counts, and failure
// schedules (docs/sharding.md carries the full argument).
//
// The work directory persists a manifest.json describing the shard plan;
// re-running with resume=true against the same database and options reuses
// finished shard results and restarts only the missing ones (from their
// checkpoints when available). A manifest for a different database or
// configuration is rejected with InvalidArgument, never silently remined.

#ifndef PINCER_ORCHESTRATE_ORCHESTRATOR_H_
#define PINCER_ORCHESTRATE_ORCHESTRATOR_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "data/row_policy.h"
#include "mining/frequent_itemset.h"
#include "mining/miner.h"
#include "orchestrate/supervisor.h"
#include "util/retry.h"
#include "util/statusor.h"

namespace pincer {

struct OrchestratorOptions {
  /// Number of shards to split the database into (>= 1).
  size_t num_shards = 2;
  /// Concurrent worker slots (>= 1); independent of num_shards.
  size_t slots = 2;
  double min_support = 0.01;
  Algorithm algorithm = Algorithm::kPincerAdaptive;
  /// Scratch + state directory (created if missing): shard files,
  /// checkpoints, result files, worker logs, manifest.json.
  std::string work_dir;
  /// Path to the worker executable (pincer_shard; it re-execs itself with
  /// --worker). Must be a path, not a bare name — no PATH search.
  std::string worker_binary;
  /// Reuse a previous run's work_dir: keep the shard files and any valid
  /// completed shard results, restart the rest (resuming from their
  /// checkpoints when present). Requires a manifest matching this database
  /// and configuration; a mismatch is InvalidArgument.
  bool resume = false;
  /// Malformed-row policy for the sharding split and the validation scan.
  MalformedRowPolicy malformed_rows = MalformedRowPolicy::kStrict;
  size_t worker_threads = 1;

  // Supervision knobs (see orchestrate/supervisor.h).
  size_t max_attempts = 3;
  double attempt_deadline_ms = 0;
  double term_grace_ms = 2000;
  RetryPolicy backoff;
  double poll_interval_ms = 20;

  /// Retry policy for the global validation scan (transient IoError only).
  RetryPolicy validation_retry;
  /// Wall-clock budget for the validation scan, in milliseconds (0 = none).
  /// Exceeding it fails with FailedPrecondition, which is never retried.
  double validation_budget_ms = 0;

  /// Failure injection for the recovery tests: extra environment for each
  /// worker's FIRST attempt only, so retries converge instead of
  /// re-tripping the same fault forever. PINCER_FAILPOINTS=
  /// "checkpoint.write=once@2:kill" makes every worker SIGKILL itself at
  /// its second checkpoint write and recover from the first on relaunch.
  std::vector<std::pair<std::string, std::string>> first_attempt_env;
  /// Called after every worker spawn (task index, attempt, pid).
  std::function<void(size_t, size_t, pid_t)> on_worker_spawn;
};

/// Everything the stats JSON reports about a run (schema v1.4,
/// "orchestrator" section; see docs/sharding.md).
struct OrchestratorStats {
  uint64_t num_shards = 0;
  /// Valid transactions seen by the sharder (0 when sharding was skipped on
  /// resume).
  uint64_t transactions = 0;
  /// Malformed rows dropped by the sharder under kSkipAndCount.
  uint64_t rows_skipped = 0;
  /// Completed shard results reused from a previous run (resume only).
  uint64_t shard_results_reused = 0;
  /// Size of the merged candidate union fed to the validation scan.
  uint64_t candidates = 0;
  /// Transactions seen by the validation scan (the |D| behind min_count).
  uint64_t validation_transactions = 0;
  /// Transient-IoError retries spent by the validation scan.
  uint64_t validation_retries = 0;
  /// Malformed rows dropped by the validation scan under kSkipAndCount.
  uint64_t validation_rows_skipped = 0;
  // Phase timings (wall clock, advisory).
  double shard_ms = 0;
  double supervise_ms = 0;
  double merge_ms = 0;
  double validate_ms = 0;
  /// Per-shard supervision counters (attempts, retries,
  /// recovered_from_checkpoint, ...), indexed by shard.
  SupervisorReport workers;
};

struct OrchestratorResult {
  /// The global MFS with global supports, sorted lexicographically —
  /// bit-identical to a single-process MineMaximal over the same file.
  std::vector<FrequentItemset> mfs;
  /// The absolute support threshold the validation applied:
  /// max(1, ceil(min_support * validation_transactions)).
  uint64_t min_count = 0;
  OrchestratorStats stats;
};

/// Runs the full shard → mine → merge → validate pipeline. Errors:
/// InvalidArgument for bad options, a malformed database under the strict
/// policy, or a stale/mismatched work_dir manifest on resume; IoError for
/// unrecoverable I/O; FailedPrecondition when a shard exhausted its attempt
/// budget (the Status names the shard and its last failure) or the
/// validation budget expired.
StatusOr<OrchestratorResult> OrchestrateMining(
    const std::string& database_path, const OrchestratorOptions& options);

}  // namespace pincer

#endif  // PINCER_ORCHESTRATE_ORCHESTRATOR_H_
