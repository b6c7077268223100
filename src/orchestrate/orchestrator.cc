#include "orchestrate/orchestrator.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/mfs.h"
#include "counting/scan_budget.h"
#include "counting/streaming_counter.h"
#include "data/database.h"
#include "mining/checkpoint.h"
#include "orchestrate/shard_result.h"
#include "orchestrate/sharder.h"
#include "orchestrate/worker.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace pincer {

namespace {

constexpr uint64_t kManifestVersion = 1;

/// Ceiling on the merged candidate union. Subset expansion is exponential
/// in the longest local-MFS element, so a pathological merge is refused
/// with a clear error instead of exhausting memory.
constexpr size_t kMaxUnionCandidates = size_t{1} << 22;

/// The shard plan on disk: ties a work_dir to the exact database, shard
/// count, and options it was built for, so resume can reject everything
/// else.
struct Manifest {
  struct Shard {
    std::string path;
    uint64_t rows = 0;
    uint64_t file_bytes = 0;
  };

  uint64_t version = kManifestVersion;
  std::string source_path;
  uint64_t source_bytes = 0;
  uint64_t num_shards = 0;
  std::string malformed_rows;
  std::string options_fingerprint;
  uint64_t transactions = 0;
  uint64_t rows_skipped = 0;
  uint64_t declared_items = 0;
  std::vector<Shard> shards;
};

std::optional<uint64_t> FileBytes(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

Status EnsureDirectory(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return Status::OK();
    return Status::InvalidArgument("work dir " + path + " is not a directory");
  }
  if (::mkdir(path.c_str(), 0755) != 0) {
    return Status::IoError("cannot create work dir " + path);
  }
  return Status::OK();
}

/// A fresh (non-resume) run must not inherit any per-shard state — a stale
/// result from a previous configuration could otherwise pass validation by
/// coincidence and poison the merge.
Status ClearWorkDir(const std::string& work_dir) {
  DIR* dir = ::opendir(work_dir.c_str());
  if (dir == nullptr) {
    return Status::IoError("cannot list work dir " + work_dir);
  }
  std::vector<std::string> doomed;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): each call site owns its DIR*
  // stream; glibc readdir races only on a shared stream.
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "manifest.json" || name == "manifest.json.tmp" ||
        name.rfind("shard_", 0) == 0) {
      doomed.push_back(work_dir + "/" + name);
    }
  }
  ::closedir(dir);
  for (const std::string& path : doomed) {
    if (std::remove(path.c_str()) != 0) {
      return Status::IoError("cannot remove stale work file " + path);
    }
  }
  return Status::OK();
}

std::string ManifestToJson(const Manifest& manifest) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.KeyValue("version", manifest.version);
  json.Key("source").BeginObject();
  json.KeyValue("path", manifest.source_path);
  json.KeyValue("file_bytes", manifest.source_bytes);
  json.EndObject();
  json.KeyValue("num_shards", manifest.num_shards);
  json.KeyValue("malformed_rows", manifest.malformed_rows);
  json.KeyValue("options_fingerprint", manifest.options_fingerprint);
  json.KeyValue("transactions", manifest.transactions);
  json.KeyValue("rows_skipped", manifest.rows_skipped);
  json.KeyValue("declared_items", manifest.declared_items);
  json.Key("shards").BeginArray();
  for (const Manifest::Shard& shard : manifest.shards) {
    json.BeginObject();
    json.KeyValue("path", shard.path);
    json.KeyValue("rows", shard.rows);
    json.KeyValue("file_bytes", shard.file_bytes);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return os.str();
}

Status WriteManifestToFile(const Manifest& manifest, const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + tmp_path + " for writing");
    }
    out << ManifestToJson(manifest) << '\n';
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Status::IoError("write failed for " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Status MalformedManifest(const std::string& what) {
  return Status::InvalidArgument("malformed manifest: " + what);
}

StatusOr<Manifest> ReadManifestFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open manifest " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("cannot read manifest " + path);

  StatusOr<JsonValue> parsed = ParseJson(buffer.str());
  if (!parsed.ok()) {
    return MalformedManifest(parsed.status().message());
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) return MalformedManifest("root is not an object");

  Manifest manifest;
  const JsonValue* version = root.Find("version");
  if (version == nullptr || !version->AsUint64().has_value()) {
    return MalformedManifest("missing version");
  }
  manifest.version = *version->AsUint64();
  if (manifest.version != kManifestVersion) {
    return MalformedManifest("unsupported version " +
                             std::to_string(manifest.version));
  }
  const JsonValue* source = root.Find("source");
  if (source == nullptr || !source->is_object()) {
    return MalformedManifest("missing source");
  }
  const JsonValue* source_path = source->Find("path");
  const JsonValue* source_bytes = source->Find("file_bytes");
  if (source_path == nullptr || !source_path->AsString().has_value() ||
      source_bytes == nullptr || !source_bytes->AsUint64().has_value()) {
    return MalformedManifest("incomplete source fingerprint");
  }
  manifest.source_path = std::string(*source_path->AsString());
  manifest.source_bytes = *source_bytes->AsUint64();

  const auto uint_field =
      [&root](const char* key) -> std::optional<uint64_t> {
    const JsonValue* value = root.Find(key);
    if (value == nullptr) return std::nullopt;
    return value->AsUint64();
  };
  const std::optional<uint64_t> num_shards = uint_field("num_shards");
  const std::optional<uint64_t> transactions = uint_field("transactions");
  const std::optional<uint64_t> rows_skipped = uint_field("rows_skipped");
  const std::optional<uint64_t> declared_items = uint_field("declared_items");
  const JsonValue* malformed_rows = root.Find("malformed_rows");
  const JsonValue* fingerprint = root.Find("options_fingerprint");
  if (!num_shards.has_value() || !transactions.has_value() ||
      !rows_skipped.has_value() || !declared_items.has_value() ||
      malformed_rows == nullptr || !malformed_rows->AsString().has_value() ||
      fingerprint == nullptr || !fingerprint->AsString().has_value()) {
    return MalformedManifest("missing field");
  }
  manifest.num_shards = *num_shards;
  manifest.transactions = *transactions;
  manifest.rows_skipped = *rows_skipped;
  manifest.declared_items = *declared_items;
  manifest.malformed_rows = std::string(*malformed_rows->AsString());
  manifest.options_fingerprint = std::string(*fingerprint->AsString());

  const JsonValue* shards = root.Find("shards");
  if (shards == nullptr || !shards->is_array() ||
      shards->array.size() != manifest.num_shards) {
    return MalformedManifest("shard list does not match num_shards");
  }
  manifest.shards.reserve(shards->array.size());
  for (const JsonValue& element : shards->array) {
    const JsonValue* shard_path = element.Find("path");
    const JsonValue* rows = element.Find("rows");
    const JsonValue* file_bytes = element.Find("file_bytes");
    if (shard_path == nullptr || !shard_path->AsString().has_value() ||
        rows == nullptr || !rows->AsUint64().has_value() ||
        file_bytes == nullptr || !file_bytes->AsUint64().has_value()) {
      return MalformedManifest("incomplete shard entry");
    }
    manifest.shards.push_back({std::string(*shard_path->AsString()),
                               *rows->AsUint64(), *file_bytes->AsUint64()});
  }
  return manifest;
}

/// The options fingerprint every worker will stamp into its result — the
/// orchestrator builds the MiningOptions exactly as RunShardWorker does, so
/// fingerprint equality means "mined with these options".
std::string WorkerOptionsFingerprint(const OrchestratorOptions& options) {
  MiningOptions mining_options;
  mining_options.min_support = options.min_support;
  mining_options.backend = CounterBackend::kAuto;
  mining_options.num_threads = options.worker_threads;
  return OptionsFingerprint(
      EffectiveMiningOptions(mining_options, options.algorithm),
      CheckpointAlgorithmId(options.algorithm));
}

/// Inserts every non-empty subset of `items` (from `start` on, under
/// `prefix`) into the union. FailedPrecondition past kMaxUnionCandidates.
Status ExpandSubsets(const std::vector<ItemId>& items, size_t start,
                     std::vector<ItemId>& prefix, std::set<Itemset>& out) {
  for (size_t i = start; i < items.size(); ++i) {
    prefix.push_back(items[i]);
    if (out.size() >= kMaxUnionCandidates) {
      return Status::FailedPrecondition(
          "candidate union exceeds " + std::to_string(kMaxUnionCandidates) +
          " itemsets; lower the shard count or raise min_support");
    }
    out.insert(Itemset::FromSorted(prefix));
    const Status status = ExpandSubsets(items, i + 1, prefix, out);
    if (!status.ok()) return status;
    prefix.pop_back();
  }
  return Status::OK();
}

}  // namespace

StatusOr<OrchestratorResult> OrchestrateMining(
    const std::string& database_path, const OrchestratorOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (options.slots == 0) {
    return Status::InvalidArgument("slots must be at least 1");
  }
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("work_dir is required");
  }
  if (options.worker_binary.empty()) {
    return Status::InvalidArgument("worker_binary is required");
  }
  if (!(options.min_support > 0.0) || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  PINCER_RETURN_IF_ERROR(EnsureDirectory(options.work_dir));

  OrchestratorResult out;
  OrchestratorStats& stats = out.stats;
  stats.num_shards = options.num_shards;

  const std::string expected_fingerprint = WorkerOptionsFingerprint(options);
  DatabaseFingerprint source;
  PINCER_RETURN_IF_ERROR(FillFileFingerprint(database_path, source));

  // Phase 1: shard (or adopt the previous run's shard plan on resume).
  Timer shard_timer;
  const std::string manifest_path = options.work_dir + "/manifest.json";
  Manifest manifest;
  bool adopted_manifest = false;
  if (options.resume && FileBytes(manifest_path).has_value()) {
    StatusOr<Manifest> read = ReadManifestFromFile(manifest_path);
    if (!read.ok()) {
      return Status(read.status().code(),
                    "cannot resume: " + read.status().message());
    }
    if (read->source_path != source.path ||
        read->source_bytes != source.file_bytes) {
      return Status::InvalidArgument(
          "cannot resume: work dir " + options.work_dir + " was built for " +
          read->source_path + " (" + std::to_string(read->source_bytes) +
          " bytes), not " + source.path + " (" +
          std::to_string(source.file_bytes) + " bytes)");
    }
    if (read->num_shards != options.num_shards) {
      return Status::InvalidArgument(
          "cannot resume: work dir was sharded " +
          std::to_string(read->num_shards) + " ways, this run wants " +
          std::to_string(options.num_shards));
    }
    if (read->options_fingerprint != expected_fingerprint) {
      return Status::InvalidArgument(
          "cannot resume: work dir was mined with different options "
          "(fingerprint " +
          read->options_fingerprint + ", this run " + expected_fingerprint +
          ")");
    }
    const std::string_view policy_name =
        MalformedRowPolicyName(options.malformed_rows);
    if (read->malformed_rows != policy_name) {
      return Status::InvalidArgument(
          "cannot resume: work dir used malformed-row policy " +
          read->malformed_rows + ", this run wants " +
          std::string(policy_name));
    }
    for (const Manifest::Shard& shard : read->shards) {
      const std::optional<uint64_t> bytes = FileBytes(shard.path);
      if (!bytes.has_value() || *bytes != shard.file_bytes) {
        return Status::InvalidArgument(
            "cannot resume: shard file " + shard.path +
            " is missing or modified since the manifest was written");
      }
    }
    manifest = std::move(*read);
    adopted_manifest = true;
  }
  if (!adopted_manifest) {
    PINCER_RETURN_IF_ERROR(ClearWorkDir(options.work_dir));
    StatusOr<ShardPlan> plan =
        ShardDatabaseFile(database_path, options.work_dir, options.num_shards,
                          options.malformed_rows);
    if (!plan.ok()) return plan.status();
    manifest.source_path = source.path;
    manifest.source_bytes = source.file_bytes;
    manifest.num_shards = options.num_shards;
    manifest.malformed_rows =
        std::string(MalformedRowPolicyName(options.malformed_rows));
    manifest.options_fingerprint = expected_fingerprint;
    manifest.transactions = plan->transactions;
    manifest.rows_skipped = plan->rows_skipped;
    manifest.declared_items = plan->declared_items;
    manifest.shards.reserve(plan->shards.size());
    for (const ShardInfo& shard : plan->shards) {
      const std::optional<uint64_t> bytes = FileBytes(shard.path);
      if (!bytes.has_value()) {
        return Status::IoError("cannot stat shard file " + shard.path);
      }
      manifest.shards.push_back({shard.path, shard.rows, *bytes});
    }
    PINCER_RETURN_IF_ERROR(WriteManifestToFile(manifest, manifest_path));
  }
  stats.transactions = manifest.transactions;
  stats.rows_skipped = manifest.rows_skipped;
  stats.shard_ms = shard_timer.ElapsedMillis();

  // Phase 2: supervise one worker per shard that does not already have a
  // valid result (on resume, finished shards are reused, not remined).
  Timer supervise_timer;
  const size_t num_shards = options.num_shards;
  std::vector<std::string> result_paths(num_shards);
  std::vector<std::string> checkpoint_paths(num_shards);
  std::vector<std::optional<ShardResult>> results(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const std::string stem =
        options.work_dir + "/" + ShardFileName(i);
    result_paths[i] = stem + ".result.json";
    checkpoint_paths[i] = stem + ".ckpt";
  }

  // Reads + validates shard i's result file against the manifest and the
  // expected options; a valid result lands in results[i].
  const auto load_result = [&](size_t i) -> Status {
    StatusOr<ShardResult> result = ReadShardResultFromFile(result_paths[i]);
    if (!result.ok()) return result.status();
    const Manifest::Shard& shard = manifest.shards[i];
    if (result->shard_index != i) {
      return Status::InvalidArgument(
          "result claims shard " + std::to_string(result->shard_index) +
          ", expected " + std::to_string(i));
    }
    if (result->shard.path != shard.path ||
        result->shard.file_bytes != shard.file_bytes ||
        result->shard.rows != shard.rows) {
      return Status::InvalidArgument(
          "result was produced from a different shard file than the "
          "manifest describes");
    }
    if (result->options_fingerprint != expected_fingerprint) {
      return Status::InvalidArgument(
          "result was mined with different options (fingerprint " +
          result->options_fingerprint + ", expected " + expected_fingerprint +
          ")");
    }
    results[i] = std::move(*result);
    return Status::OK();
  };

  stats.workers.tasks.assign(num_shards, TaskReport{});
  std::vector<SupervisedTask> tasks;
  std::vector<size_t> task_shard;
  for (size_t i = 0; i < num_shards; ++i) {
    if (adopted_manifest && FileBytes(result_paths[i]).has_value()) {
      if (load_result(i).ok()) {
        ++stats.shard_results_reused;
        stats.workers.tasks[i].succeeded = true;
        continue;
      }
      // Invalid leftover: delete it so the worker's atomic rewrite cannot
      // race a half-validated file.
      std::remove(result_paths[i].c_str());
    }
    SupervisedTask task;
    task.name = "shard " + std::to_string(i);
    task.checkpoint_path = checkpoint_paths[i];
    task.log_path = options.work_dir + "/" + ShardFileName(i) + ".log";
    task.validate = [&load_result, i] { return load_result(i); };
    task.command = [&options, &manifest, &result_paths, &checkpoint_paths,
                    i](size_t attempt, bool resume) {
      ShardWorkerConfig config;
      config.shard_path = manifest.shards[i].path;
      config.result_path = result_paths[i];
      config.checkpoint_path = checkpoint_paths[i];
      config.resume = resume;
      config.shard_index = i;
      config.min_support = options.min_support;
      config.algorithm = options.algorithm;
      config.num_threads = options.worker_threads;
      WorkerCommand command;
      command.argv = ShardWorkerArgv(options.worker_binary, config);
      // Failure injection arms only the first attempt so retries converge.
      if (attempt == 1) command.env = options.first_attempt_env;
      return command;
    };
    task_shard.push_back(i);
    tasks.push_back(std::move(task));
  }

  SupervisorOptions supervisor_options;
  supervisor_options.slots = options.slots;
  supervisor_options.max_attempts = options.max_attempts;
  supervisor_options.attempt_deadline_ms = options.attempt_deadline_ms;
  supervisor_options.term_grace_ms = options.term_grace_ms;
  supervisor_options.backoff = options.backoff;
  supervisor_options.poll_interval_ms = options.poll_interval_ms;
  if (options.on_worker_spawn) {
    supervisor_options.on_spawn = [&options, &task_shard](
                                      size_t task_index, size_t attempt,
                                      pid_t pid) {
      options.on_worker_spawn(task_shard[task_index], attempt, pid);
    };
  }
  SupervisorReport supervisor_report;
  const Status supervised =
      SuperviseTasks(tasks, supervisor_options, &supervisor_report);
  for (size_t t = 0; t < task_shard.size(); ++t) {
    stats.workers.tasks[task_shard[t]] = supervisor_report.tasks[t];
  }
  stats.supervise_ms = supervise_timer.ElapsedMillis();
  if (!supervised.ok()) return supervised;

  // Phase 3: merge. Candidate union = every non-empty subset of every
  // local-MFS element (= the union of the shards' locally frequent sets,
  // by downward closure), deduplicated. The partition lemma makes this a
  // superset of every globally frequent itemset.
  Timer merge_timer;
  std::set<Itemset> candidate_union;
  for (size_t i = 0; i < num_shards; ++i) {
    if (!results[i].has_value()) {
      // A supervised task only reports success after load_result filled
      // results[i], so this is unreachable; keep it an error, not a DCHECK,
      // because merging a partial union would be a silent wrong answer.
      return Status::Internal("shard " + std::to_string(i) +
                              " has no result after supervision");
    }
    std::vector<ItemId> prefix;
    for (const FrequentItemset& fi : results[i]->mfs) {
      PINCER_RETURN_IF_ERROR(
          ExpandSubsets(fi.itemset.items(), 0, prefix, candidate_union));
    }
  }
  const std::vector<Itemset> candidates(candidate_union.begin(),
                                        candidate_union.end());
  stats.candidates = candidates.size();
  stats.merge_ms = merge_timer.ElapsedMillis();

  // Phase 4: validate — one streaming scan of the ORIGINAL database turns
  // local evidence into global truth.
  Timer validate_timer;
  uint64_t transactions = manifest.transactions;
  if (!candidates.empty()) {
    StreamingOptions streaming_options;
    streaming_options.retry = options.validation_retry;
    streaming_options.malformed_rows = options.malformed_rows;
    std::optional<ScanBudget> budget;
    if (options.validation_budget_ms > 0) {
      budget.emplace(options.validation_budget_ms);
      streaming_options.budget = &*budget;
    }
    StreamingCounter counter(database_path, streaming_options);
    StatusOr<std::vector<uint64_t>> counts = counter.CountSupports(candidates);
    stats.validation_retries = counter.retries();
    stats.validation_rows_skipped = counter.rows_skipped();
    if (!counts.ok()) {
      return Status(counts.status().code(),
                    "global validation scan: " + counts.status().message());
    }
    transactions = counter.last_pass_transactions();
    const uint64_t min_count =
        MinSupportCount(options.min_support, transactions);
    std::vector<FrequentItemset> frequent;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if ((*counts)[c] >= min_count) {
        frequent.push_back({candidates[c], (*counts)[c]});
      }
    }
    out.mfs = MaximalOf(std::move(frequent));
    out.min_count = min_count;
  } else {
    // No shard found anything frequent, so (partition lemma) nothing is
    // globally frequent: skip the scan, the answer is the empty MFS.
    out.min_count = MinSupportCount(options.min_support, transactions);
  }
  stats.validation_transactions = transactions;
  stats.validate_ms = validate_timer.ElapsedMillis();
  return out;
}

}  // namespace pincer
