#include "mining/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "data/database.h"
#include "util/contracts.h"
#include "util/failpoint.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace pincer {

namespace {

void WriteItemsetArray(JsonWriter& json, const std::vector<Itemset>& sets) {
  json.BeginArray();
  for (const Itemset& set : sets) {
    json.BeginArray();
    for (ItemId item : set) json.Value(static_cast<uint64_t>(item));
    json.EndArray();
  }
  json.EndArray();
}

void WriteFrequentArray(JsonWriter& json,
                        const std::vector<FrequentItemset>& sets) {
  json.BeginArray();
  for (const FrequentItemset& fi : sets) {
    json.BeginObject();
    json.KeyValue("support", fi.support);
    json.Key("items").BeginArray();
    for (ItemId item : fi.itemset) json.Value(static_cast<uint64_t>(item));
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
}

void WriteU64Array(JsonWriter& json, const std::vector<uint64_t>& values) {
  json.BeginArray();
  for (uint64_t value : values) json.Value(value);
  json.EndArray();
}

// ---- Parse helpers. Each returns InvalidArgument naming the key so a
// hand-edited or truncated checkpoint fails loudly.

Status Missing(const char* key) {
  return Status::InvalidArgument(std::string("checkpoint: missing or bad '") +
                                 key + "'");
}

Status GetU64(const JsonValue& obj, const char* key, uint64_t& out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return Missing(key);
  const std::optional<uint64_t> parsed = value->AsUint64();
  if (!parsed.has_value()) return Missing(key);
  out = *parsed;
  return Status::OK();
}

Status GetSize(const JsonValue& obj, const char* key, size_t& out) {
  uint64_t value = 0;
  PINCER_RETURN_IF_ERROR(GetU64(obj, key, value));
  out = static_cast<size_t>(value);
  return Status::OK();
}

Status GetDouble(const JsonValue& obj, const char* key, double& out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return Missing(key);
  const std::optional<double> parsed = value->AsDouble();
  if (!parsed.has_value()) return Missing(key);
  out = *parsed;
  return Status::OK();
}

Status GetBool(const JsonValue& obj, const char* key, bool& out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return Missing(key);
  const std::optional<bool> parsed = value->AsBool();
  if (!parsed.has_value()) return Missing(key);
  out = *parsed;
  return Status::OK();
}

Status GetString(const JsonValue& obj, const char* key, std::string& out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return Missing(key);
  const std::optional<std::string_view> parsed = value->AsString();
  if (!parsed.has_value()) return Missing(key);
  out = std::string(*parsed);
  return Status::OK();
}

Status ParseItemIds(const JsonValue& array, const char* key,
                    std::vector<ItemId>& out) {
  if (!array.is_array()) return Missing(key);
  out.clear();
  out.reserve(array.array.size());
  for (const JsonValue& entry : array.array) {
    const std::optional<uint64_t> id = entry.AsUint64();
    if (!id.has_value() || *id > std::numeric_limits<ItemId>::max()) {
      return Missing(key);
    }
    out.push_back(static_cast<ItemId>(*id));
  }
  return Status::OK();
}

// Item ids parsed from a checkpoint feed bitset probes and array indexing
// downstream (counters, PairCountMatrix); an id outside the checkpoint's own
// declared universe must be rejected here, at the untrusted-input boundary.
// Itemsets are sorted by construction, so the max id is the last element.
Status CheckItemsInUniverse(const Itemset& itemset, const char* key,
                            uint64_t universe) {
  if (itemset.empty()) return Status::OK();
  const uint64_t max_id = itemset[itemset.size() - 1];
  if (max_id >= universe) {
    return Status::InvalidArgument(
        std::string("checkpoint: ") + key + " contains item id " +
        std::to_string(max_id) + " outside the declared universe of " +
        std::to_string(universe) + " items");
  }
  return Status::OK();
}

Status CheckItemsInUniverse(const std::vector<Itemset>& itemsets,
                            const char* key, uint64_t universe) {
  for (const Itemset& itemset : itemsets) {
    PINCER_RETURN_IF_ERROR(CheckItemsInUniverse(itemset, key, universe));
  }
  return Status::OK();
}

Status CheckItemsInUniverse(const std::vector<FrequentItemset>& elements,
                            const char* key, uint64_t universe) {
  for (const FrequentItemset& element : elements) {
    PINCER_RETURN_IF_ERROR(
        CheckItemsInUniverse(element.itemset, key, universe));
  }
  return Status::OK();
}

Status ParseItemsetArray(const JsonValue& obj, const char* key,
                         std::vector<Itemset>& out) {
  const JsonValue* array = obj.Find(key);
  if (array == nullptr || !array->is_array()) return Missing(key);
  out.clear();
  out.reserve(array->array.size());
  for (const JsonValue& entry : array->array) {
    std::vector<ItemId> items;
    PINCER_RETURN_IF_ERROR(ParseItemIds(entry, key, items));
    out.push_back(Itemset(std::move(items)));
  }
  return Status::OK();
}

Status ParseFrequentArray(const JsonValue& obj, const char* key,
                          std::vector<FrequentItemset>& out) {
  const JsonValue* array = obj.Find(key);
  if (array == nullptr || !array->is_array()) return Missing(key);
  out.clear();
  out.reserve(array->array.size());
  for (const JsonValue& entry : array->array) {
    if (!entry.is_object()) return Missing(key);
    FrequentItemset fi;
    PINCER_RETURN_IF_ERROR(GetU64(entry, "support", fi.support));
    const JsonValue* items = entry.Find("items");
    if (items == nullptr) return Missing(key);
    std::vector<ItemId> ids;
    PINCER_RETURN_IF_ERROR(ParseItemIds(*items, key, ids));
    fi.itemset = Itemset(std::move(ids));
    out.push_back(std::move(fi));
  }
  return Status::OK();
}

Status ParseU64Array(const JsonValue& obj, const char* key,
                     std::vector<uint64_t>& out) {
  const JsonValue* array = obj.Find(key);
  if (array == nullptr || !array->is_array()) return Missing(key);
  out.clear();
  out.reserve(array->array.size());
  for (const JsonValue& entry : array->array) {
    const std::optional<uint64_t> value = entry.AsUint64();
    if (!value.has_value()) return Missing(key);
    out.push_back(*value);
  }
  return Status::OK();
}

Status ParseStats(const JsonValue& obj, MiningStats& stats) {
  PINCER_RETURN_IF_ERROR(GetSize(obj, "passes", stats.passes));
  PINCER_RETURN_IF_ERROR(
      GetU64(obj, "reported_candidates", stats.reported_candidates));
  PINCER_RETURN_IF_ERROR(
      GetU64(obj, "total_candidates", stats.total_candidates));
  PINCER_RETURN_IF_ERROR(GetU64(obj, "mfcs_candidates", stats.mfcs_candidates));
  PINCER_RETURN_IF_ERROR(GetDouble(obj, "elapsed_ms", stats.elapsed_millis));
  PINCER_RETURN_IF_ERROR(GetSize(obj, "num_threads", stats.num_threads));
  PINCER_RETURN_IF_ERROR(GetBool(obj, "aborted", stats.aborted));
  // Schema v1.3 addition; checkpoints written by older binaries lack it.
  if (obj.Find("budget_exceeded") != nullptr) {
    PINCER_RETURN_IF_ERROR(
        GetBool(obj, "budget_exceeded", stats.budget_exceeded));
  }
  PINCER_RETURN_IF_ERROR(GetBool(obj, "mfcs_disabled", stats.mfcs_disabled));
  PINCER_RETURN_IF_ERROR(
      GetSize(obj, "mfcs_disabled_at_pass", stats.mfcs_disabled_at_pass));
  PINCER_RETURN_IF_ERROR(GetU64(obj, "retries", stats.retries));
  PINCER_RETURN_IF_ERROR(GetU64(obj, "rows_skipped", stats.rows_skipped));
  PINCER_RETURN_IF_ERROR(
      GetU64(obj, "rows_dropped_items", stats.rows_dropped_items));

  const JsonValue* counting = obj.Find("counting");
  if (counting == nullptr || !counting->is_object()) return Missing("counting");
  PINCER_RETURN_IF_ERROR(
      GetU64(*counting, "count_calls", stats.counting.count_calls));
  PINCER_RETURN_IF_ERROR(GetU64(*counting, "candidates_counted",
                                stats.counting.candidates_counted));
  PINCER_RETURN_IF_ERROR(GetU64(*counting, "transactions_scanned",
                                stats.counting.transactions_scanned));
  PINCER_RETURN_IF_ERROR(
      GetU64(*counting, "structure_nodes", stats.counting.structure_nodes));

  const JsonValue* per_pass = obj.Find("per_pass");
  if (per_pass == nullptr || !per_pass->is_array()) return Missing("per_pass");
  stats.per_pass.clear();
  stats.per_pass.reserve(per_pass->array.size());
  for (const JsonValue& entry : per_pass->array) {
    if (!entry.is_object()) return Missing("per_pass");
    PassStats pass;
    PINCER_RETURN_IF_ERROR(GetSize(entry, "pass", pass.pass));
    PINCER_RETURN_IF_ERROR(GetSize(entry, "candidates", pass.num_candidates));
    PINCER_RETURN_IF_ERROR(
        GetSize(entry, "mfcs_candidates", pass.num_mfcs_candidates));
    PINCER_RETURN_IF_ERROR(GetSize(entry, "frequent", pass.num_frequent));
    PINCER_RETURN_IF_ERROR(GetSize(entry, "mfs_found", pass.num_mfs_found));
    PINCER_RETURN_IF_ERROR(
        GetSize(entry, "mfcs_size_after", pass.mfcs_size_after));
    PINCER_RETURN_IF_ERROR(
        GetDouble(entry, "candidate_gen_ms", pass.candidate_gen_ms));
    PINCER_RETURN_IF_ERROR(GetDouble(entry, "counting_ms", pass.counting_ms));
    PINCER_RETURN_IF_ERROR(
        GetDouble(entry, "mfcs_update_ms", pass.mfcs_update_ms));
    // Schema v1.1 addition: absent in checkpoints written by older
    // binaries, which must keep resuming (a pure addition cannot invalidate
    // the version-1 format).
    if (entry.Find("mfcs_index_ms") != nullptr) {
      PINCER_RETURN_IF_ERROR(
          GetDouble(entry, "mfcs_index_ms", pass.mfcs_index_ms));
    }
    // Schema v1.2 addition, optional for the same reason.
    if (entry.Find("backend_used") != nullptr) {
      PINCER_RETURN_IF_ERROR(
          GetString(entry, "backend_used", pass.backend_used));
    }
    stats.per_pass.push_back(pass);
  }
  return Status::OK();
}

}  // namespace

std::string Checkpoint::ToJsonString() const {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.KeyValue("checkpoint_version", version);
  json.KeyValue("algorithm", algorithm);
  json.KeyValue("next_pass", next_pass);
  json.KeyValue("options_fingerprint", options_fingerprint);
  json.Key("database").BeginObject();
  json.KeyValue("path", database.path);
  json.KeyValue("file_bytes", database.file_bytes);
  json.KeyValue("rows", database.rows);
  json.KeyValue("items", database.items);
  json.EndObject();
  json.Key("stats");
  stats.ToJson(json);
  json.Key("frequent");
  WriteFrequentArray(json, frequent);
  json.Key("live_candidates");
  WriteItemsetArray(json, live_candidates);
  json.Key("precounted");
  WriteFrequentArray(json, precounted);
  json.Key("mfs");
  WriteFrequentArray(json, mfs);
  json.Key("mfcs");
  WriteItemsetArray(json, mfcs);
  json.Key("support_cache");
  WriteFrequentArray(json, support_cache);
  json.Key("singleton_counts");
  WriteU64Array(json, singleton_counts);
  // Write-side twin of the parse-time validation: a producer handing us an
  // unsorted pair list is a library bug, not a data error.
  PINCER_DCHECK_SORTED_UNIQUE(pair_items);
  json.Key("pair_items").BeginArray();
  for (ItemId item : pair_items) json.Value(static_cast<uint64_t>(item));
  json.EndArray();
  json.Key("pair_counts");
  WriteU64Array(json, pair_counts);
  json.EndObject();
  return os.str();
}

std::string OptionsFingerprint(const MiningOptions& options,
                               std::string_view algorithm,
                               size_t combine_threshold) {
  std::ostringstream os;
  os << "v" << kCheckpointVersion << ";alg=" << algorithm
     << ";min_support=" << std::setprecision(17) << options.min_support
     << ";fast_path=" << (options.use_array_fast_path ? 1 : 0)
     << ";max_passes=" << options.max_passes
     << ";mfcs_cardinality_limit=" << options.mfcs_cardinality_limit
     << ";mfcs_work_limit=" << options.mfcs_work_limit;
  if (algorithm == "apriori-combined") {
    os << ";combine_threshold=" << combine_threshold;
  }
  return os.str();
}

StatusOr<Checkpoint> ParseCheckpoint(std::string_view json_text) {
  StatusOr<JsonValue> parsed = ParseJson(json_text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("checkpoint: " + parsed.status().message());
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("checkpoint: document is not an object");
  }

  Checkpoint checkpoint;
  PINCER_RETURN_IF_ERROR(
      GetU64(root, "checkpoint_version", checkpoint.version));
  if (checkpoint.version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "checkpoint: unsupported version " +
        std::to_string(checkpoint.version) + " (expected " +
        std::to_string(kCheckpointVersion) + ")");
  }
  PINCER_RETURN_IF_ERROR(GetString(root, "algorithm", checkpoint.algorithm));
  PINCER_RETURN_IF_ERROR(GetU64(root, "next_pass", checkpoint.next_pass));
  if (checkpoint.next_pass < 2) {
    return Status::InvalidArgument(
        "checkpoint: next_pass must be >= 2 (pass 1 always precedes a "
        "checkpoint)");
  }
  PINCER_RETURN_IF_ERROR(
      GetString(root, "options_fingerprint", checkpoint.options_fingerprint));

  const JsonValue* database = root.Find("database");
  if (database == nullptr || !database->is_object()) return Missing("database");
  PINCER_RETURN_IF_ERROR(
      GetString(*database, "path", checkpoint.database.path));
  PINCER_RETURN_IF_ERROR(
      GetU64(*database, "file_bytes", checkpoint.database.file_bytes));
  PINCER_RETURN_IF_ERROR(GetU64(*database, "rows", checkpoint.database.rows));
  PINCER_RETURN_IF_ERROR(GetU64(*database, "items", checkpoint.database.items));

  const JsonValue* stats = root.Find("stats");
  if (stats == nullptr || !stats->is_object()) return Missing("stats");
  PINCER_RETURN_IF_ERROR(ParseStats(*stats, checkpoint.stats));

  PINCER_RETURN_IF_ERROR(
      ParseFrequentArray(root, "frequent", checkpoint.frequent));
  PINCER_RETURN_IF_ERROR(
      ParseItemsetArray(root, "live_candidates", checkpoint.live_candidates));
  PINCER_RETURN_IF_ERROR(
      ParseFrequentArray(root, "precounted", checkpoint.precounted));
  PINCER_RETURN_IF_ERROR(ParseFrequentArray(root, "mfs", checkpoint.mfs));
  PINCER_RETURN_IF_ERROR(ParseItemsetArray(root, "mfcs", checkpoint.mfcs));
  PINCER_RETURN_IF_ERROR(
      ParseFrequentArray(root, "support_cache", checkpoint.support_cache));
  PINCER_RETURN_IF_ERROR(
      ParseU64Array(root, "singleton_counts", checkpoint.singleton_counts));
  const JsonValue* pair_items = root.Find("pair_items");
  if (pair_items == nullptr) return Missing("pair_items");
  PINCER_RETURN_IF_ERROR(
      ParseItemIds(*pair_items, "pair_items", checkpoint.pair_items));
  // The pass-2 matrix restored from this list assumes (and now contracts
  // on) strictly increasing ids; a crafted or corrupted checkpoint must be
  // rejected here, at the untrusted-input boundary, not by an abort later.
  if (!contracts::IsStrictlyIncreasing(checkpoint.pair_items)) {
    return Status::InvalidArgument(
        "checkpoint: pair_items must be strictly increasing item ids");
  }
  PINCER_RETURN_IF_ERROR(
      ParseU64Array(root, "pair_counts", checkpoint.pair_counts));

  const uint64_t universe = checkpoint.database.items;
  PINCER_RETURN_IF_ERROR(
      CheckItemsInUniverse(checkpoint.frequent, "frequent", universe));
  PINCER_RETURN_IF_ERROR(CheckItemsInUniverse(
      checkpoint.live_candidates, "live_candidates", universe));
  PINCER_RETURN_IF_ERROR(
      CheckItemsInUniverse(checkpoint.precounted, "precounted", universe));
  PINCER_RETURN_IF_ERROR(CheckItemsInUniverse(checkpoint.mfs, "mfs", universe));
  PINCER_RETURN_IF_ERROR(
      CheckItemsInUniverse(checkpoint.mfcs, "mfcs", universe));
  PINCER_RETURN_IF_ERROR(CheckItemsInUniverse(checkpoint.support_cache,
                                              "support_cache", universe));
  if (!checkpoint.pair_items.empty() &&
      checkpoint.pair_items.back() >= universe) {
    return Status::InvalidArgument(
        "checkpoint: pair_items contains item id " +
        std::to_string(checkpoint.pair_items.back()) +
        " outside the declared universe of " + std::to_string(universe) +
        " items");
  }
  return checkpoint;
}

StatusOr<Checkpoint> ReadCheckpointFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open checkpoint " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("cannot read checkpoint " + path);
  return ParseCheckpoint(buffer.str());
}

Status WriteCheckpointToFile(const Checkpoint& checkpoint,
                             const std::string& path) {
  PINCER_FAILPOINT("checkpoint.write");
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + tmp_path + " for writing");
    }
    out << checkpoint.ToJsonString() << '\n';
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

Status ValidateCheckpointForResume(const Checkpoint& checkpoint,
                                   std::string_view algorithm,
                                   std::string_view options_fingerprint,
                                   const TransactionDatabase& db) {
  if (checkpoint.next_pass < 2) {
    return Status::InvalidArgument(
        "checkpoint next_pass must be >= 2, got " +
        std::to_string(checkpoint.next_pass));
  }
  if (checkpoint.algorithm != algorithm) {
    return Status::InvalidArgument(
        "checkpoint was written by algorithm '" + checkpoint.algorithm +
        "', cannot resume as '" + std::string(algorithm) + "'");
  }
  if (checkpoint.options_fingerprint != options_fingerprint) {
    return Status::InvalidArgument(
        "checkpoint options fingerprint '" + checkpoint.options_fingerprint +
        "' does not match this run's '" + std::string(options_fingerprint) +
        "'");
  }
  if (checkpoint.database.rows != db.size()) {
    return Status::InvalidArgument(
        "checkpoint database has " + std::to_string(checkpoint.database.rows) +
        " rows, this database has " + std::to_string(db.size()));
  }
  if (checkpoint.database.items != db.num_items()) {
    return Status::InvalidArgument(
        "checkpoint database has " +
        std::to_string(checkpoint.database.items) + " items, this database " +
        "has " + std::to_string(db.num_items()));
  }
  // No itemset occurs in more rows than there are; the pair matrix keeps
  // its counts in 32-bit cells on the strength of that bound.
  for (const auto* counts :
       {&checkpoint.singleton_counts, &checkpoint.pair_counts}) {
    for (const uint64_t count : *counts) {
      if (count > db.size()) {
        return Status::InvalidArgument(
            "checkpoint count " + std::to_string(count) + " exceeds the " +
            std::to_string(db.size()) + " rows of this database");
      }
    }
  }
  return Status::OK();
}

Status CheckCheckpointFile(const Checkpoint& checkpoint,
                           const DatabaseFingerprint& file) {
  const DatabaseFingerprint& stamp = checkpoint.database;
  if (stamp.path.empty() ||
      (stamp.path == file.path && stamp.file_bytes == file.file_bytes)) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "checkpoint was written for " + stamp.path + " (" +
      std::to_string(stamp.file_bytes) + " bytes), not " + file.path + " (" +
      std::to_string(file.file_bytes) + " bytes)");
}

Status FillFileFingerprint(const std::string& path,
                           DatabaseFingerprint& fingerprint) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size " + path);
  fingerprint.path = path;
  fingerprint.file_bytes = static_cast<uint64_t>(size);
  return Status::OK();
}

}  // namespace pincer
