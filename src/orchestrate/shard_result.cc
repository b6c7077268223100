#include "orchestrate/shard_result.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "util/json_reader.h"
#include "util/json_writer.h"

namespace pincer {

namespace {

// Checksums render as fixed-width hex so the payload/JSON round trip is
// unambiguous.
std::string ToHex64(uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[i] = kDigits[value & 0xF];
    value >>= 4;
  }
  return hex;
}

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed shard result: " + what);
}

}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 14695981039346656037ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string ShardResultChecksumPayload(const ShardResult& result) {
  std::ostringstream os;
  os << "shard_result_v" << result.version << "|index=" << result.shard_index
     << "|path=" << result.shard.path << "|bytes=" << result.shard.file_bytes
     << "|rows=" << result.shard.rows << "|items=" << result.shard.items
     << "|options=" << result.options_fingerprint
     << "|resumed=" << (result.resumed_from_checkpoint ? 1 : 0)
     << "|n=" << result.mfs.size() << "|";
  for (const FrequentItemset& fi : result.mfs) {
    os << fi.support << ":";
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) os << ",";
      os << fi.itemset[i];
    }
    os << ";";
  }
  return os.str();
}

std::string ShardResultToJson(const ShardResult& result) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.KeyValue("version", result.version);
  json.KeyValue("shard_index", result.shard_index);
  json.Key("shard").BeginObject();
  json.KeyValue("path", result.shard.path);
  json.KeyValue("file_bytes", result.shard.file_bytes);
  json.KeyValue("rows", result.shard.rows);
  json.KeyValue("items", result.shard.items);
  json.EndObject();
  json.KeyValue("options_fingerprint", result.options_fingerprint);
  json.KeyValue("resumed_from_checkpoint", result.resumed_from_checkpoint);
  json.KeyValue("passes", result.passes);
  json.KeyValue("mine_ms", result.mine_ms);
  json.Key("mfs").BeginArray();
  for (const FrequentItemset& fi : result.mfs) {
    json.BeginObject();
    json.KeyValue("support", fi.support);
    json.Key("items").BeginArray();
    for (const ItemId item : fi.itemset) {
      json.Value(static_cast<uint64_t>(item));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.KeyValue("checksum",
                ToHex64(Fnv1a64(ShardResultChecksumPayload(result))));
  json.EndObject();
  return os.str();
}

StatusOr<ShardResult> ParseShardResult(std::string_view json) {
  StatusOr<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) return Malformed("root is not an object");

  ShardResult result;
  const JsonValue* version = root.Find("version");
  if (version == nullptr || !version->AsUint64().has_value()) {
    return Malformed("missing version");
  }
  result.version = *version->AsUint64();
  if (result.version != kShardResultVersion) {
    return Malformed("unsupported version " + std::to_string(result.version) +
                     " (this reader supports " +
                     std::to_string(kShardResultVersion) + ")");
  }

  const JsonValue* index = root.Find("shard_index");
  if (index == nullptr || !index->AsUint64().has_value()) {
    return Malformed("missing shard_index");
  }
  result.shard_index = *index->AsUint64();

  const JsonValue* shard = root.Find("shard");
  if (shard == nullptr || !shard->is_object()) {
    return Malformed("missing shard fingerprint");
  }
  const JsonValue* path = shard->Find("path");
  const JsonValue* bytes = shard->Find("file_bytes");
  const JsonValue* rows = shard->Find("rows");
  const JsonValue* items = shard->Find("items");
  if (path == nullptr || !path->AsString().has_value() || bytes == nullptr ||
      !bytes->AsUint64().has_value() || rows == nullptr ||
      !rows->AsUint64().has_value() || items == nullptr ||
      !items->AsUint64().has_value()) {
    return Malformed("incomplete shard fingerprint");
  }
  result.shard.path = std::string(*path->AsString());
  result.shard.file_bytes = *bytes->AsUint64();
  result.shard.rows = *rows->AsUint64();
  result.shard.items = *items->AsUint64();

  const JsonValue* fingerprint = root.Find("options_fingerprint");
  if (fingerprint == nullptr || !fingerprint->AsString().has_value()) {
    return Malformed("missing options_fingerprint");
  }
  result.options_fingerprint = std::string(*fingerprint->AsString());

  const JsonValue* resumed = root.Find("resumed_from_checkpoint");
  if (resumed == nullptr || !resumed->AsBool().has_value()) {
    return Malformed("missing resumed_from_checkpoint");
  }
  result.resumed_from_checkpoint = *resumed->AsBool();

  const JsonValue* passes = root.Find("passes");
  if (passes == nullptr || !passes->AsUint64().has_value()) {
    return Malformed("missing passes");
  }
  result.passes = *passes->AsUint64();

  const JsonValue* mine_ms = root.Find("mine_ms");
  if (mine_ms == nullptr || !mine_ms->AsDouble().has_value()) {
    return Malformed("missing mine_ms");
  }
  result.mine_ms = *mine_ms->AsDouble();

  const JsonValue* mfs = root.Find("mfs");
  if (mfs == nullptr || !mfs->is_array()) return Malformed("missing mfs");
  result.mfs.reserve(mfs->array.size());
  for (const JsonValue& element : mfs->array) {
    const JsonValue* support = element.Find("support");
    const JsonValue* item_array = element.Find("items");
    if (support == nullptr || !support->AsUint64().has_value() ||
        item_array == nullptr || !item_array->is_array()) {
      return Malformed("malformed mfs element");
    }
    std::vector<ItemId> parsed_items;
    parsed_items.reserve(item_array->array.size());
    for (const JsonValue& item : item_array->array) {
      const std::optional<uint64_t> id = item.AsUint64();
      if (!id.has_value() ||
          *id > std::numeric_limits<ItemId>::max()) {
        return Malformed("item id out of range");
      }
      // Untrusted-input boundary: the writer emits strictly increasing
      // items, so anything else is corruption (FromSorted only DCHECKs).
      if (!parsed_items.empty() &&
          parsed_items.back() >= static_cast<ItemId>(*id)) {
        return Malformed("itemset not strictly increasing");
      }
      parsed_items.push_back(static_cast<ItemId>(*id));
    }
    if (parsed_items.empty()) return Malformed("empty itemset in mfs");
    result.mfs.push_back(
        {Itemset::FromSorted(std::move(parsed_items)), *support->AsUint64()});
  }

  const JsonValue* checksum = root.Find("checksum");
  if (checksum == nullptr || !checksum->AsString().has_value()) {
    return Malformed("missing checksum");
  }
  const std::string expected =
      ToHex64(Fnv1a64(ShardResultChecksumPayload(result)));
  if (*checksum->AsString() != expected) {
    return Malformed("checksum mismatch: file says " +
                     std::string(*checksum->AsString()) +
                     ", payload hashes to " + expected);
  }
  return result;
}

StatusOr<ShardResult> ReadShardResultFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open shard result " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("cannot read shard result " + path);
  return ParseShardResult(buffer.str());
}

Status WriteShardResultToFile(const ShardResult& result,
                              const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + tmp_path + " for writing");
    }
    out << ShardResultToJson(result) << '\n';
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

}  // namespace pincer
