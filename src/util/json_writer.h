// Minimal streaming JSON emitter (no external dependencies) used by the
// observability layer: MiningStats::ToJson, the bench harnesses' --json
// output, mine_cli --stats-json, checkpoints, shard results and the
// daemon's responses. Produces pretty-printed or compact, standards-
// compliant JSON; non-finite doubles (which JSON cannot represent) are
// emitted as null.

#ifndef PINCER_UTIL_JSON_WRITER_H_
#define PINCER_UTIL_JSON_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pincer {

/// Streaming JSON writer over an std::ostream. The caller drives the
/// document structure with Begin/End calls; the writer inserts commas,
/// newlines, and indentation, and escapes strings. Usage:
///
///   JsonWriter json(os);
///   json.BeginObject();
///   json.Key("passes").Value(uint64_t{4});
///   json.Key("per_pass").BeginArray();
///   ...
///   json.EndArray().EndObject();
///
/// Structural misuse (e.g. a value in an object position without a Key) is
/// a programming error and asserts in debug builds; the writer performs no
/// dynamic validation beyond its context stack in release builds.
///
/// Output is appended to one internal buffer and handed to the stream when
/// a top-level value completes, when the buffer passes kFlushBytes, and in
/// the destructor. A caller may therefore write to the stream itself once a
/// document is finished (`os << "\n"`), and the bytes stay in order; it
/// must not write to the stream while a document is still open. One writer
/// may write several top-level documents in turn, with nothing between
/// them but what the caller writes.
class JsonWriter {
 public:
  /// Buffered bytes that trigger a hand-off to the stream mid-document.
  static constexpr size_t kFlushBytes = 64 * 1024;

  /// Writes to `os`, which must outlive the writer. `indent` spaces per
  /// nesting level; 0 emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 2);
  /// Hands whatever is still buffered to the stream, finished or not.
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value or
  /// container.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) {
    return Value(std::string_view(value));
  }
  JsonWriter& Value(bool value);
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(unsigned value) {
    return Value(static_cast<uint64_t>(value));
  }
  /// Doubles use the shortest round-trip decimal form; NaN and +/-Inf
  /// become null.
  JsonWriter& Value(double value);
  JsonWriter& Null();

  /// Splices `json`, which must be one complete JSON value, in a value
  /// position, verbatim: the writer adds the comma and indentation before
  /// it and nothing inside it. Lets a caller serialize a value once and
  /// reuse the text.
  JsonWriter& RawValue(std::string_view json);

  /// Convenience: Key(key).Value(value).
  template <typename T>
  JsonWriter& KeyValue(std::string_view key, T&& value) {
    Key(key);
    return Value(std::forward<T>(value));
  }

  /// JSON string escaping (quotes, backslash, control characters as \uXXXX;
  /// other bytes pass through, so UTF-8 input stays UTF-8). Exposed for
  /// tests and ad-hoc emitters.
  static std::string Escape(std::string_view raw);

 private:
  enum class Scope { kObject, kArray };

  // Comma/newline/indent bookkeeping before a value or key is emitted.
  void BeforeItem();
  void WriteIndent();
  // Bookkeeping after a complete value: marks the container nonempty and
  // hands the buffer to the stream when the document ends or it is full.
  JsonWriter& AfterValue();
  void Flush();

  std::ostream& os_;
  const int indent_;
  std::string buffer_;
  std::vector<Scope> stack_;
  // True when the current container already holds at least one item.
  bool need_comma_ = false;
  // True between Key() and its value: the next value belongs to the key.
  bool pending_key_ = false;
};

}  // namespace pincer

#endif  // PINCER_UTIL_JSON_WRITER_H_
