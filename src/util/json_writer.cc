#include "util/json_writer.h"

#include <cassert>
#include <charconv>
#include <cmath>

namespace pincer {

namespace {

// Appends `raw` to `out` with JSON string escaping. Runs of bytes that need
// no escape are appended in one piece.
void AppendEscaped(std::string& out, std::string_view raw) {
  size_t run_start = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run_start, i - run_start);
    run_start = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out.append(escaped, sizeof(escaped));
      }
    }
  }
  out.append(raw.data() + run_start, raw.size() - run_start);
}

template <typename Integer>
void AppendInteger(std::string& out, Integer value) {
  char digits[24];
  const std::to_chars_result result =
      std::to_chars(digits, digits + sizeof(digits), value);
  out.append(digits, result.ptr - digits);
}

}  // namespace

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent) {}

JsonWriter::~JsonWriter() { Flush(); }

void JsonWriter::Flush() {
  if (buffer_.empty()) return;
  os_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void JsonWriter::WriteIndent() {
  if (indent_ <= 0) return;
  buffer_ += '\n';
  buffer_.append(stack_.size() * static_cast<size_t>(indent_), ' ');
}

void JsonWriter::BeforeItem() {
  if (pending_key_) {
    // Value directly after Key(): the separator was already written.
    pending_key_ = false;
    return;
  }
  // Top-level values are separate documents: nothing goes between them.
  if (stack_.empty()) return;
  if (need_comma_) buffer_ += ',';
  WriteIndent();
}

JsonWriter& JsonWriter::AfterValue() {
  need_comma_ = true;
  if (stack_.empty() || buffer_.size() >= kFlushBytes) Flush();
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeItem();
  buffer_ += '{';
  stack_.push_back(Scope::kObject);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  const bool had_items = need_comma_;
  stack_.pop_back();
  if (had_items) WriteIndent();
  buffer_ += '}';
  return AfterValue();
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeItem();
  buffer_ += '[';
  stack_.push_back(Scope::kArray);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty() && stack_.back() == Scope::kArray);
  const bool had_items = need_comma_;
  stack_.pop_back();
  if (had_items) WriteIndent();
  buffer_ += ']';
  return AfterValue();
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  assert(!pending_key_);
  BeforeItem();
  buffer_ += '"';
  AppendEscaped(buffer_, key);
  buffer_ += "\":";
  if (indent_ > 0) buffer_ += ' ';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeItem();
  buffer_ += '"';
  AppendEscaped(buffer_, value);
  buffer_ += '"';
  return AfterValue();
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeItem();
  buffer_ += value ? "true" : "false";
  return AfterValue();
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  BeforeItem();
  AppendInteger(buffer_, value);
  return AfterValue();
}

JsonWriter& JsonWriter::Value(int64_t value) {
  BeforeItem();
  AppendInteger(buffer_, value);
  return AfterValue();
}

JsonWriter& JsonWriter::Value(double value) {
  if (!std::isfinite(value)) return Null();
  BeforeItem();
  // Shortest decimal form that round-trips to the same double.
  char digits[32];
  const std::to_chars_result result =
      std::to_chars(digits, digits + sizeof(digits), value);
  buffer_.append(digits, result.ptr - digits);
  return AfterValue();
}

JsonWriter& JsonWriter::Null() {
  BeforeItem();
  buffer_ += "null";
  return AfterValue();
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  BeforeItem();
  buffer_ += json;
  return AfterValue();
}

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscaped(out, raw);
  return out;
}

}  // namespace pincer
