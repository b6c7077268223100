#include "util/json_reader.h"

#include <cerrno>
#include <cstdlib>
#include <string>

namespace pincer {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<bool> JsonValue::AsBool() const {
  if (type != Type::kBool) return std::nullopt;
  return boolean;
}

std::optional<uint64_t> JsonValue::AsUint64() const {
  if (type != Type::kNumber || scalar.empty() || scalar[0] == '-') {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t value = std::strtoull(scalar.c_str(), &end, 10);
  if (errno == ERANGE || end != scalar.c_str() + scalar.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<int64_t> JsonValue::AsInt64() const {
  if (type != Type::kNumber || scalar.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const int64_t value = std::strtoll(scalar.c_str(), &end, 10);
  if (errno == ERANGE || end != scalar.c_str() + scalar.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> JsonValue::AsDouble() const {
  if (type != Type::kNumber || scalar.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(scalar.c_str(), &end);
  if (end != scalar.c_str() + scalar.size()) return std::nullopt;
  return value;
}

std::optional<std::string_view> JsonValue::AsString() const {
  if (type != Type::kString) return std::nullopt;
  return std::string_view(scalar);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    PINCER_RETURN_IF_ERROR(ParseValue(value, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing content");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return ParseString(out.scalar);
      case 't':
        if (!ConsumeWord("true")) return Error("bad literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Error("bad literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return Status::OK();
      case 'n':
        if (!ConsumeWord("null")) return Error("bad literal");
        out.type = JsonValue::Type::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      PINCER_RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      PINCER_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      PINCER_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad \\u escape");
              }
            }
            pos_ += 4;
            // Encode the BMP code point as UTF-8; surrogate pairs are not
            // produced by our writer and are rejected.
            if (code >= 0xD800 && code <= 0xDFFF) {
              return Error("unsupported surrogate escape");
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("bad escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    if (!SkipDigits()) return Error("bad number");
    if (Consume('.')) {
      if (!SkipDigits()) return Error("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!SkipDigits()) return Error("bad number");
    }
    out.type = JsonValue::Type::kNumber;
    out.scalar = std::string(text_.substr(start, pos_ - start));
    return Status::OK();
  }

  bool SkipDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace pincer
