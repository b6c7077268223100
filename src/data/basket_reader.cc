#include "data/basket_reader.h"

#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <system_error>

#include "util/failpoint.h"

namespace pincer {

namespace {

// The largest universe a header may declare: one slot per 32-bit id.
constexpr uint64_t kMaxDeclaredItems =
    uint64_t{std::numeric_limits<ItemId>::max()} + 1;

// What operator>> skips between tokens ('\n' never reaches a line).
constexpr bool IsSeparator(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

enum class TokenError { kNone, kNonNumeric, kNegative, kOverflow };

// Reads the token at `p` (not a separator, not the end) as operator>> reads
// an integer: an optional sign, then digits up to the first non-digit.
// Advances `p` past it. A value above `limit` overflows.
TokenError ReadToken(const char*& p, const char* end, uint64_t limit,
                     uint64_t& value) {
  const bool negative = *p == '-';
  if (negative || *p == '+') ++p;
  const auto [next, error] = std::from_chars(p, end, value);
  if (error == std::errc::invalid_argument) return TokenError::kNonNumeric;
  p = next;
  if (negative && (error != std::errc() || value != 0)) {
    return TokenError::kNegative;
  }
  if (error != std::errc() || value > limit) return TokenError::kOverflow;
  return TokenError::kNone;
}

std::string Position(uint64_t line, uint64_t offset, std::string_view source) {
  std::string position =
      "line " + std::to_string(line) + ", byte " + std::to_string(offset);
  if (!source.empty()) position += " of " + std::string(source);
  return position;
}

}  // namespace

BasketReader::BasketReader(std::istream& in, const BasketReaderOptions& options)
    : in_(in), options_(options), buffer_(kBasketBlockBytes) {}

Status BasketReader::ForEachRow(const Callback& on_row,
                                const Callback& on_header) {
  while (true) {
    PINCER_FAILPOINT(options_.read_failpoint);
    std::string_view text;
    if (!NextLine(text)) break;
    ++line_;
    line_offset_ = next_offset_;
    next_offset_ += text.size() + 1;
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);

    const bool header = text.starts_with(kItemsHeaderPrefix);
    if (!header && !text.empty() && text.front() == '#') continue;
    if (!header && failpoint::AnyArmed()) {
      const failpoint::HitResult hit = failpoint::Hit(options_.row_failpoint);
      if (hit.fired && hit.effect != failpoint::Effect::kCorruptRow) {
        return failpoint::ErrorFor(options_.row_failpoint, hit.effect);
      }
      if (hit.fired) {
        corrupted_.assign(text);
        failpoint::CorruptRow(corrupted_);
        text = corrupted_;
      }
    }
    Status status = header ? ParseHeader(text) : ParseRow(text);
    if (!status.ok()) {
      if (options_.malformed_rows == MalformedRowPolicy::kStrict) {
        return status;
      }
      ++rows_skipped_;
    } else if (header) {
      if (on_header) {
        PINCER_RETURN_IF_ERROR(on_header(BasketRow{{}, text}));
      }
    } else if (!items_.empty()) {
      PINCER_RETURN_IF_ERROR(on_row(BasketRow{items_, text}));
    }
  }
  if (in_.bad()) {
    return Status::IoError("read failed at " + Position(line_ + 1, next_offset_,
                                                        options_.source));
  }
  return Status::OK();
}

bool BasketReader::NextLine(std::string_view& line) {
  while (true) {
    const char* begin = buffer_.data() + head_;
    const size_t available = tail_ - head_;
    if (const void* newline = std::memchr(begin, '\n', available)) {
      line = std::string_view(begin, static_cast<const char*>(newline));
      head_ += line.size() + 1;
      return true;
    }
    if (at_end_) {
      line = std::string_view(begin, available);
      head_ = tail_;
      return available > 0;
    }
    // Keep the unfinished line at the front and read the next block after
    // it; a line that fills the whole buffer doubles it.
    std::memmove(buffer_.data(), begin, available);
    head_ = 0;
    tail_ = available;
    if (tail_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    in_.read(buffer_.data() + tail_,
             static_cast<std::streamsize>(buffer_.size() - tail_));
    tail_ += static_cast<size_t>(in_.gcount());
    at_end_ = !in_;
  }
}

Status BasketReader::ParseHeader(std::string_view text) {
  const char* p = text.data() + kItemsHeaderPrefix.size();
  const char* end = text.data() + text.size();
  while (p != end && IsSeparator(*p)) ++p;
  uint64_t declared = 0;
  // Text after the count is ignored, as operator>> ignores it.
  if (p == end ||
      ReadToken(p, end, kMaxDeclaredItems, declared) != TokenError::kNone) {
    return Malformed("bad items header");
  }
  declared_items_ = static_cast<size_t>(declared);
  return Status::OK();
}

Status BasketReader::ParseRow(std::string_view text) {
  items_.clear();
  const char* p = text.data();
  const char* end = text.data() + text.size();
  while (true) {
    while (p != end && IsSeparator(*p)) ++p;
    if (p == end) return Status::OK();
    uint64_t id = 0;
    switch (ReadToken(p, end, std::numeric_limits<ItemId>::max(), id)) {
      case TokenError::kNone:
        break;
      case TokenError::kNonNumeric:
        return Malformed("non-numeric token");
      case TokenError::kNegative:
        return Malformed("negative item id");
      case TokenError::kOverflow:
        return Malformed("item id overflows 32 bits");
    }
    if (declared_items_ > 0 && id >= declared_items_) {
      return Malformed("item id " + std::to_string(id) +
                       " exceeds declared universe (# items: " +
                       std::to_string(declared_items_) + ")");
    }
    items_.push_back(static_cast<ItemId>(id));
  }
}

Status BasketReader::Malformed(std::string_view what) const {
  return Status::InvalidArgument(
      std::string(what) + " at " +
      Position(line_, line_offset_, options_.source));
}

}  // namespace pincer
