// The one reader of the basket format. The in-memory loader
// (data/database_io.h), the disk-streaming counter
// (counting/streaming_counter.h) and the sharder (orchestrate/sharder.h)
// are loops over it, so every path accepts, rejects and tallies the same
// bytes the same way. The format:
//   * One transaction per line. A line ends at '\n' and loses one trailing
//     '\r'; a line holding no id is not a transaction. Errors name a line
//     as "line L, byte B": its 1-based number and its first byte's offset.
//   * "# items: N" declares the universe for the rows after it, up to the
//     next header (N = 0 declares none; N may not exceed 2^32). Any other
//     line starting with '#' is a comment.
//   * An id token is what operator>> reads into an integer: an optional
//     sign, then decimal digits up to the first non-digit. So "+1" and "-0"
//     are ids, "12abc" fails at "abc", "1-2" holds the negative id -2. Tokens
//     are separated by spaces, '\t', '\v', '\f' or '\r'.
//   * A row is malformed when a token is not numeric, is negative,
//     overflows 32 bits, or is at or beyond the declared universe; a header
//     is malformed when N is not such a count. kStrict fails the read with
//     InvalidArgument naming the line; kSkipAndCount drops the line and
//     tallies it in rows_skipped().
// The stream is read in blocks of kBasketBlockBytes (a longer line grows
// the buffer), never whole, so a streaming pass holds one block however
// large the file is.

#ifndef PINCER_DATA_BASKET_READER_H_
#define PINCER_DATA_BASKET_READER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/row_policy.h"
#include "itemset/item.h"
#include "util/status.h"

namespace pincer {

inline constexpr std::string_view kItemsHeaderPrefix = "# items:";

inline constexpr size_t kBasketBlockBytes = size_t{64} << 10;

/// One accepted line. The views point into the reader and are valid only
/// during the callback.
struct BasketRow {
  /// Ids in file order, neither sorted nor deduplicated; empty for a header.
  std::span<const ItemId> items;
  /// The line without its '\n' and trailing '\r'.
  std::string_view text;
};

struct BasketReaderOptions {
  MalformedRowPolicy malformed_rows = MalformedRowPolicy::kStrict;
  /// Failpoint hit before each line is read, and once more at the end.
  std::string_view read_failpoint;
  /// Failpoint hit on each row (not a header or comment) before it is
  /// parsed; kCorruptRow makes the row malformed.
  std::string_view row_failpoint;
  /// Named in error messages as "... of <source>" when nonempty.
  std::string_view source;
};

/// Reads one basket stream. The stream and the option views must outlive
/// the reader.
class BasketReader {
 public:
  /// A non-OK Status stops the read and is returned from ForEachRow.
  using Callback = std::function<Status(const BasketRow&)>;

  BasketReader(std::istream& in, const BasketReaderOptions& options);

  /// Reads to the end, calling `on_row` for every valid row holding at
  /// least one id and `on_header` (if set) for every valid header. Returns
  /// the first error: a malformed line under kStrict, a fired failpoint,
  /// IoError when the stream fails, or a callback's Status.
  Status ForEachRow(const Callback& on_row,
                    const Callback& on_header = nullptr);

  /// Lines dropped as malformed under kSkipAndCount.
  uint64_t rows_skipped() const { return rows_skipped_; }

  /// N of the last valid header; 0 if there was none.
  size_t declared_items() const { return declared_items_; }

 private:
  /// The next line without its '\n'; false at the end or on a stream error.
  bool NextLine(std::string_view& line);
  Status ParseHeader(std::string_view text);
  Status ParseRow(std::string_view text);  // into items_
  Status Malformed(std::string_view what) const;

  std::istream& in_;
  BasketReaderOptions options_;
  std::vector<char> buffer_;
  size_t head_ = 0;  // first unconsumed byte of buffer_
  size_t tail_ = 0;  // end of the bytes read into buffer_
  bool at_end_ = false;
  uint64_t line_ = 0;
  uint64_t line_offset_ = 0;
  uint64_t next_offset_ = 0;
  size_t declared_items_ = 0;
  uint64_t rows_skipped_ = 0;
  std::vector<ItemId> items_;
  std::string corrupted_;  // a row rewritten by a fired kCorruptRow point
};

}  // namespace pincer

#endif  // PINCER_DATA_BASKET_READER_H_
