// Policy for rows that fail to parse (non-numeric tokens, negative or
// overflowing item ids, items at or beyond the declared universe) and for
// bad "# items: N" headers. The basket reader (data/basket_reader.h)
// applies it, so the in-memory loader, the disk-streaming counter and the
// sharder all treat a malformed line the same way.

#ifndef PINCER_DATA_ROW_POLICY_H_
#define PINCER_DATA_ROW_POLICY_H_

#include <optional>
#include <string_view>

namespace pincer {

/// What to do with a malformed row.
enum class MalformedRowPolicy {
  /// Fail the whole read with InvalidArgument naming the row's position.
  /// The default: silent data loss is worse than a failed run.
  kStrict,
  /// Drop the offending row, keep reading, and tally it in a
  /// `rows_skipped` counter the caller can surface (stats JSON, CLI
  /// warnings).
  kSkipAndCount,
};

inline std::string_view MalformedRowPolicyName(MalformedRowPolicy policy) {
  switch (policy) {
    case MalformedRowPolicy::kStrict:
      return "strict";
    case MalformedRowPolicy::kSkipAndCount:
      return "skip";
  }
  return "unknown";
}

/// Parses "strict" or "skip" (as accepted by mine_cli --malformed=).
inline std::optional<MalformedRowPolicy> ParseMalformedRowPolicy(
    std::string_view name) {
  if (name == "strict") return MalformedRowPolicy::kStrict;
  if (name == "skip") return MalformedRowPolicy::kSkipAndCount;
  return std::nullopt;
}

}  // namespace pincer

#endif  // PINCER_DATA_ROW_POLICY_H_
