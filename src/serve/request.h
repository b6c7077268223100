// Wire requests for the mining daemon (serve/server.h). The protocol is one
// JSON object per line; this header defines the parsed form and the strict
// parser. Strictness is deliberate for a long-lived service: unknown keys,
// wrong types, and malformed numbers are all InvalidArgument instead of
// being silently defaulted — a typo'd "min_suport" must not mine at 1%.
// The full schema is documented in docs/serving.md.

#ifndef PINCER_SERVE_REQUEST_H_
#define PINCER_SERVE_REQUEST_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "mining/miner.h"
#include "util/statusor.h"

namespace pincer {

/// One parsed request line.
struct Request {
  enum class Op {
    /// Liveness probe; echoes id.
    kPing,
    /// Lists the resident databases and cache occupancy.
    kList,
    /// Mines one resident database (the fields below).
    kMine,
    /// Asks the daemon to stop accepting connections and exit.
    kShutdown,
  };

  Op op = Op::kPing;
  /// Optional client-chosen correlation token (a JSON string), echoed in
  /// the response. Empty = absent.
  std::string id;

  // kMine fields. Mirrors the mine_cli surface minus backend/threads: the
  // daemon always counts through each database's resident backend=auto
  // counter and the shared pool, which is result-invariant (all backends
  // count identically), so exposing the knobs would only fragment the cache.
  std::string database;
  double min_support = 0.0;
  Algorithm algorithm = Algorithm::kPincerAdaptive;
  bool use_array_fast_path = true;
  size_t max_passes = 0;
  size_t mfcs_cardinality_limit = 0;
  size_t mfcs_work_limit = 0;
  /// Per-query wall-clock budget in milliseconds; 0 = the server default.
  double budget_ms = 0;
  /// True bypasses the result cache (always mines, result not stored).
  bool no_cache = false;
};

/// Parses one request line. InvalidArgument on malformed JSON, a non-object
/// document, an unknown op or key, a missing required field (`database`,
/// `min_support` for mine), a wrong-typed value, or a number that fails the
/// util/parse_number.h checks (the same helpers the CLI flags use).
StatusOr<Request> ParseRequest(std::string_view line);

std::string_view RequestOpName(Request::Op op);

}  // namespace pincer

#endif  // PINCER_SERVE_REQUEST_H_
