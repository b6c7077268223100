// Streaming sharder: splits one basket file into S shard files without
// ever materializing the database in memory. Valid transactions are dealt
// round-robin, so shard membership is a pure function of (file, S) and the
// shard files are bit-identical across runs — the foundation of the
// orchestrator's determinism argument (docs/sharding.md). Rows go through
// the basket reader (data/basket_reader.h), the one every other path
// uses: strict fails the split with the row's line number and byte
// offset, skip-and-count drops and tallies it, so a worker reading its
// shard afterwards never sees a malformed row. Every valid "# items: N"
// header is copied into every shard at its place in the stream. Shard
// files are written to temp names and renamed into place only after every
// stream flushed cleanly.

#ifndef PINCER_ORCHESTRATE_SHARDER_H_
#define PINCER_ORCHESTRATE_SHARDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/row_policy.h"
#include "util/statusor.h"

namespace pincer {

/// One shard file and how many transactions landed in it.
struct ShardInfo {
  std::string path;
  uint64_t rows = 0;
};

/// What ShardDatabaseFile produced.
struct ShardPlan {
  std::vector<ShardInfo> shards;
  /// Valid (nonempty, parseable) transactions across all shards.
  uint64_t transactions = 0;
  /// Malformed rows dropped under MalformedRowPolicy::kSkipAndCount.
  uint64_t rows_skipped = 0;
  /// The source's last "# items: N" declaration (0 = no header).
  size_t declared_items = 0;
};

/// "shard_0007.basket" — zero-padded so lexicographic order is shard order.
std::string ShardFileName(size_t shard_index);

/// Splits `database_path` into `num_shards` shard files inside
/// `output_dir` (which must already exist). Returns the plan, IoError on
/// read/write failures, InvalidArgument on a malformed row under the
/// strict policy or when num_shards is 0.
StatusOr<ShardPlan> ShardDatabaseFile(const std::string& database_path,
                                      const std::string& output_dir,
                                      size_t num_shards,
                                      MalformedRowPolicy malformed_rows);

}  // namespace pincer

#endif  // PINCER_ORCHESTRATE_SHARDER_H_
