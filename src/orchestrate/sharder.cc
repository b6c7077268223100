#include "orchestrate/sharder.h"

#include <cstdio>
#include <fstream>

#include "data/basket_reader.h"
#include "util/failpoint.h"

namespace pincer {

std::string ShardFileName(size_t shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%04zu.basket", shard_index);
  return name;
}

StatusOr<ShardPlan> ShardDatabaseFile(const std::string& database_path,
                                      const std::string& output_dir,
                                      size_t num_shards,
                                      MalformedRowPolicy malformed_rows) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  PINCER_FAILPOINT("streaming.open");
  std::ifstream in(database_path);
  if (!in) return Status::IoError("cannot open " + database_path);

  ShardPlan plan;
  plan.shards.resize(num_shards);
  std::vector<std::ofstream> outs(num_shards);
  std::vector<std::string> tmp_paths(num_shards);
  // Best-effort removal of every temp file on any failure exit.
  const auto cleanup = [&tmp_paths] {
    for (const std::string& tmp : tmp_paths) {
      if (!tmp.empty()) std::remove(tmp.c_str());
    }
  };
  for (size_t s = 0; s < num_shards; ++s) {
    plan.shards[s].path = output_dir + "/" + ShardFileName(s);
    tmp_paths[s] = plan.shards[s].path + ".tmp";
    outs[s].open(tmp_paths[s], std::ios::binary | std::ios::trunc);
    if (!outs[s]) {
      cleanup();
      return Status::IoError("cannot open " + tmp_paths[s] + " for writing");
    }
  }

  // Every header goes into every shard at its place in the stream, so each
  // shard row sits under the same declared universe as in the source.
  BasketReader reader(in, {malformed_rows, "streaming.read",
                           "streaming.parse_row", database_path});
  const Status status = reader.ForEachRow(
      [&](const BasketRow& row) {
        // Round-robin on the index of the valid transaction: shard
        // membership is a pure function of (file contents, num_shards).
        const size_t shard = plan.transactions % num_shards;
        outs[shard] << row.text << '\n';
        ++plan.shards[shard].rows;
        ++plan.transactions;
        return Status::OK();
      },
      [&](const BasketRow& header) {
        for (std::ofstream& out : outs) out << header.text << '\n';
        return Status::OK();
      });
  if (!status.ok()) {
    cleanup();
    return status;
  }
  plan.rows_skipped = reader.rows_skipped();
  plan.declared_items = reader.declared_items();

  for (size_t s = 0; s < num_shards; ++s) {
    outs[s].flush();
    if (!outs[s]) {
      cleanup();
      return Status::IoError("write failed for " + tmp_paths[s]);
    }
    outs[s].close();
  }
  // All streams flushed cleanly; move the shards into place.
  for (size_t s = 0; s < num_shards; ++s) {
    if (std::rename(tmp_paths[s].c_str(), plan.shards[s].path.c_str()) != 0) {
      cleanup();
      return Status::IoError("cannot rename " + tmp_paths[s] + " to " +
                             plan.shards[s].path);
    }
    tmp_paths[s].clear();  // renamed: nothing left to clean up
  }
  return plan;
}

}  // namespace pincer
