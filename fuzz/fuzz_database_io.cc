// Fuzzes the basket reader (src/data/basket_reader.cc) — the first
// untrusted-byte surface of every out-of-core run — through all three of
// its callers. Exercises both malformed-row policies, and asserts:
//   * round trip: a successful strict parse survives write→read losslessly
//     (universe size, row count, row contents);
//   * parity: for each policy, ReadDatabase, a StreamingCounter pass over
//     {} and every item that occurs, and ShardDatabaseFile (its shards read
//     back strictly, as workers read them) agree on OK versus the error
//     code, rows_skipped, the transaction count and every item's support.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "counting/streaming_counter.h"
#include "data/database_io.h"
#include "fuzz/fuzz_harness.h"
#include "orchestrate/sharder.h"
#include "util/statusor.h"

namespace pincer {
namespace fuzz {

namespace {

constexpr size_t kShards = 2;

void Require(bool condition) {
  if (!condition) __builtin_trap();
}

// Transactions and per-item supports of a database, or of a set of shards.
struct Tally {
  uint64_t transactions = 0;
  std::map<ItemId, uint64_t> supports;

  void Add(const TransactionDatabase& db) {
    transactions += db.size();
    for (const Transaction& transaction : db.transactions()) {
      for (const ItemId item : transaction) ++supports[item];
    }
  }
};

void CheckParity(const std::string& text, MalformedRowPolicy policy,
                 const std::filesystem::path& dir) {
  const std::string source = (dir / "source.basket").string();
  {
    std::ofstream out(source, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.flush()) return;  // the scratch disk, not the reader, failed
  }

  std::istringstream in(text);
  DatabaseReadOptions read_options;
  read_options.malformed_rows = policy;
  DatabaseReadReport report;
  const StatusOr<TransactionDatabase> db =
      ReadDatabase(in, read_options, &report);

  std::vector<Itemset> candidates = {Itemset{}};
  Tally expected;
  if (db.ok()) {
    expected.Add(*db);
    for (const auto& [item, support] : expected.supports) {
      candidates.push_back(Itemset{item});
    }
  }

  StreamingOptions streaming_options;
  streaming_options.malformed_rows = policy;
  StreamingCounter counter(source, streaming_options);
  const StatusOr<std::vector<uint64_t>> counts =
      counter.CountSupports(candidates);
  Require(counts.ok() == db.ok());
  if (!db.ok()) {
    Require(counts.status().code() == db.status().code());
  } else {
    Require(counter.rows_skipped() == report.rows_skipped);
    Require(counter.last_pass_transactions() == expected.transactions);
    Require((*counts)[0] == expected.transactions);
    size_t c = 1;
    for (const auto& [item, support] : expected.supports) {
      Require((*counts)[c++] == support);
    }
  }

  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source, dir.string(), kShards, policy);
  Require(plan.ok() == db.ok());
  if (!db.ok()) {
    Require(plan.status().code() == db.status().code());
    return;
  }
  Require(plan->rows_skipped == report.rows_skipped);
  Require(plan->transactions == expected.transactions);
  Tally sharded;
  for (const ShardInfo& shard : plan->shards) {
    const StatusOr<TransactionDatabase> shard_db =
        ReadDatabaseFromFile(shard.path);
    Require(shard_db.ok());
    sharded.Add(*shard_db);
  }
  Require(sharded.transactions == expected.transactions);
  Require(sharded.supports == expected.supports);
}

}  // namespace

int FuzzDatabaseIo(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  // Strict policy: any defect must surface as a clean InvalidArgument /
  // IoError, never a crash.
  std::istringstream strict_in(text);
  StatusOr<TransactionDatabase> strict = ReadDatabase(strict_in);

  // Skip-and-count policy must accept every input.
  std::istringstream skip_in(text);
  DatabaseReadOptions skip_options;
  skip_options.malformed_rows = MalformedRowPolicy::kSkipAndCount;
  DatabaseReadReport report;
  StatusOr<TransactionDatabase> skipped =
      ReadDatabase(skip_in, skip_options, &report);
  if (!skipped.ok()) return 0;  // only I/O errors may fail the skip policy

  if (strict.ok()) {
    // Round trip: what we write must read back to the same database.
    std::ostringstream out;
    if (!WriteDatabase(*strict, out).ok()) return 0;
    std::istringstream back_in(out.str());
    StatusOr<TransactionDatabase> back = ReadDatabase(back_in);
    if (!back.ok() || back->num_items() != strict->num_items() ||
        back->size() != strict->size()) {
      __builtin_trap();
    }
    for (size_t i = 0; i < strict->size(); ++i) {
      if (back->transaction(i) != strict->transaction(i)) __builtin_trap();
    }
  }

  // The file-reading paths need the bytes on disk: one scratch directory
  // per process, removed again after each input.
  std::error_code error;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path(error) /
      ("pincer_fuzz_database_io_" + std::to_string(::getpid()));
  if (!error) std::filesystem::create_directories(dir, error);
  if (error) return 0;
  CheckParity(text, MalformedRowPolicy::kStrict, dir);
  CheckParity(text, MalformedRowPolicy::kSkipAndCount, dir);
  std::filesystem::remove_all(dir, error);
  return 0;
}

}  // namespace fuzz
}  // namespace pincer

PINCER_FUZZ_ENTRYPOINT(pincer::fuzz::FuzzDatabaseIo)
