// Pass-level checkpoint/resume for long mining runs. After each completed
// pass a miner snapshots everything its next pass depends on into a
// Checkpoint, which serializes to versioned JSON (written atomically:
// temp file + rename, so a crash mid-write never leaves a torn
// checkpoint). ResumeMaximal (mining/miner.h) reconstructs mid-run state
// from a checkpoint and continues; the resumed run's MFS, supports, and
// cumulative per-pass stats are bit-identical to the uninterrupted run
// (property-tested in tests/differential_stress_test.cc).
//
// Staleness safety: a checkpoint records a fingerprint of the
// result-affecting options and of the database (path, size, row count,
// universe). Resume validates both and rejects mismatches with
// InvalidArgument — a checkpoint is never silently applied to different
// data or a different configuration. Result-invariant knobs (backend,
// thread count, verbosity, metrics collection) are deliberately outside
// the fingerprint: counts are bit-identical across backends and thread
// counts (property-tested), so resuming under a different backend is safe
// and useful.
//
// The checkpoint JSON schema is documented field-by-field in EXPERIMENTS.md.

#ifndef PINCER_MINING_CHECKPOINT_H_
#define PINCER_MINING_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "itemset/item.h"
#include "itemset/itemset.h"
#include "mining/frequent_itemset.h"
#include "mining/mining_stats.h"
#include "mining/options.h"
#include "util/statusor.h"

namespace pincer {

/// Current checkpoint format version. Readers reject other versions.
inline constexpr uint64_t kCheckpointVersion = 1;

/// Identity of the mined database. `rows`/`items` are always filled by the
/// miner; `path`/`file_bytes` only when the database came from a file (the
/// CLI fills them) — empty/0 means "not from a file, skip that check".
struct DatabaseFingerprint {
  std::string path;
  uint64_t file_bytes = 0;
  uint64_t rows = 0;
  uint64_t items = 0;
};

/// Snapshot of a mining run after `next_pass - 1` completed passes.
/// `algorithm` is the driver id ("apriori", "apriori-combined", "pincer");
/// the pure/adaptive pincer distinction lives in the options fingerprint.
/// Unused sections are empty, and a resume refuses any that is not:
/// apriori fills frequent + live_candidates, combined adds precounted,
/// pincer fills frequent (its bottom-up log), live_candidates, mfs, mfcs,
/// support_cache, singleton_counts and the pair_* arrays.
struct Checkpoint {
  uint64_t version = kCheckpointVersion;
  std::string algorithm;
  /// The next pass (Apriori/Pincer) or level (combined) to run; all state
  /// below reflects the run just before that pass started.
  uint64_t next_pass = 0;
  std::string options_fingerprint;
  DatabaseFingerprint database;
  /// Cumulative stats through the last completed pass. Wall-clock fields
  /// cover only completed work; a resumed run adds its own time on top.
  MiningStats stats;

  /// Apriori/combined: the frequent set so far. Pincer: the bottom-up
  /// frequent log (inputs to the final maximality merge).
  std::vector<FrequentItemset> frequent;
  /// L_k — the candidates the next pass generates from.
  std::vector<Itemset> live_candidates;
  /// Combined only: optimistically pre-counted next-level candidates.
  std::vector<FrequentItemset> precounted;
  /// Pincer only: the MFS so far, in internal (insertion) order.
  std::vector<FrequentItemset> mfs;
  /// Pincer only: unclassified MFCS elements, in internal order.
  std::vector<Itemset> mfcs;
  /// Pincer only: the sections of the run's SupportTable, which writes and
  /// reads them (mining/support_table.h): the hash tier sorted by itemset,
  /// the pass-1 item counts, and the pass-2 matrix's items and packed
  /// counts (empty before pass 2).
  std::vector<FrequentItemset> support_cache;
  std::vector<uint64_t> singleton_counts;
  std::vector<ItemId> pair_items;
  std::vector<uint64_t> pair_counts;

  /// Serializes to pretty-printed JSON (schema in EXPERIMENTS.md).
  std::string ToJsonString() const;
};

/// Fingerprint over the result-affecting options for `algorithm`
/// ("apriori", "apriori-combined", "pincer"), as resolved by the caller
/// (MineMaximal's pure/adaptive rewrites must already be applied).
std::string OptionsFingerprint(const MiningOptions& options,
                               std::string_view algorithm);

/// Parses a checkpoint from JSON. Rejects unknown versions and structural
/// mismatches with InvalidArgument.
StatusOr<Checkpoint> ParseCheckpoint(std::string_view json);

/// Reads and parses a checkpoint file.
StatusOr<Checkpoint> ReadCheckpointFromFile(const std::string& path);

/// Writes `checkpoint` to `path` atomically: serialize to `path`.tmp, then
/// rename over `path`. A crash (or an armed `checkpoint.write` failpoint)
/// leaves either the previous checkpoint or a complete new one, never a
/// torn file.
Status WriteCheckpointToFile(const Checkpoint& checkpoint,
                             const std::string& path);

/// Fills `fingerprint->path` and `fingerprint->file_bytes` from the file at
/// `path`. IoError if unreadable.
Status FillFileFingerprint(const std::string& path,
                           DatabaseFingerprint& fingerprint);

/// The file-identity gate of the writers that stamp checkpoints with their
/// database file (mine_cli, the shard worker): InvalidArgument ("checkpoint
/// was written for ...") unless the stamp is empty or matches `file`.
Status CheckCheckpointFile(const Checkpoint& checkpoint,
                           const DatabaseFingerprint& file);

class TransactionDatabase;

/// Staleness gate shared by every resume entry point: rejects with
/// InvalidArgument unless the checkpoint's algorithm id, options
/// fingerprint, and database shape (rows, items) all match the resuming
/// run, no singleton or pair count exceeds the row count, and every
/// non-empty section is one the driver writes (see Checkpoint; the error
/// names the first that is not).
/// Path/file_bytes are the CLI's concern (the library may mine databases
/// that never touched a file).
Status ValidateCheckpointForResume(const Checkpoint& checkpoint,
                                   std::string_view algorithm,
                                   std::string_view options_fingerprint,
                                   const TransactionDatabase& db);

}  // namespace pincer

#endif  // PINCER_MINING_CHECKPOINT_H_
