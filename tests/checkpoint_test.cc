// Tests for the pass-level checkpoint subsystem: JSON round-trips, atomic
// file writes, stale-checkpoint rejection, and resume determinism (every
// algorithm, every pass boundary).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mining/checkpoint.h"
#include "mining/miner.h"
#include "testing/db_builder.h"
#include "util/failpoint.h"

namespace pincer {
namespace {

Checkpoint MakeFullCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.algorithm = "pincer";
  checkpoint.next_pass = 4;
  checkpoint.options_fingerprint = "v1;alg=pincer;min_support=0.25";
  checkpoint.database.path = "some/db.basket";
  checkpoint.database.file_bytes = 12345;
  checkpoint.database.rows = 100;
  checkpoint.database.items = 20;
  checkpoint.stats.passes = 3;
  checkpoint.stats.reported_candidates = 17;
  checkpoint.stats.total_candidates = 240;
  checkpoint.stats.mfcs_candidates = 5;
  checkpoint.stats.elapsed_millis = 12.5;
  checkpoint.stats.retries = 2;
  checkpoint.stats.rows_skipped = 1;
  PassStats pass;
  pass.pass = 3;
  pass.num_candidates = 12;
  pass.num_mfcs_candidates = 5;
  pass.num_frequent = 7;
  pass.num_mfs_found = 1;
  pass.mfcs_size_after = 4;
  pass.counting_ms = 3.25;
  checkpoint.stats.per_pass.push_back(pass);
  checkpoint.frequent = {{Itemset{0, 1}, 40}, {Itemset{2, 3, 4}, 33}};
  checkpoint.live_candidates = {Itemset{0, 1, 2}, Itemset{5, 6, 7}};
  checkpoint.precounted = {{Itemset{8, 9}, 11}};
  checkpoint.mfs = {{Itemset{10, 11, 12}, 25}};
  checkpoint.mfcs = {Itemset{0, 1, 2, 3}, Itemset{5, 6}};
  checkpoint.support_cache = {{Itemset{0, 1, 2}, 9}, {Itemset{1, 2, 3}, 0}};
  checkpoint.singleton_counts = {50, 40, 30, 0, 10};
  checkpoint.pair_items = {0, 1, 2};
  checkpoint.pair_counts = {12, 7, 9};
  return checkpoint;
}

void ExpectEqual(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.next_pass, b.next_pass);
  EXPECT_EQ(a.options_fingerprint, b.options_fingerprint);
  EXPECT_EQ(a.database.path, b.database.path);
  EXPECT_EQ(a.database.file_bytes, b.database.file_bytes);
  EXPECT_EQ(a.database.rows, b.database.rows);
  EXPECT_EQ(a.database.items, b.database.items);
  EXPECT_EQ(a.stats.passes, b.stats.passes);
  EXPECT_EQ(a.stats.reported_candidates, b.stats.reported_candidates);
  EXPECT_EQ(a.stats.total_candidates, b.stats.total_candidates);
  EXPECT_EQ(a.stats.mfcs_candidates, b.stats.mfcs_candidates);
  EXPECT_EQ(a.stats.elapsed_millis, b.stats.elapsed_millis);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.rows_skipped, b.stats.rows_skipped);
  ASSERT_EQ(a.stats.per_pass.size(), b.stats.per_pass.size());
  for (size_t i = 0; i < a.stats.per_pass.size(); ++i) {
    EXPECT_EQ(a.stats.per_pass[i].pass, b.stats.per_pass[i].pass);
    EXPECT_EQ(a.stats.per_pass[i].num_candidates,
              b.stats.per_pass[i].num_candidates);
    EXPECT_EQ(a.stats.per_pass[i].counting_ms, b.stats.per_pass[i].counting_ms);
  }
  EXPECT_EQ(a.frequent, b.frequent);
  EXPECT_EQ(a.live_candidates, b.live_candidates);
  EXPECT_EQ(a.precounted, b.precounted);
  EXPECT_EQ(a.mfs, b.mfs);
  EXPECT_EQ(a.mfcs, b.mfcs);
  EXPECT_EQ(a.support_cache, b.support_cache);
  EXPECT_EQ(a.singleton_counts, b.singleton_counts);
  EXPECT_EQ(a.pair_items, b.pair_items);
  EXPECT_EQ(a.pair_counts, b.pair_counts);
}

TEST(Checkpoint, JsonRoundTripPreservesEveryField) {
  const Checkpoint original = MakeFullCheckpoint();
  const StatusOr<Checkpoint> parsed = ParseCheckpoint(original.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectEqual(original, *parsed);
}

TEST(Checkpoint, SerializationIsDeterministic) {
  const Checkpoint checkpoint = MakeFullCheckpoint();
  EXPECT_EQ(checkpoint.ToJsonString(), checkpoint.ToJsonString());
}

TEST(Checkpoint, RejectsWrongVersion) {
  Checkpoint checkpoint = MakeFullCheckpoint();
  checkpoint.version = kCheckpointVersion + 1;
  const StatusOr<Checkpoint> parsed = ParseCheckpoint(checkpoint.ToJsonString());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, RejectsPreFirstPassCheckpoint) {
  // next_pass < 2 would mean "no pass completed" — such a checkpoint is
  // never written, and a reader must not fabricate one.
  Checkpoint checkpoint = MakeFullCheckpoint();
  checkpoint.next_pass = 1;
  EXPECT_FALSE(ParseCheckpoint(checkpoint.ToJsonString()).ok());
}

TEST(Checkpoint, RejectsGarbageAndMissingFields) {
  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("not json").ok());
  EXPECT_FALSE(ParseCheckpoint("{}").ok());
  EXPECT_FALSE(ParseCheckpoint("[1, 2, 3]").ok());
  // A truncated document (torn write simulation) must fail cleanly.
  const std::string full = MakeFullCheckpoint().ToJsonString();
  EXPECT_FALSE(ParseCheckpoint(full.substr(0, full.size() / 2)).ok());
}

// Regression (found by fuzz_checkpoint): pair_items fed PairCountMatrix,
// whose contract requires strictly increasing item ids, without any parse
// validation — a crafted checkpoint with unsorted or duplicate pair_items
// reached the contract abort instead of a Status. Parse must reject it.
TEST(Checkpoint, RejectsUnsortedOrDuplicatePairItems) {
  const std::string full = MakeFullCheckpoint().ToJsonString();
  const size_t key = full.find("\"pair_items\"");
  ASSERT_NE(key, std::string::npos);
  const size_t open = full.find('[', key);
  const size_t close = full.find(']', open);
  ASSERT_NE(close, std::string::npos);
  for (const char* bad : {"[2,1,0]", "[0,1,1]", "[1,0,2]"}) {
    std::string tampered = full;
    tampered.replace(open, close - open + 1, bad);
    const StatusOr<Checkpoint> parsed = ParseCheckpoint(tampered);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.status().message().find("pair_items"),
              std::string::npos)
        << parsed.status().message();
  }
}

// Regression (found by fuzz-session review): item ids parsed from a
// checkpoint were never validated against the checkpoint's own declared
// universe (database.items), so a crafted document could drive
// out-of-range bitset probes in the counters on resume. Parse must reject
// any id >= database.items.
TEST(Checkpoint, RejectsItemIdsOutsideDeclaredUniverse) {
  {
    Checkpoint checkpoint = MakeFullCheckpoint();  // database.items = 20
    checkpoint.live_candidates.push_back(Itemset{5, 20});
    const StatusOr<Checkpoint> parsed =
        ParseCheckpoint(checkpoint.ToJsonString());
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("live_candidates"),
              std::string::npos)
        << parsed.status().message();
  }
  {
    Checkpoint checkpoint = MakeFullCheckpoint();
    checkpoint.mfs.push_back({Itemset{1000000}, 1});
    EXPECT_FALSE(ParseCheckpoint(checkpoint.ToJsonString()).ok());
  }
  {
    Checkpoint checkpoint = MakeFullCheckpoint();
    checkpoint.pair_items = {0, 1, 20};
    EXPECT_FALSE(ParseCheckpoint(checkpoint.ToJsonString()).ok());
  }
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    path_ = ::testing::TempDir() + "/pincer_checkpoint_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(CheckpointFileTest, FileRoundTrip) {
  const Checkpoint original = MakeFullCheckpoint();
  ASSERT_TRUE(WriteCheckpointToFile(original, path_).ok());
  const StatusOr<Checkpoint> restored = ReadCheckpointFromFile(path_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectEqual(original, *restored);
}

TEST_F(CheckpointFileTest, FailedWritePreservesPreviousCheckpoint) {
  Checkpoint first = MakeFullCheckpoint();
  ASSERT_TRUE(WriteCheckpointToFile(first, path_).ok());

  failpoint::Arm("checkpoint.write",
                 failpoint::Config{failpoint::Trigger::Once(),
                                   failpoint::Effect::kIoError});
  Checkpoint second = MakeFullCheckpoint();
  second.next_pass = 9;
  EXPECT_FALSE(WriteCheckpointToFile(second, path_).ok());

  // The atomic temp+rename protocol: the old checkpoint survives intact.
  const StatusOr<Checkpoint> survivor = ReadCheckpointFromFile(path_);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor->next_pass, first.next_pass);
}

TEST_F(CheckpointFileTest, MissingFileIsIoError) {
  const StatusOr<Checkpoint> missing = ReadCheckpointFromFile(path_);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointFileTest, FillFileFingerprint) {
  {
    std::ofstream out(path_);
    out << "12345";
  }
  DatabaseFingerprint fingerprint;
  ASSERT_TRUE(FillFileFingerprint(path_, fingerprint).ok());
  EXPECT_EQ(fingerprint.path, path_);
  EXPECT_EQ(fingerprint.file_bytes, 5u);
  DatabaseFingerprint missing;
  EXPECT_EQ(FillFileFingerprint("/nonexistent/x", missing).code(),
            StatusCode::kIoError);
}

TEST(OptionsFingerprint, SeparatesResultAffectingOptions) {
  MiningOptions options;
  options.min_support = 0.1;
  const std::string base = OptionsFingerprint(options, "pincer");

  // Result-affecting knobs change the fingerprint.
  MiningOptions support = options;
  support.min_support = 0.2;
  EXPECT_NE(OptionsFingerprint(support, "pincer"), base);
  MiningOptions fast = options;
  fast.use_array_fast_path = false;
  EXPECT_NE(OptionsFingerprint(fast, "pincer"), base);
  MiningOptions caps = options;
  caps.mfcs_cardinality_limit = 7;
  EXPECT_NE(OptionsFingerprint(caps, "pincer"), base);
  EXPECT_NE(OptionsFingerprint(options, "apriori"), base);

  // Result-invariant knobs (backend, threads, metrics) do not: counts are
  // bit-identical across them, so resuming under a different backend is
  // legal and useful.
  MiningOptions invariant = options;
  invariant.backend = CounterBackend::kLinear;
  invariant.num_threads = 8;
  invariant.collect_counter_metrics = true;
  invariant.verbose = true;
  EXPECT_EQ(OptionsFingerprint(invariant, "pincer"), base);

  // The combined-pass threshold participates only for apriori-combined.
  EXPECT_NE(OptionsFingerprint(options, "apriori-combined", 50),
            OptionsFingerprint(options, "apriori-combined", 100));
}

// ---------------------------------------------------------------------------
// Resume determinism: for every algorithm, capture a checkpoint after every
// pass, resume from each, and demand the bit-identical MFS, supports, and
// cumulative structural stats of the uninterrupted run.

TransactionDatabase ResumeDb() {
  RandomDbParams params;
  params.num_items = 14;
  params.num_transactions = 120;
  params.item_probability = 0.4;
  params.seed = 1234;
  return MakeRandomDatabase(params);
}

void ExpectStructuralStatsEqual(const MiningStats& a, const MiningStats& b,
                                const std::string& context) {
  EXPECT_EQ(a.passes, b.passes) << context;
  EXPECT_EQ(a.reported_candidates, b.reported_candidates) << context;
  EXPECT_EQ(a.total_candidates, b.total_candidates) << context;
  EXPECT_EQ(a.mfcs_candidates, b.mfcs_candidates) << context;
  EXPECT_EQ(a.aborted, b.aborted) << context;
  EXPECT_EQ(a.mfcs_disabled, b.mfcs_disabled) << context;
  EXPECT_EQ(a.mfcs_disabled_at_pass, b.mfcs_disabled_at_pass) << context;
  ASSERT_EQ(a.per_pass.size(), b.per_pass.size()) << context;
  for (size_t i = 0; i < a.per_pass.size(); ++i) {
    EXPECT_EQ(a.per_pass[i].pass, b.per_pass[i].pass) << context;
    EXPECT_EQ(a.per_pass[i].num_candidates, b.per_pass[i].num_candidates)
        << context;
    EXPECT_EQ(a.per_pass[i].num_mfcs_candidates,
              b.per_pass[i].num_mfcs_candidates)
        << context;
    EXPECT_EQ(a.per_pass[i].num_frequent, b.per_pass[i].num_frequent)
        << context;
    EXPECT_EQ(a.per_pass[i].num_mfs_found, b.per_pass[i].num_mfs_found)
        << context;
    EXPECT_EQ(a.per_pass[i].mfcs_size_after, b.per_pass[i].mfcs_size_after)
        << context;
  }
}

void RunResumeSweep(Algorithm algorithm) {
  const TransactionDatabase db = ResumeDb();
  MiningOptions options;
  options.min_support = 0.15;

  std::vector<Checkpoint> checkpoints;
  MiningOptions recording = options;
  recording.checkpoint_sink = [&](const Checkpoint& checkpoint) {
    checkpoints.push_back(checkpoint);
    return Status::OK();
  };
  const MaximalSetResult reference = MineMaximal(db, recording, algorithm);
  ASSERT_GE(reference.stats.passes, 3u)
      << AlgorithmName(algorithm) << ": database too easy to exercise resume";
  ASSERT_FALSE(checkpoints.empty()) << AlgorithmName(algorithm);

  for (const Checkpoint& checkpoint : checkpoints) {
    const std::string context = std::string(AlgorithmName(algorithm)) +
                                " resumed at pass " +
                                std::to_string(checkpoint.next_pass);
    // Through JSON, as a real resume would go.
    const StatusOr<Checkpoint> reloaded =
        ParseCheckpoint(checkpoint.ToJsonString());
    ASSERT_TRUE(reloaded.ok()) << context << ": " << reloaded.status();
    const StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(db, options, algorithm, *reloaded);
    ASSERT_TRUE(resumed.ok()) << context << ": " << resumed.status();
    EXPECT_EQ(resumed->mfs, reference.mfs) << context;
    ExpectStructuralStatsEqual(reference.stats, resumed->stats, context);
  }
}

TEST(CheckpointResume, AprioriIsDeterministic) {
  RunResumeSweep(Algorithm::kApriori);
}

TEST(CheckpointResume, AprioriCombinedIsDeterministic) {
  RunResumeSweep(Algorithm::kAprioriCombined);
}

TEST(CheckpointResume, PincerIsDeterministic) {
  RunResumeSweep(Algorithm::kPincer);
}

TEST(CheckpointResume, PincerAdaptiveIsDeterministic) {
  RunResumeSweep(Algorithm::kPincerAdaptive);
}

TEST(CheckpointResume, ResumeUnderDifferentBackendAndThreads) {
  // Backend and thread count are outside the options fingerprint: counts
  // are bit-identical across them, so this must succeed and agree.
  const TransactionDatabase db = ResumeDb();
  MiningOptions options;
  options.min_support = 0.15;
  std::vector<Checkpoint> checkpoints;
  MiningOptions recording = options;
  recording.checkpoint_sink = [&](const Checkpoint& checkpoint) {
    checkpoints.push_back(checkpoint);
    return Status::OK();
  };
  const MaximalSetResult reference =
      MineMaximal(db, recording, Algorithm::kPincerAdaptive);
  ASSERT_FALSE(checkpoints.empty());

  MiningOptions other = options;
  other.backend = CounterBackend::kLinear;
  other.num_threads = 4;
  const StatusOr<MaximalSetResult> resumed = ResumeMaximal(
      db, other, Algorithm::kPincerAdaptive, checkpoints.front());
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->mfs, reference.mfs);

  // A file from a run on the since-removed "parallel" backend still parses
  // and resumes: per_pass[].backend_used is history, never configuration.
  Checkpoint legacy = checkpoints.back();
  for (PassStats& pass : legacy.stats.per_pass) pass.backend_used = "parallel";
  const StatusOr<Checkpoint> reloaded = ParseCheckpoint(legacy.ToJsonString());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  const StatusOr<MaximalSetResult> from_legacy =
      ResumeMaximal(db, other, Algorithm::kPincerAdaptive, *reloaded);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status();
  EXPECT_EQ(from_legacy->mfs, reference.mfs);
}

TEST(CheckpointResume, RejectsStaleCheckpoints) {
  const TransactionDatabase db = ResumeDb();
  MiningOptions options;
  options.min_support = 0.15;
  std::vector<Checkpoint> checkpoints;
  MiningOptions recording = options;
  recording.checkpoint_sink = [&](const Checkpoint& checkpoint) {
    checkpoints.push_back(checkpoint);
    return Status::OK();
  };
  MineMaximal(db, recording, Algorithm::kApriori);
  ASSERT_FALSE(checkpoints.empty());
  const Checkpoint& checkpoint = checkpoints.front();

  // Wrong algorithm.
  {
    const StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(db, options, Algorithm::kPincer, checkpoint);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  // Different result-affecting options.
  {
    MiningOptions different = options;
    different.min_support = 0.3;
    const StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(db, different, Algorithm::kApriori, checkpoint);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  // Different database shape.
  {
    const TransactionDatabase other = MakeDatabase({{0, 1}, {1, 2}});
    const StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(other, options, Algorithm::kApriori, checkpoint);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }
  // An MFS that is not an antichain: Mfs::Add never evicts, so the resumed
  // MFS would hold {0 1} next to {0 1 2}.
  {
    std::vector<Checkpoint> pincer_checkpoints;
    MiningOptions pincer_recording = options;
    pincer_recording.checkpoint_sink = [&](const Checkpoint& recorded) {
      pincer_checkpoints.push_back(recorded);
      return Status::OK();
    };
    MineMaximal(db, pincer_recording, Algorithm::kPincer);
    ASSERT_FALSE(pincer_checkpoints.empty());
    Checkpoint comparable = pincer_checkpoints.front();
    comparable.mfs = {{Itemset{0, 1}, 30}, {Itemset{0, 1, 2}, 20}};
    const StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(db, options, Algorithm::kPincer, comparable);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);

    // A pass-2 matrix one count short: the fast path's triangle over
    // pair_items no longer fills, and resume must refuse it rather than
    // read counts off by one rank.
    ASSERT_TRUE(options.use_array_fast_path);
    const auto after_pass_two = std::find_if(
        pincer_checkpoints.begin(), pincer_checkpoints.end(),
        [](const Checkpoint& recorded) { return recorded.next_pass == 3; });
    ASSERT_NE(after_pass_two, pincer_checkpoints.end());
    Checkpoint torn = *after_pass_two;
    ASSERT_FALSE(torn.pair_counts.empty());
    torn.pair_counts.pop_back();
    const StatusOr<MaximalSetResult> from_torn =
        ResumeMaximal(db, options, Algorithm::kPincer, torn);
    ASSERT_FALSE(from_torn.ok());
    EXPECT_EQ(from_torn.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(from_torn.status().message().find("pair_counts"),
              std::string::npos)
        << from_torn.status();
  }
}

TEST(CheckpointResume, RejectsCountsAboveTheRowCount) {
  // No itemset occurs in more rows than the database has, and the pass-2
  // matrix keeps 32-bit cells on the strength of that bound: a pair or
  // singleton count past the row count is refused, not narrowed.
  const TransactionDatabase db = ResumeDb();
  MiningOptions options;
  options.min_support = 0.15;
  std::vector<Checkpoint> checkpoints;
  MiningOptions recording = options;
  recording.checkpoint_sink = [&](const Checkpoint& checkpoint) {
    checkpoints.push_back(checkpoint);
    return Status::OK();
  };
  MineMaximal(db, recording, Algorithm::kPincer);
  const auto after_pass_two = std::find_if(
      checkpoints.begin(), checkpoints.end(),
      [](const Checkpoint& recorded) { return recorded.next_pass == 3; });
  ASSERT_NE(after_pass_two, checkpoints.end());
  ASSERT_FALSE(after_pass_two->pair_counts.empty());
  ASSERT_TRUE(
      ResumeMaximal(db, options, Algorithm::kPincer, *after_pass_two).ok());

  Checkpoint at_rows = *after_pass_two;
  at_rows.pair_counts.back() = db.size();
  EXPECT_TRUE(ResumeMaximal(db, options, Algorithm::kPincer, at_rows).ok());

  Checkpoint past_rows = *after_pass_two;
  past_rows.pair_counts.back() = db.size() + 1;
  const StatusOr<MaximalSetResult> from_pairs =
      ResumeMaximal(db, options, Algorithm::kPincer, past_rows);
  ASSERT_FALSE(from_pairs.ok());
  EXPECT_EQ(from_pairs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(from_pairs.status().message().find("exceeds"), std::string::npos)
      << from_pairs.status();

  // Past a 32-bit cell as well: still the same refusal, before any narrowing.
  past_rows.pair_counts.back() = uint64_t{1} << 32;
  EXPECT_FALSE(ResumeMaximal(db, options, Algorithm::kPincer, past_rows).ok());

  Checkpoint past_rows_singleton = *after_pass_two;
  ASSERT_FALSE(past_rows_singleton.singleton_counts.empty());
  past_rows_singleton.singleton_counts.front() = db.size() + 1;
  EXPECT_FALSE(
      ResumeMaximal(db, options, Algorithm::kPincer, past_rows_singleton)
          .ok());
}

TEST(CheckpointResume, FailingSinkDoesNotFailTheRun) {
  // Checkpointing is best-effort: a sink that always fails must not change
  // the mined result.
  const TransactionDatabase db = ResumeDb();
  MiningOptions options;
  options.min_support = 0.15;
  const MaximalSetResult reference =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);

  MiningOptions failing = options;
  size_t attempts = 0;
  failing.checkpoint_sink = [&](const Checkpoint&) {
    ++attempts;
    return Status::IoError("disk full");
  };
  const MaximalSetResult result =
      MineMaximal(db, failing, Algorithm::kPincerAdaptive);
  EXPECT_GT(attempts, 0u);
  EXPECT_EQ(result.mfs, reference.mfs);
  EXPECT_FALSE(result.stats.aborted);
}

}  // namespace
}  // namespace pincer
