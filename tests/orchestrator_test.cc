// End-to-end tests for the fault-tolerant sharded orchestrator
// (orchestrate/orchestrator.h), driving the real pincer_shard worker binary
// (injected at configure time as PINCER_SHARD_PATH). The core property:
// the orchestrated global MFS is bit-identical to a single-process
// MineMaximal over the same file, across shard counts, slot counts, and
// injected failure schedules — including runs where every worker is
// SIGKILLed mid-run and recovers from its checkpoint.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/database_io.h"
#include "mining/miner.h"
#include "orchestrate/orchestrator.h"
#include "orchestrate/sharder.h"
#include "orchestrate/worker.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

// The worker argv builder and parser must invert each other exactly —
// otherwise the supervisor's command line and the worker's flag parsing
// drift apart. These run without the worker binary.
TEST(ShardWorker, ArgvRoundTripPreservesEveryField) {
  ShardWorkerConfig config;
  config.shard_path = "wd/shard_0002.basket";
  config.result_path = "wd/shard_0002.basket.result.json";
  config.checkpoint_path = "wd/shard_0002.basket.ckpt";
  config.resume = true;
  config.shard_index = 2;
  config.min_support = 0.037;
  config.algorithm = Algorithm::kPincer;
  config.num_threads = 3;

  const std::vector<std::string> argv = ShardWorkerArgv("/path/bin", config);
  ASSERT_GE(argv.size(), 3u);
  EXPECT_EQ(argv[0], "/path/bin");
  EXPECT_EQ(argv[1], "--worker");
  const StatusOr<ShardWorkerConfig> parsed = ParseShardWorkerArgv(
      std::vector<std::string>(argv.begin() + 2, argv.end()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->shard_path, config.shard_path);
  EXPECT_EQ(parsed->result_path, config.result_path);
  EXPECT_EQ(parsed->checkpoint_path, config.checkpoint_path);
  EXPECT_EQ(parsed->resume, config.resume);
  EXPECT_EQ(parsed->shard_index, config.shard_index);
  EXPECT_EQ(parsed->min_support, config.min_support);
  EXPECT_EQ(parsed->algorithm, config.algorithm);
  EXPECT_EQ(parsed->num_threads, config.num_threads);
}

TEST(ShardWorker, ParseRejectsBadArgv) {
  EXPECT_FALSE(ParseShardWorkerArgv({}).ok());  // no shard path
  EXPECT_FALSE(ParseShardWorkerArgv({"shard"}).ok());  // no --out
  EXPECT_FALSE(
      ParseShardWorkerArgv({"shard", "--out=r", "--bogus"}).ok());
  // --resume without --checkpoint has nothing to resume from.
  EXPECT_FALSE(
      ParseShardWorkerArgv({"shard", "--out=r", "--resume"}).ok());
}

// S4, worker re-launch path: a checkpoint from a DIFFERENT shard file must
// be rejected with a clear Status, never mined from. Runs the worker
// in-process.
TEST(ShardWorker, ResumeRejectsACheckpointFromAnotherShard) {
  const std::string dir = ::testing::TempDir() + "/pincer_worker_mismatch_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const TransactionDatabase db = MakePlantedDatabase(
      /*num_items=*/16, /*num_transactions=*/60, /*num_planted=*/2,
      /*pattern_size=*/3, /*pattern_frequency=*/0.4,
      /*noise_probability=*/0.05, /*seed=*/3);
  ASSERT_TRUE(WriteDatabaseToFile(db, dir + "/source.basket").ok());
  const StatusOr<ShardPlan> plan = ShardDatabaseFile(
      dir + "/source.basket", dir, 2, MalformedRowPolicy::kStrict);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Mine shard 0 to completion, leaving its checkpoint behind.
  ShardWorkerConfig config;
  config.shard_path = plan->shards[0].path;
  config.result_path = dir + "/result0.json";
  config.checkpoint_path = dir + "/shard0.ckpt";
  config.shard_index = 0;
  config.min_support = 0.1;
  ASSERT_TRUE(RunShardWorker(config).ok());

  // Re-launch against shard 1 with shard 0's checkpoint.
  config.shard_path = plan->shards[1].path;
  config.result_path = dir + "/result1.json";
  config.resume = true;
  config.shard_index = 1;
  const Status status = RunShardWorker(config);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("cannot resume"), std::string::npos)
      << status;
}

TEST(ShardWorker, ResumeWithAMissingCheckpointMinesFresh) {
  const std::string dir = ::testing::TempDir() + "/pincer_worker_fresh_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const TransactionDatabase db = MakePlantedDatabase(16, 60, 2, 3, 0.4,
                                                     0.05, 3);
  ASSERT_TRUE(WriteDatabaseToFile(db, dir + "/shard.basket").ok());
  ShardWorkerConfig config;
  config.shard_path = dir + "/shard.basket";
  config.result_path = dir + "/result.json";
  config.checkpoint_path = dir + "/vanished.ckpt";  // never written
  config.resume = true;
  config.min_support = 0.1;
  ASSERT_TRUE(RunShardWorker(config).ok());
  EXPECT_TRUE(std::ifstream(config.result_path).good());
}

#ifdef PINCER_SHARD_PATH

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/pincer_orchestrator_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0755);
    database_path_ = dir_ + "/db.basket";
    const TransactionDatabase db = MakePlantedDatabase(
        /*num_items=*/24, /*num_transactions=*/160, /*num_planted=*/3,
        /*pattern_size=*/4, /*pattern_frequency=*/0.35,
        /*noise_probability=*/0.08, /*seed=*/11);
    ASSERT_TRUE(WriteDatabaseToFile(db, database_path_).ok());

    // The reference mines the database AS READ FROM THE FILE — the planted
    // generator can emit empty transactions, which a file round-trip drops
    // (an empty line is not a transaction), exactly as the sharder and the
    // validation scan see the data.
    const StatusOr<TransactionDatabase> reread =
        ReadDatabaseFromFile(database_path_);
    ASSERT_TRUE(reread.ok()) << reread.status();
    transactions_ = reread->size();
    MiningOptions options;
    options.min_support = kMinSupport;
    reference_ = MineMaximal(*reread, options, Algorithm::kPincerAdaptive);
    ASSERT_FALSE(reference_.mfs.empty());
  }

  OrchestratorOptions BaseOptions(const std::string& tag) {
    OrchestratorOptions options;
    options.min_support = kMinSupport;
    options.work_dir = dir_ + "/" + tag;
    options.worker_binary = PINCER_SHARD_PATH;
    options.poll_interval_ms = 2;
    options.backoff.initial_backoff_ms = 0;
    return options;
  }

  static constexpr double kMinSupport = 0.1;
  std::string dir_;
  std::string database_path_;
  uint64_t transactions_ = 0;
  MaximalSetResult reference_;
};

// The headline differential: every (shards, slots) combination produces a
// global MFS bit-identical to the single-process reference.
TEST_F(OrchestratorTest, MatchesSingleProcessAcrossShardAndSlotCounts) {
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    for (const size_t slots : {1u, 2u, 4u}) {
      OrchestratorOptions options = BaseOptions(
          "s" + std::to_string(shards) + "w" + std::to_string(slots));
      options.num_shards = shards;
      options.slots = slots;
      const StatusOr<OrchestratorResult> result =
          OrchestrateMining(database_path_, options);
      ASSERT_TRUE(result.ok())
          << "shards=" << shards << " slots=" << slots << ": "
          << result.status();
      EXPECT_EQ(result->mfs, reference_.mfs)
          << "shards=" << shards << " slots=" << slots;
      EXPECT_EQ(result->stats.num_shards, shards);
      EXPECT_EQ(result->stats.transactions, transactions_);
      EXPECT_EQ(result->stats.validation_transactions, transactions_);
      ASSERT_EQ(result->stats.workers.tasks.size(), shards);
      for (const TaskReport& worker : result->stats.workers.tasks) {
        EXPECT_TRUE(worker.succeeded);
        EXPECT_EQ(worker.attempts, 1u);
      }
    }
  }
}

// Skip mode over a row holding an id past the declared universe: the
// sharded job drops that whole row, as the in-memory reader does, so the
// MFS and its supports match ReadDatabaseFromFile + MineMaximal ({0 1} has
// support 3, not 4).
TEST_F(OrchestratorTest, SkipPolicyMatchesTheInMemoryReader) {
  const std::string path = dir_ + "/out_of_universe.basket";
  {
    std::ofstream out(path);
    out << "# items: 3\n0 1\n0 1 7\n0 1 2\n0 2\n1 2\n0 1 2\n";
  }
  DatabaseReadOptions read_options;
  read_options.malformed_rows = MalformedRowPolicy::kSkipAndCount;
  DatabaseReadReport report;
  const StatusOr<TransactionDatabase> db =
      ReadDatabaseFromFile(path, read_options, &report);
  ASSERT_TRUE(db.ok()) << db.status();
  MiningOptions mining;
  mining.min_support = 0.5;
  const MaximalSetResult reference =
      MineMaximal(*db, mining, Algorithm::kPincerAdaptive);

  OrchestratorOptions options = BaseOptions("skip");
  options.min_support = 0.5;
  options.num_shards = 2;
  options.malformed_rows = MalformedRowPolicy::kSkipAndCount;
  const StatusOr<OrchestratorResult> result = OrchestrateMining(path, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->mfs, reference.mfs);
  EXPECT_EQ(result->stats.rows_skipped, report.rows_skipped);
  EXPECT_EQ(result->stats.transactions, db->size());
}

// Crash recovery: every worker SIGKILLs itself at its second checkpoint
// write, with the first on disk, relaunches with --resume, and the merged
// answer is still bit-identical. This is the "every worker killed at least
// once" schedule.
TEST_F(OrchestratorTest, RecoversEveryWorkerFromSigkillViaCheckpoints) {
  OrchestratorOptions options = BaseOptions("sigkill");
  options.num_shards = 4;
  options.slots = 2;
  options.first_attempt_env = {
      {"PINCER_FAILPOINTS", "checkpoint.write=once@2:kill"}};
  const StatusOr<OrchestratorResult> result =
      OrchestrateMining(database_path_, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->mfs, reference_.mfs);
  ASSERT_EQ(result->stats.workers.tasks.size(), 4u);
  for (size_t shard = 0; shard < 4; ++shard) {
    const TaskReport& worker = result->stats.workers.tasks[shard];
    EXPECT_TRUE(worker.succeeded) << "shard " << shard;
    EXPECT_GE(worker.attempts, 2u) << "shard " << shard;
    EXPECT_GE(worker.retries, 1u) << "shard " << shard;
    EXPECT_GE(worker.recovered_from_checkpoint, 1u) << "shard " << shard;
    EXPECT_NE(worker.last_failure.find("signal"), std::string::npos)
        << "shard " << shard << ": " << worker.last_failure;
  }
}

// First-attempt failpoints: each worker's first attempt cannot even open
// its shard; retries (without the poisoned environment) converge.
TEST_F(OrchestratorTest, RetriesWorkersPastInjectedIoErrors) {
  OrchestratorOptions options = BaseOptions("failpoint");
  options.num_shards = 2;
  options.first_attempt_env = {
      {"PINCER_FAILPOINTS", "streaming.open=once:io"}};
  const StatusOr<OrchestratorResult> result =
      OrchestrateMining(database_path_, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->mfs, reference_.mfs);
  for (const TaskReport& worker : result->stats.workers.tasks) {
    EXPECT_EQ(worker.attempts, 2u);
    EXPECT_EQ(worker.retries, 1u);
    // The failure struck before any pass completed: no checkpoint, so the
    // relaunch started fresh.
    EXPECT_EQ(worker.recovered_from_checkpoint, 0u);
  }
}

TEST_F(OrchestratorTest, ExhaustedWorkerBudgetNamesTheShard) {
  OrchestratorOptions options = BaseOptions("exhausted");
  options.num_shards = 2;
  options.max_attempts = 2;
  // A bogus worker binary makes every attempt exit 127 — unrecoverable.
  options.worker_binary = dir_ + "/no_such_binary";
  const StatusOr<OrchestratorResult> result =
      OrchestrateMining(database_path_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("shard"), std::string::npos)
      << result.status();
}

TEST_F(OrchestratorTest, ResumeReusesCompletedShardResults) {
  OrchestratorOptions options = BaseOptions("reuse");
  options.num_shards = 3;
  const StatusOr<OrchestratorResult> first =
      OrchestrateMining(database_path_, options);
  ASSERT_TRUE(first.ok()) << first.status();

  options.resume = true;
  const StatusOr<OrchestratorResult> second =
      OrchestrateMining(database_path_, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->mfs, reference_.mfs);
  EXPECT_EQ(second->stats.shard_results_reused, 3u);
  // Reused shards spawn no workers at all.
  for (const TaskReport& worker : second->stats.workers.tasks) {
    EXPECT_TRUE(worker.succeeded);
    EXPECT_EQ(worker.attempts, 0u);
  }
}

TEST_F(OrchestratorTest, ResumeRerunsAShardWhoseResultWasCorrupted) {
  OrchestratorOptions options = BaseOptions("corrupt");
  options.num_shards = 2;
  ASSERT_TRUE(OrchestrateMining(database_path_, options).ok());

  // Flip one byte inside shard 1's result file.
  const std::string result_path =
      options.work_dir + "/" + ShardFileName(1) + ".result.json";
  std::string contents;
  {
    std::ifstream in(result_path);
    ASSERT_TRUE(in.good()) << result_path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  const size_t pos = contents.find("checksum");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'X';
  {
    std::ofstream out(result_path, std::ios::trunc);
    out << contents;
  }

  options.resume = true;
  const StatusOr<OrchestratorResult> resumed =
      OrchestrateMining(database_path_, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->mfs, reference_.mfs);
  EXPECT_EQ(resumed->stats.shard_results_reused, 1u);
  EXPECT_EQ(resumed->stats.workers.tasks[1].attempts, 1u);
}

TEST_F(OrchestratorTest, ResumeRejectsAMismatchedManifest) {
  OrchestratorOptions options = BaseOptions("mismatch");
  options.num_shards = 2;
  ASSERT_TRUE(OrchestrateMining(database_path_, options).ok());

  // Different shard count than the manifest's.
  OrchestratorOptions wrong_shards = options;
  wrong_shards.resume = true;
  wrong_shards.num_shards = 4;
  StatusOr<OrchestratorResult> result =
      OrchestrateMining(database_path_, wrong_shards);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("cannot resume"),
            std::string::npos)
      << result.status();

  // Different effective mining options.
  OrchestratorOptions wrong_options = options;
  wrong_options.resume = true;
  wrong_options.min_support = 0.2;
  result = OrchestrateMining(database_path_, wrong_options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Different database file.
  const std::string other_db = dir_ + "/other.basket";
  {
    std::ofstream out(other_db);
    out << "1 2 3\n2 3 4\n";
  }
  OrchestratorOptions wrong_db = options;
  wrong_db.resume = true;
  result = OrchestrateMining(other_db, wrong_db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OrchestratorTest, RejectsInvalidOptions) {
  OrchestratorOptions options = BaseOptions("invalid");
  options.num_shards = 0;
  EXPECT_FALSE(OrchestrateMining(database_path_, options).ok());
  options = BaseOptions("invalid2");
  options.slots = 0;
  EXPECT_FALSE(OrchestrateMining(database_path_, options).ok());
  options = BaseOptions("invalid3");
  options.work_dir.clear();
  EXPECT_FALSE(OrchestrateMining(database_path_, options).ok());
  options = BaseOptions("invalid4");
  options.worker_binary.clear();
  EXPECT_FALSE(OrchestrateMining(database_path_, options).ok());
}

#endif  // PINCER_SHARD_PATH

}  // namespace
}  // namespace pincer
