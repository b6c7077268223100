// End-to-end test of `mine_cli --stats-json=FILE`: runs the real binary on a
// temp basket file and checks the emitted JSON parses and matches the stats
// an in-process MineMaximal reports on the same database. The binary path is
// injected at configure time (PINCER_MINE_CLI_PATH); the test is skipped when
// examples are not built.

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "data/database_io.h"
#include "mining/miner.h"
#include "tests/test_json_parser.h"
#include "util/metrics.h"

namespace pincer {
namespace {

using test::JsonValue;
using test::ParseJson;

const char kBasket[] =
    "1 2 3 4\n"
    "1 2 3 5\n"
    "1 2 3\n"
    "2 3 4\n"
    "1 4 5\n"
    "1 2 4 5\n"
    "3 4 5\n"
    "1 2 3 4 5\n";

class MineCliJsonTest : public testing::TestWithParam<const char*> {};

TEST_P(MineCliJsonTest, StatsJsonMatchesInProcessRun) {
#ifndef PINCER_MINE_CLI_PATH
  GTEST_SKIP() << "examples not built; mine_cli binary unavailable";
#else
  const std::string algorithm = GetParam();
  const std::string dir = testing::TempDir();
  // Per-test paths: ctest runs the parameterized instances as separate,
  // possibly concurrent processes, so a shared basket file would race.
  const std::string basket_path =
      dir + "/mine_cli_json_test_" + algorithm + ".basket";
  const std::string json_path =
      dir + "/mine_cli_json_test_" + algorithm + ".json";
  {
    std::ofstream basket(basket_path);
    ASSERT_TRUE(basket.good());
    basket << kBasket;
  }

  std::ostringstream command;
  command << PINCER_MINE_CLI_PATH << " " << basket_path
          << " --min-support=0.25 --algorithm=" << algorithm
          << " --stats-json=" << json_path << " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.str().c_str()), 0) << command.str();

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "mine_cli did not write " << json_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = ParseJson(buffer.str());
  ASSERT_TRUE(doc.has_value()) << buffer.str();

  // Header identity.
  EXPECT_EQ(doc->Find("schema_version")->number, 1.0);
  ASSERT_NE(doc->Find("schema_minor"), nullptr);
  EXPECT_EQ(doc->Find("schema_minor")->number,
            static_cast<double>(kStatsJsonSchemaMinorVersion));
  EXPECT_EQ(doc->Find("tool")->string, "mine_cli");
  EXPECT_EQ(doc->Find("algorithm")->string, algorithm);
  EXPECT_EQ(doc->Find("input")->string, basket_path);

  // Mine the same database in-process and compare the deterministic fields
  // (counts and sizes; timings naturally differ between runs).
  const StatusOr<TransactionDatabase> db = ReadDatabaseFromFile(basket_path);
  ASSERT_TRUE(db.ok());
  const StatusOr<Algorithm> parsed = ParseAlgorithm(algorithm);
  ASSERT_TRUE(parsed.ok());
  MiningOptions options;
  options.min_support = 0.25;
  options.backend = CounterBackend::kAuto;  // mine_cli's default
  options.collect_counter_metrics = true;
  const MaximalSetResult expected = MineMaximal(*db, options, *parsed);

  EXPECT_EQ(static_cast<uint64_t>(doc->Find("num_transactions")->number),
            db->size());
  EXPECT_EQ(static_cast<uint64_t>(doc->Find("mfs_size")->number),
            expected.mfs.size());
  EXPECT_EQ(static_cast<uint64_t>(doc->Find("mfs_max_len")->number),
            MaxLength(expected.mfs));

  const JsonValue* stats = doc->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(stats->Find("passes")->number),
            expected.stats.passes);
  EXPECT_EQ(
      static_cast<uint64_t>(stats->Find("reported_candidates")->number),
      expected.stats.reported_candidates);
  EXPECT_EQ(static_cast<uint64_t>(stats->Find("total_candidates")->number),
            expected.stats.total_candidates);
  EXPECT_EQ(stats->Find("per_pass")->array.size(),
            expected.stats.per_pass.size());

  // --stats-json enables the backend counter metrics in the CLI.
  const JsonValue* counting = stats->Find("counting");
  ASSERT_NE(counting, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(counting->Find("count_calls")->number),
            expected.stats.counting.count_calls);
#endif
}

// The whole file as a string.
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(MineCliJsonTest, DefaultBackendIsAuto) {
#ifndef PINCER_MINE_CLI_PATH
  GTEST_SKIP() << "examples not built; mine_cli binary unavailable";
#else
  // The engine the daemon and the shard workers use: a run without
  // --backend records "auto" and prints what the trie prints.
  const std::string dir = testing::TempDir();
  const std::string basket_path = dir + "/mine_cli_default_backend.basket";
  const std::string json_path = dir + "/mine_cli_default_backend.json";
  const std::string default_out = dir + "/mine_cli_default_backend.out";
  const std::string trie_out = dir + "/mine_cli_trie_backend.out";
  {
    std::ofstream basket(basket_path);
    ASSERT_TRUE(basket.good());
    basket << kBasket;
  }
  std::ostringstream by_default;
  by_default << PINCER_MINE_CLI_PATH << " " << basket_path
             << " --min-support=0.25 --stats-json=" << json_path << " > "
             << default_out << " 2>/dev/null";
  ASSERT_EQ(std::system(by_default.str().c_str()), 0) << by_default.str();
  std::ostringstream by_trie;
  by_trie << PINCER_MINE_CLI_PATH << " " << basket_path
          << " --min-support=0.25 --backend=trie > " << trie_out
          << " 2>/dev/null";
  ASSERT_EQ(std::system(by_trie.str().c_str()), 0) << by_trie.str();

  const auto doc = ParseJson(Slurp(json_path));
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->Find("backend"), nullptr);
  EXPECT_EQ(doc->Find("backend")->string, "auto");
  const std::string printed = Slurp(default_out);
  EXPECT_FALSE(printed.empty());
  EXPECT_EQ(printed, Slurp(trie_out));
#endif
}

TEST(MineCliJsonTest, EmptyStatsJsonPathIsUsageError) {
#ifndef PINCER_MINE_CLI_PATH
  GTEST_SKIP() << "examples not built; mine_cli binary unavailable";
#else
  const std::string dir = testing::TempDir();
  const std::string basket_path = dir + "/mine_cli_json_test_usage.basket";
  {
    std::ofstream basket(basket_path);
    basket << kBasket;
  }
  std::ostringstream command;
  command << PINCER_MINE_CLI_PATH << " " << basket_path
          << " --stats-json= > /dev/null 2>&1";
  const int status = std::system(command.str().c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
#endif
}

// A flag where the database path belongs is a usage error: `--help` prints
// the usage line and exits 2; it is never opened as a database file.
TEST(MineCliJsonTest, FlagInPlaceOfDatabaseIsUsageError) {
#ifndef PINCER_MINE_CLI_PATH
  GTEST_SKIP() << "examples not built; mine_cli binary unavailable";
#else
  const std::string stderr_path =
      testing::TempDir() + "/mine_cli_json_test_help.stderr";
  std::ostringstream command;
  command << PINCER_MINE_CLI_PATH << " --help > /dev/null 2> " << stderr_path;
  const int status = std::system(command.str().c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::ifstream err(stderr_path);
  std::ostringstream text;
  text << err.rdbuf();
  EXPECT_NE(text.str().find("usage: "), std::string::npos) << text.str();
  EXPECT_EQ(text.str().find("IoError"), std::string::npos) << text.str();
#endif
}

// Checkpoint fingerprint rejection through the real CLI: --resume with a
// checkpoint written for different data or different options must fail
// with a clear error, never silently remine or reuse.
TEST(MineCliResumeTest, RejectsCheckpointFromADifferentDatabase) {
#ifndef PINCER_MINE_CLI_PATH
  GTEST_SKIP() << "examples not built; mine_cli binary unavailable";
#else
  const std::string dir = testing::TempDir();
  const std::string basket_a = dir + "/mine_cli_resume_a.basket";
  const std::string basket_b = dir + "/mine_cli_resume_b.basket";
  const std::string checkpoint = dir + "/mine_cli_resume_a.ckpt";
  const std::string stderr_path = dir + "/mine_cli_resume_db.stderr";
  {
    std::ofstream basket(basket_a);
    basket << kBasket;
  }
  {
    std::ofstream basket(basket_b);
    basket << kBasket << "1 2\n";  // different bytes, different fingerprint
  }
  std::ostringstream mine;
  mine << PINCER_MINE_CLI_PATH << " " << basket_a
       << " --min-support=0.25 --checkpoint=" << checkpoint
       << " > /dev/null 2>&1";
  ASSERT_EQ(std::system(mine.str().c_str()), 0) << mine.str();

  std::ostringstream resume;
  resume << PINCER_MINE_CLI_PATH << " " << basket_b
         << " --min-support=0.25 --checkpoint=" << checkpoint
         << " --resume > /dev/null 2> " << stderr_path;
  const int status = std::system(resume.str().c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::ifstream err(stderr_path);
  std::ostringstream captured;
  captured << err.rdbuf();
  EXPECT_NE(captured.str().find("was written"), std::string::npos)
      << captured.str();
#endif
}

TEST(MineCliResumeTest, RejectsCheckpointWithDifferentOptions) {
#ifndef PINCER_MINE_CLI_PATH
  GTEST_SKIP() << "examples not built; mine_cli binary unavailable";
#else
  const std::string dir = testing::TempDir();
  const std::string basket_path = dir + "/mine_cli_resume_opts.basket";
  const std::string checkpoint = dir + "/mine_cli_resume_opts.ckpt";
  const std::string stderr_path = dir + "/mine_cli_resume_opts.stderr";
  {
    std::ofstream basket(basket_path);
    basket << kBasket;
  }
  std::ostringstream mine;
  mine << PINCER_MINE_CLI_PATH << " " << basket_path
       << " --min-support=0.25 --checkpoint=" << checkpoint
       << " > /dev/null 2>&1";
  ASSERT_EQ(std::system(mine.str().c_str()), 0) << mine.str();

  // Same database, different min_support: the options fingerprint differs.
  std::ostringstream resume;
  resume << PINCER_MINE_CLI_PATH << " " << basket_path
         << " --min-support=0.5 --checkpoint=" << checkpoint
         << " --resume > /dev/null 2> " << stderr_path;
  const int status = std::system(resume.str().c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::ifstream err(stderr_path);
  std::ostringstream captured;
  captured << err.rdbuf();
  EXPECT_NE(captured.str().find("error resuming"), std::string::npos)
      << captured.str();
#endif
}

INSTANTIATE_TEST_SUITE_P(Algorithms, MineCliJsonTest,
                         testing::Values("apriori", "pincer",
                                         "pincer-adaptive"),
                         [](const auto& info) {
                           const std::string name = info.param;
                           return name == "apriori"
                                      ? "Apriori"
                                      : name == "pincer" ? "Pincer"
                                                         : "PincerAdaptive";
                         });

}  // namespace
}  // namespace pincer
