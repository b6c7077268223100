// Tests for the streaming sharder (orchestrate/sharder.h): round-robin
// determinism (shard membership is a pure function of file and shard
// count), header propagation, malformed-row policies matching the
// database_io readers, and failpoint-injected I/O errors.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/database_io.h"
#include "orchestrate/sharder.h"
#include "util/failpoint.h"

namespace pincer {
namespace {

class SharderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/pincer_sharder_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0755);
    source_ = dir_ + "/source.basket";
  }

  void TearDown() override { failpoint::DisarmAll(); }

  void WriteSource(const std::string& contents) {
    std::ofstream out(source_);
    ASSERT_TRUE(out.good());
    out << contents;
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string dir_;
  std::string source_;
};

TEST_F(SharderTest, ShardFileNameIsZeroPadded) {
  EXPECT_EQ(ShardFileName(0), "shard_0000.basket");
  EXPECT_EQ(ShardFileName(7), "shard_0007.basket");
  EXPECT_EQ(ShardFileName(123), "shard_0123.basket");
}

TEST_F(SharderTest, RoundRobinDealsValidTransactionsInOrder) {
  WriteSource(
      "# items: 10\n"
      "1 2\n"
      "\n"          // blank rows are not transactions and consume no slot
      "3 4\n"
      "# comment\n"
      "5 6\n"
      "7 8\n");
  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source_, dir_, 3, MalformedRowPolicy::kStrict);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->transactions, 4u);
  EXPECT_EQ(plan->rows_skipped, 0u);
  EXPECT_EQ(plan->declared_items, 10u);
  ASSERT_EQ(plan->shards.size(), 3u);
  // Rows 0,3 -> shard 0; row 1 -> shard 1; row 2 -> shard 2. Every shard
  // carries the declared-universe header.
  EXPECT_EQ(ReadFile(plan->shards[0].path), "# items: 10\n1 2\n7 8\n");
  EXPECT_EQ(ReadFile(plan->shards[1].path), "# items: 10\n3 4\n");
  EXPECT_EQ(ReadFile(plan->shards[2].path), "# items: 10\n5 6\n");
  EXPECT_EQ(plan->shards[0].rows, 2u);
  EXPECT_EQ(plan->shards[1].rows, 1u);
  EXPECT_EQ(plan->shards[2].rows, 1u);
}

TEST_F(SharderTest, ResplittingIsBitIdentical) {
  std::ostringstream source;
  source << "# items: 50\n";
  for (int row = 0; row < 97; ++row) {
    source << (row % 50) << " " << ((row * 7 + 1) % 50) + 0 << "\n";
  }
  WriteSource(source.str());
  const StatusOr<ShardPlan> first =
      ShardDatabaseFile(source_, dir_, 4, MalformedRowPolicy::kStrict);
  ASSERT_TRUE(first.ok()) << first.status();
  std::vector<std::string> snapshots;
  for (const ShardInfo& shard : first->shards) {
    snapshots.push_back(ReadFile(shard.path));
  }
  const StatusOr<ShardPlan> second =
      ShardDatabaseFile(source_, dir_, 4, MalformedRowPolicy::kStrict);
  ASSERT_TRUE(second.ok()) << second.status();
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ReadFile(second->shards[s].path), snapshots[s]) << "shard " << s;
    EXPECT_EQ(second->shards[s].rows, first->shards[s].rows);
  }
}

TEST_F(SharderTest, StrictPolicyRejectsMalformedRowsWithPosition) {
  WriteSource("1 2\nbad row\n3 4\n");
  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kStrict);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("line 2"), std::string::npos)
      << plan.status();
  // A strict failure leaves no shard files behind (temp files are cleaned).
  EXPECT_FALSE(std::ifstream(dir_ + "/" + ShardFileName(0)).good());
  EXPECT_FALSE(std::ifstream(dir_ + "/" + ShardFileName(0) + ".tmp").good());
}

TEST_F(SharderTest, SkipPolicyDropsAndCountsMalformedRows) {
  WriteSource(
      "# items: 5\n"
      "1 2\n"
      "bad row\n"
      "-3\n"
      "9 1\n"  // 9 exceeds the declared universe
      "3 4\n");
  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kSkipAndCount);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->transactions, 2u);
  EXPECT_EQ(plan->rows_skipped, 3u);
  // The two valid transactions deal round-robin over the survivors only.
  EXPECT_EQ(ReadFile(plan->shards[0].path), "# items: 5\n1 2\n");
  EXPECT_EQ(ReadFile(plan->shards[1].path), "# items: 5\n3 4\n");
}

// Bad headers follow the policy as in every other reader: strict fails the
// split, skip drops and tallies the header line (and copies it nowhere).
TEST_F(SharderTest, BadHeadersFollowThePolicy) {
  for (const char* header :
       {"# items: many\n", "# items: -4\n",
        "# items: 99999999999999999999999\n"}) {
    WriteSource(std::string(header) + "1 2\n3 4\n");
    const StatusOr<ShardPlan> strict =
        ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kStrict);
    ASSERT_FALSE(strict.ok()) << header;
    EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(strict.status().message().find("header"), std::string::npos)
        << strict.status();

    const StatusOr<ShardPlan> skipped = ShardDatabaseFile(
        source_, dir_, 2, MalformedRowPolicy::kSkipAndCount);
    ASSERT_TRUE(skipped.ok()) << skipped.status();
    EXPECT_EQ(skipped->rows_skipped, 1u) << header;
    EXPECT_EQ(skipped->transactions, 2u);
    EXPECT_EQ(skipped->declared_items, 0u);
    EXPECT_EQ(ReadFile(skipped->shards[0].path), "1 2\n");
  }
}

// A header after the first transaction applies to the rows after it, so
// it goes into every shard at that place: each shard reads back strictly
// under the same universe as the source.
TEST_F(SharderTest, LaterHeadersAreCopiedInPlace) {
  WriteSource("# items: 5\n1 2\n# items: 10\n7 8\n3 4\n");
  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kStrict);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->declared_items, 10u);
  EXPECT_EQ(ReadFile(plan->shards[0].path),
            "# items: 5\n1 2\n# items: 10\n3 4\n");
  EXPECT_EQ(ReadFile(plan->shards[1].path),
            "# items: 5\n# items: 10\n7 8\n");
  for (const ShardInfo& shard : plan->shards) {
    const StatusOr<TransactionDatabase> db = ReadDatabaseFromFile(shard.path);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(db->num_items(), 10u);
  }
}

TEST_F(SharderTest, ZeroShardsIsInvalidArgument) {
  WriteSource("1 2\n");
  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source_, dir_, 0, MalformedRowPolicy::kStrict);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SharderTest, MissingSourceIsIoError) {
  const StatusOr<ShardPlan> plan = ShardDatabaseFile(
      dir_ + "/no_such.basket", dir_, 2, MalformedRowPolicy::kStrict);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kIoError);
}

TEST_F(SharderTest, OpenFailpointSurfacesAsIoError) {
  WriteSource("1 2\n");
  failpoint::Arm("streaming.open",
                 {failpoint::Trigger::Once(), failpoint::Effect::kIoError});
  const StatusOr<ShardPlan> plan =
      ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kStrict);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kIoError);
}

TEST_F(SharderTest, CorruptRowFailpointFollowsThePolicy) {
  WriteSource("1 2\n3 4\n5 6\n");
  // Corrupt the second row in flight: strict fails, skip drops and counts.
  failpoint::Arm("streaming.parse_row",
                 {failpoint::Trigger::Once(2), failpoint::Effect::kCorruptRow});
  const StatusOr<ShardPlan> strict =
      ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);

  failpoint::Arm("streaming.parse_row",
                 {failpoint::Trigger::Once(2), failpoint::Effect::kCorruptRow});
  const StatusOr<ShardPlan> skipped =
      ShardDatabaseFile(source_, dir_, 2, MalformedRowPolicy::kSkipAndCount);
  ASSERT_TRUE(skipped.ok()) << skipped.status();
  EXPECT_EQ(skipped->transactions, 2u);
  EXPECT_EQ(skipped->rows_skipped, 1u);
}

}  // namespace
}  // namespace pincer
