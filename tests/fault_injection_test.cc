// Fault-injection tests: armed failpoints drive the streaming counter's
// retry policy, the malformed-row policies, and the database reader's error
// paths — the behaviors a clean test environment can otherwise never reach.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "counting/streaming_counter.h"
#include "data/database.h"
#include "data/database_io.h"
#include "util/failpoint.h"

namespace pincer {
namespace {

using failpoint::Config;
using failpoint::Effect;
using failpoint::Trigger;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    path_ = ::testing::TempDir() + "/pincer_fault_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".basket";
    ASSERT_TRUE(WriteDatabaseToFile(MakeDb(), path_).ok());
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::remove(path_.c_str());
  }

  static constexpr size_t kRows = 40;

  // Deterministic and every row nonempty, so "rows scanned + rows skipped"
  // arithmetic is exact under injected corruption.
  static TransactionDatabase MakeDb() {
    TransactionDatabase db(10);
    for (size_t i = 0; i < kRows; ++i) {
      const auto a = static_cast<ItemId>(i % 10);
      const auto b = static_cast<ItemId>((i + 3) % 10);
      const auto c = static_cast<ItemId>((i * 7 + 1) % 10);
      db.AddTransaction({a, b, c});
    }
    return db;
  }

  static std::vector<Itemset> Candidates() {
    return {Itemset{0}, Itemset{1, 2}, Itemset{3, 4, 5}, Itemset{0, 9}};
  }

  // Counts with no faults armed — the reference the injected runs must hit.
  std::vector<uint64_t> CleanCounts() {
    StreamingCounter counter(path_);
    const StatusOr<std::vector<uint64_t>> counts =
        counter.CountSupports(Candidates());
    EXPECT_TRUE(counts.ok()) << counts.status();
    return *counts;
  }

  std::string path_;
};

TEST_F(FaultInjectionTest, TransientFaultIsRetriedToTheIdenticalResult) {
  const std::vector<uint64_t> clean = CleanCounts();

  // Fail the 5th row read of the first attempt; the retry re-scans cleanly.
  failpoint::Arm("streaming.read", Config{Trigger::Once(5), Effect::kIoError});
  StreamingOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.0;
  StreamingCounter counter(path_, options);
  const StatusOr<std::vector<uint64_t>> counts =
      counter.CountSupports(Candidates());
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_EQ(*counts, clean);
  EXPECT_EQ(counter.retries(), 1u);
  // Both attempts were real reads of the file: each is charged as a pass.
  EXPECT_EQ(counter.passes(), 2u);
  EXPECT_EQ(failpoint::FireCount("streaming.read"), 1u);
}

TEST_F(FaultInjectionTest, ExhaustedRetriesSurfaceTheIoError) {
  failpoint::Arm("streaming.open",
                 Config{Trigger::EveryNth(1), Effect::kIoError});
  StreamingOptions options;
  options.retry.max_attempts = 3;
  StreamingCounter counter(path_, options);
  const StatusOr<std::vector<uint64_t>> counts =
      counter.CountSupports(Candidates());
  ASSERT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kIoError);
  EXPECT_EQ(counter.retries(), 2u);  // attempts 2 and 3
  EXPECT_EQ(failpoint::HitCount("streaming.open"), 3u);
}

TEST_F(FaultInjectionTest, NonTransientErrorsAreNeverRetried) {
  // InvalidArgument (a corrupt row under the strict policy) cannot be fixed
  // by re-reading the same bytes; the retry budget must not be spent on it.
  failpoint::Arm("streaming.parse_row",
                 Config{Trigger::Once(3), Effect::kCorruptRow});
  StreamingOptions options;
  options.retry.max_attempts = 5;
  StreamingCounter counter(path_, options);
  const StatusOr<std::vector<uint64_t>> counts =
      counter.CountSupports(Candidates());
  ASSERT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(counter.retries(), 0u);
  EXPECT_EQ(counter.passes(), 1u);
  // The strict error names where the corruption sits.
  EXPECT_NE(counts.status().message().find("line "), std::string::npos)
      << counts.status();
  EXPECT_NE(counts.status().message().find("byte "), std::string::npos)
      << counts.status();
}

TEST_F(FaultInjectionTest, SkipPolicyDropsCorruptRowsAndCountsThem) {
  failpoint::Arm("streaming.parse_row",
                 Config{Trigger::EveryNth(10), Effect::kCorruptRow});
  StreamingOptions options;
  options.malformed_rows = MalformedRowPolicy::kSkipAndCount;
  StreamingCounter counter(path_, options);
  const StatusOr<std::vector<uint64_t>> counts =
      counter.CountSupports(Candidates());
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_EQ(counter.rows_skipped(),
            failpoint::FireCount("streaming.parse_row"));
  EXPECT_GT(counter.rows_skipped(), 0u);
  // Dropped rows shrink the scanned transaction count accordingly.
  EXPECT_EQ(counter.last_pass_transactions() + counter.rows_skipped(),
            static_cast<uint64_t>(kRows));
}

TEST_F(FaultInjectionTest, ArmedButUnfiredFailpointChangesNothing) {
  const std::vector<uint64_t> clean = CleanCounts();
  // Armed to fire at hit 1000000 — far beyond this file's row count. The
  // hot loop evaluates the point on every row yet output must be identical.
  failpoint::Arm("streaming.read",
                 Config{Trigger::Once(1000000), Effect::kIoError});
  failpoint::Arm("streaming.parse_row",
                 Config{Trigger::Once(1000000), Effect::kCorruptRow});
  StreamingCounter counter(path_);
  const StatusOr<std::vector<uint64_t>> counts =
      counter.CountSupports(Candidates());
  ASSERT_TRUE(counts.ok()) << counts.status();
  EXPECT_EQ(*counts, clean);
  EXPECT_EQ(counter.retries(), 0u);
  EXPECT_EQ(failpoint::FireCount("streaming.read"), 0u);
  EXPECT_GT(failpoint::HitCount("streaming.read"), 0u);
}

TEST_F(FaultInjectionTest, DatabaseReaderFaultsSurfaceCleanly) {
  // The in-memory reader has its own points: a read fault fails the load...
  failpoint::Arm("database.read", Config{Trigger::Once(2), Effect::kIoError});
  const StatusOr<TransactionDatabase> failed = ReadDatabaseFromFile(path_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  failpoint::DisarmAll();

  // ...a corrupt row is rejected by strict parsing with its position...
  failpoint::Arm("database.read_row",
                 Config{Trigger::Once(4), Effect::kCorruptRow});
  const StatusOr<TransactionDatabase> strict = ReadDatabaseFromFile(path_);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("line "), std::string::npos);
  failpoint::DisarmAll();

  // ...and dropped-and-tallied under the skip policy.
  failpoint::Arm("database.read_row",
                 Config{Trigger::Once(4), Effect::kCorruptRow});
  DatabaseReadOptions read_options;
  read_options.malformed_rows = MalformedRowPolicy::kSkipAndCount;
  DatabaseReadReport report;
  const StatusOr<TransactionDatabase> skipped =
      ReadDatabaseFromFile(path_, read_options, &report);
  ASSERT_TRUE(skipped.ok()) << skipped.status();
  EXPECT_EQ(report.rows_skipped, 1u);
  failpoint::DisarmAll();
  const StatusOr<TransactionDatabase> clean = ReadDatabaseFromFile(path_);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(skipped->size() + 1, clean->size());
}

TEST_F(FaultInjectionTest, ProbabilisticFaultsEventuallyExhaustRetries) {
  // A 50% per-open fault with a fixed seed: deterministic, and with 4
  // attempts some CountSupports calls succeed while others exhaust the
  // budget — both paths must stay clean (no partial counts, clean Status).
  const std::vector<uint64_t> clean = CleanCounts();
  failpoint::Arm("streaming.open",
                 Config{Trigger::Probability(0.5, 99), Effect::kIoError});
  StreamingOptions options;
  options.retry.max_attempts = 2;
  StreamingCounter counter(path_, options);
  size_t successes = 0;
  size_t failures = 0;
  for (int i = 0; i < 20; ++i) {
    const StatusOr<std::vector<uint64_t>> counts =
        counter.CountSupports(Candidates());
    if (counts.ok()) {
      EXPECT_EQ(*counts, clean);
      ++successes;
    } else {
      EXPECT_EQ(counts.status().code(), StatusCode::kIoError);
      ++failures;
    }
  }
  EXPECT_GT(successes, 0u);
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace pincer
