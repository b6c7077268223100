// Tests for the per-shard worker result file (orchestrate/shard_result.h):
// JSON round-trips, checksum integrity (a flipped support or stale
// fingerprint must be detected), truncation, and atomic file writes —
// everything the supervisor relies on to treat a corrupt result as a
// failed attempt instead of merging it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "orchestrate/shard_result.h"

namespace pincer {
namespace {

ShardResult MakeResult() {
  ShardResult result;
  result.shard_index = 3;
  result.shard.path = "wd/shard_0003.basket";
  result.shard.file_bytes = 4096;
  result.shard.rows = 250;
  result.shard.items = 40;
  result.options_fingerprint = "v1;alg=pincer;min_support=0.05";
  result.resumed_from_checkpoint = true;
  result.passes = 4;
  result.mine_ms = 12.5;
  result.mfs = {{Itemset{1, 2, 3}, 40}, {Itemset{2, 5}, 33}};
  return result;
}

void ExpectEqual(const ShardResult& a, const ShardResult& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.shard_index, b.shard_index);
  EXPECT_EQ(a.shard.path, b.shard.path);
  EXPECT_EQ(a.shard.file_bytes, b.shard.file_bytes);
  EXPECT_EQ(a.shard.rows, b.shard.rows);
  EXPECT_EQ(a.shard.items, b.shard.items);
  EXPECT_EQ(a.options_fingerprint, b.options_fingerprint);
  EXPECT_EQ(a.resumed_from_checkpoint, b.resumed_from_checkpoint);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.mine_ms, b.mine_ms);
  EXPECT_EQ(a.mfs, b.mfs);
}

TEST(ShardResult, Fnv1a64MatchesKnownVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ShardResult, JsonRoundTripPreservesEveryField) {
  const ShardResult original = MakeResult();
  const StatusOr<ShardResult> parsed =
      ParseShardResult(ShardResultToJson(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectEqual(original, *parsed);
}

TEST(ShardResult, SerializationIsDeterministic) {
  EXPECT_EQ(ShardResultToJson(MakeResult()), ShardResultToJson(MakeResult()));
}

TEST(ShardResult, ChecksumPayloadExcludesWallClock) {
  ShardResult a = MakeResult();
  ShardResult b = MakeResult();
  b.mine_ms = 9999.0;  // advisory timing must not perturb result identity
  EXPECT_EQ(ShardResultChecksumPayload(a), ShardResultChecksumPayload(b));
  b.mfs[0].support = 41;  // a semantic change must
  EXPECT_NE(ShardResultChecksumPayload(a), ShardResultChecksumPayload(b));
}

TEST(ShardResult, RejectsAFlippedSupport) {
  std::string json = ShardResultToJson(MakeResult());
  const size_t pos = json.find("\"support\": 40");
  ASSERT_NE(pos, std::string::npos) << json;
  json.replace(pos, 13, "\"support\": 41");
  const StatusOr<ShardResult> parsed = ParseShardResult(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
      << parsed.status();
}

TEST(ShardResult, RejectsTruncation) {
  const std::string json = ShardResultToJson(MakeResult());
  for (const size_t keep :
       {json.size() / 4, json.size() / 2, json.size() - 2}) {
    const StatusOr<ShardResult> parsed =
        ParseShardResult(json.substr(0, keep));
    EXPECT_FALSE(parsed.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

TEST(ShardResult, RejectsWrongVersion) {
  ShardResult result = MakeResult();
  result.version = kShardResultVersion + 1;
  const StatusOr<ShardResult> parsed =
      ParseShardResult(ShardResultToJson(result));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
}

TEST(ShardResult, RejectsNonIncreasingItemsets) {
  // Hand-build JSON with unsorted items: the writer cannot emit this, so it
  // must be treated as corruption (before the checksum is even checked).
  std::string json = ShardResultToJson(MakeResult());
  // The writer renders the first itemset's "1," and "3" on their own
  // (indented) lines; swapping them yields [3, 2, 1].
  const size_t one = json.find("        1,");
  const size_t three = json.find("        3");
  ASSERT_NE(one, std::string::npos) << json;
  ASSERT_NE(three, std::string::npos) << json;
  json[one + 8] = '3';
  json[three + 8] = '1';
  const StatusOr<ShardResult> parsed = ParseShardResult(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("increasing"), std::string::npos)
      << parsed.status();
}

TEST(ShardResult, RejectsGarbage) {
  EXPECT_FALSE(ParseShardResult("").ok());
  EXPECT_FALSE(ParseShardResult("not json").ok());
  EXPECT_FALSE(ParseShardResult("[]").ok());
  EXPECT_FALSE(ParseShardResult("{}").ok());
}

TEST(ShardResult, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/pincer_shard_result_" +
                           std::to_string(::getpid()) + ".json";
  const ShardResult original = MakeResult();
  ASSERT_TRUE(WriteShardResultToFile(original, path).ok());
  const StatusOr<ShardResult> read = ReadShardResultFromFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ExpectEqual(original, *read);
  // The atomic temp file must not linger.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());

  const StatusOr<ShardResult> missing = ReadShardResultFromFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST(ShardResult, BitFlipOnDiskIsDetected) {
  const std::string path = ::testing::TempDir() + "/pincer_shard_result_flip_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(WriteShardResultToFile(MakeResult(), path).ok());
  std::string json;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json = buffer.str();
  }
  const size_t pos = json.find("shard_0003");
  ASSERT_NE(pos, std::string::npos);
  json[pos] = 'X';
  {
    std::ofstream out(path, std::ios::trunc);
    out << json;
  }
  const StatusOr<ShardResult> read = ReadShardResultFromFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pincer
