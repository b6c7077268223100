// Unit tests for basket-format database I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/basket_reader.h"
#include "data/database_io.h"
#include "testing/db_builder.h"
#include "util/prng.h"

namespace pincer {
namespace {

TEST(DatabaseIo, ReadsBasicFormat) {
  std::istringstream in("1 2 3\n7\n2 5\n");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 3u);
  EXPECT_EQ(db->num_items(), 8u);  // max id 7 -> universe 8
  const Transaction expected = {1, 2, 3};
  EXPECT_EQ(db->transaction(0), expected);
}

TEST(DatabaseIo, HonorsItemsHeader) {
  std::istringstream in("# items: 100\n1 2\n");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 100u);
}

TEST(DatabaseIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a comment\n\n1 2\n\n# another\n3\n");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
}

TEST(DatabaseIo, RejectsNegativeIds) {
  std::istringstream in("1 -2 3\n");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseIo, RejectsNonNumericTokens) {
  std::istringstream in("1 two 3\n");
  EXPECT_FALSE(ReadDatabase(in).ok());
}

TEST(DatabaseIo, RejectsMalformedHeader) {
  std::istringstream in("# items: many\n1\n");
  EXPECT_FALSE(ReadDatabase(in).ok());
}

TEST(DatabaseIo, RoundTripsThroughStream) {
  const TransactionDatabase original =
      MakeDatabase({{0, 1, 2}, {4}, {1, 3}}, /*num_items=*/6);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDatabase(original, buffer).ok());
  const StatusOr<TransactionDatabase> restored = ReadDatabase(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_items(), original.num_items());
  ASSERT_EQ(restored->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored->transaction(i), original.transaction(i));
  }
}

TEST(DatabaseIo, RoundTripsThroughFile) {
  const TransactionDatabase original = MakeDatabase({{2, 7}, {0}});
  const std::string path = ::testing::TempDir() + "/pincer_io_test.basket";
  ASSERT_TRUE(WriteDatabaseToFile(original, path).ok());
  const StatusOr<TransactionDatabase> restored = ReadDatabaseFromFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2u);
  std::remove(path.c_str());
}

// Fuzz-ish robustness: arbitrary byte soup must never crash the parser —
// it either parses or returns a clean error.
TEST(DatabaseIo, RandomGarbageNeverCrashes) {
  Prng prng(99);
  const std::string alphabet = "0123456789 -#:abcXYZ\t\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const size_t length = prng.UniformUint64(200);
    for (size_t i = 0; i < length; ++i) {
      garbage += alphabet[prng.UniformUint64(alphabet.size())];
    }
    std::istringstream in(garbage);
    const StatusOr<TransactionDatabase> db = ReadDatabase(in);
    if (db.ok()) {
      // Parsed databases must be internally consistent.
      for (const Transaction& transaction : db->transactions()) {
        if (!transaction.empty()) {
          EXPECT_LT(transaction.back(), db->num_items());
        }
      }
    }
  }
}

TEST(DatabaseIo, MissingFileIsIoError) {
  const StatusOr<TransactionDatabase> db =
      ReadDatabaseFromFile("/nonexistent/path/file.basket");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIoError);
}

// --- Malformed-input edges: each parses strictly to a precise error (with
// line number and byte offset) and, under kSkipAndCount, to a dropped and
// tallied row instead.

StatusOr<TransactionDatabase> ReadSkipping(const std::string& text,
                                           DatabaseReadReport& report) {
  std::istringstream in(text);
  DatabaseReadOptions options;
  options.malformed_rows = MalformedRowPolicy::kSkipAndCount;
  return ReadDatabase(in, options, &report);
}

// `rows` lines of "1\n": 2 * rows bytes.
std::string OneRows(size_t rows) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) text += "1\n";
  return text;
}

TEST(DatabaseIo, ErrorsCarryLineNumberAndByteOffset) {
  constexpr size_t kBlockRows = kBasketBlockBytes / 2;
  const std::vector<std::pair<std::string, std::string>> cases = {
      // "0 1\n" is 4 bytes, so the bad row starts at line 2, byte 4.
      {"0 1\n2 x\n", "line 2, byte 4"},
      // A '\r' before each '\n' still counts as a byte.
      {"0 1\r\n2 3\r\n4 x\r\n", "line 3, byte 10"},
      // Bad rows just before, at, and just past the reader's block boundary.
      {OneRows(kBlockRows - 1) + "2 x\n",
       "line " + std::to_string(kBlockRows) + ", byte " +
           std::to_string(kBasketBlockBytes - 2)},
      {OneRows(kBlockRows) + "2 x\n",
       "line " + std::to_string(kBlockRows + 1) + ", byte " +
           std::to_string(kBasketBlockBytes)},
      {OneRows(kBlockRows) + "\r\n2 x\n",
       "line " + std::to_string(kBlockRows + 2) + ", byte " +
           std::to_string(kBasketBlockBytes + 2)},
  };
  for (const auto& [text, position] : cases) {
    std::istringstream in(text);
    const StatusOr<TransactionDatabase> db = ReadDatabase(in);
    ASSERT_FALSE(db.ok()) << position;
    EXPECT_NE(db.status().message().find(position), std::string::npos)
        << db.status();
  }
}

// A row the reader's block boundary cuts in two, at every cut point, reads
// exactly as it would whole.
TEST(DatabaseIo, RowsStraddlingTheBlockBoundaryParseIdentically) {
  const std::string row = "123456 78 9\n";
  const Transaction expected = {9, 78, 123456};
  for (size_t start = kBasketBlockBytes - row.size();
       start <= kBasketBlockBytes; ++start) {
    // A one- or two-byte comment line sets the parity of the filler.
    const std::string comment = start % 2 == 0 ? "#\n" : "#x\n";
    const size_t filler_rows = (start - comment.size()) / 2;
    const std::string text = comment + OneRows(filler_rows) + row + "5";
    ASSERT_EQ(text.find(row), start);
    std::istringstream in(text);
    const StatusOr<TransactionDatabase> db = ReadDatabase(in);
    ASSERT_TRUE(db.ok()) << "start " << start << ": " << db.status();
    ASSERT_EQ(db->size(), filler_rows + 2) << "start " << start;
    EXPECT_EQ(db->transaction(filler_rows), expected) << "start " << start;
    EXPECT_EQ(db->transaction(filler_rows + 1), Transaction{5});
    EXPECT_EQ(db->num_items(), 123457u);
  }

  // A row longer than a whole block.
  std::string long_row;
  Transaction long_expected;
  for (ItemId id = 0; long_row.size() <= 2 * kBasketBlockBytes; ++id) {
    long_row += std::to_string(id) + " ";
    long_expected.push_back(id);
  }
  std::istringstream in("7\n" + long_row + "\n8\n");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ(db->size(), 3u);
  EXPECT_EQ(db->transaction(1), long_expected);
  EXPECT_EQ(db->transaction(2), Transaction{8});
}

TEST(DatabaseIo, IdOverflowRejectedStrictSkippedOtherwise) {
  struct Case {
    std::string text;
    std::string error;
    size_t kept_rows;
  };
  const std::vector<Case> cases = {
      // 2^32 overflows ItemId.
      {"1 2\n1 4294967296\n3\n",
       "item id overflows 32 bits at line 2, byte 4", 2},
      // Past 2^63 at the end of a row.
      {"# items: 10\n1 2 99999999999999999999\n1 2",
       "item id overflows 32 bits at line 2, byte 12", 1},
  };
  for (const Case& c : cases) {
    std::istringstream strict(c.text);
    const StatusOr<TransactionDatabase> rejected = ReadDatabase(strict);
    ASSERT_FALSE(rejected.ok()) << c.text;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find(c.error), std::string::npos)
        << rejected.status();

    DatabaseReadReport report;
    const StatusOr<TransactionDatabase> skipped = ReadSkipping(c.text, report);
    ASSERT_TRUE(skipped.ok()) << skipped.status();
    EXPECT_EQ(report.rows_skipped, 1u) << c.text;
    EXPECT_EQ(skipped->size(), c.kept_rows) << c.text;
  }
}

// The item-token grammar is operator>>'s: an optional sign, then digits up
// to the first non-digit, separated by any whitespace.
TEST(DatabaseIo, TokenGrammarMatchesStreamExtraction) {
  const std::vector<std::pair<std::string, Transaction>> accepted = {
      {"+1 2\n", {1, 2}},
      {"-0 3\n", {0, 3}},
      {"1\t2\v3\f4\n", {1, 2, 3, 4}},
      {"5 \r 6\r\n", {5, 6}},
      {"1+2\n", {1, 2}},
  };
  for (const auto& [text, expected] : accepted) {
    std::istringstream in(text);
    const StatusOr<TransactionDatabase> db = ReadDatabase(in);
    ASSERT_TRUE(db.ok()) << text << ": " << db.status();
    ASSERT_EQ(db->size(), 1u) << text;
    EXPECT_EQ(db->transaction(0), expected) << text;
  }
  for (const char* text : {"1-2\n", "12abc\n", "1.5\n", "0x10\n", "- 1\n",
                           "1 +\n", "1 -99999999999999999999\n"}) {
    std::istringstream in(text);
    const StatusOr<TransactionDatabase> rejected = ReadDatabase(in);
    ASSERT_FALSE(rejected.ok()) << text;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << text;

    DatabaseReadReport report;
    const StatusOr<TransactionDatabase> skipped = ReadSkipping(text, report);
    ASSERT_TRUE(skipped.ok()) << skipped.status();
    EXPECT_EQ(report.rows_skipped, 1u) << text;
    EXPECT_EQ(skipped->size(), 0u) << text;
  }
}

TEST(DatabaseIo, NegativeIdSkippedUnderSkipPolicy) {
  DatabaseReadReport report;
  const StatusOr<TransactionDatabase> db = ReadSkipping("-1 2\n3\n", report);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(report.rows_skipped, 1u);
  EXPECT_EQ(db->size(), 1u);
}

TEST(DatabaseIo, HandlesCrlfLineEndings) {
  std::istringstream in("# items: 5\r\n0 1\r\n2 3\r\n");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ(db->num_items(), 5u);
  const Transaction expected = {0, 1};
  EXPECT_EQ(db->transaction(0), expected);
}

TEST(DatabaseIo, HandlesMissingTrailingNewline) {
  std::istringstream in("0 1\n2 3");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 2u);
  const Transaction expected = {2, 3};
  EXPECT_EQ(db->transaction(1), expected);
}

TEST(DatabaseIo, EmptyFileIsAnEmptyDatabase) {
  std::istringstream in("");
  const StatusOr<TransactionDatabase> db = ReadDatabase(in);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 0u);
  EXPECT_EQ(db->num_items(), 0u);
}

TEST(DatabaseIo, AbsurdHeaderValues) {
  // Overflowing, negative, and non-numeric declared universes are all bad
  // headers: strict rejects, skip drops and tallies the header line.
  for (const char* text : {"# items: 99999999999999999999999\n1\n",
                           "# items: -4\n1\n", "# items: many\n1\n"}) {
    std::istringstream strict(text);
    const StatusOr<TransactionDatabase> rejected = ReadDatabase(strict);
    ASSERT_FALSE(rejected.ok()) << text;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(rejected.status().message().find("header"), std::string::npos)
        << rejected.status();

    DatabaseReadReport report;
    const StatusOr<TransactionDatabase> skipped = ReadSkipping(text, report);
    ASSERT_TRUE(skipped.ok()) << skipped.status();
    EXPECT_EQ(report.rows_skipped, 1u) << text;
    EXPECT_EQ(skipped->size(), 1u) << text;
  }
}

TEST(DatabaseIo, HeaderUndercountCrossCheck) {
  // The header declares 3 items but the file holds id 7: strict mode calls
  // the lie out, naming the offending row; skip mode drops that whole row,
  // as the streaming counter and the sharder do.
  const std::string text = "# items: 3\n0 1\n2 7\n";
  std::istringstream strict(text);
  const StatusOr<TransactionDatabase> rejected = ReadDatabase(strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("declared universe"),
            std::string::npos)
      << rejected.status();
  EXPECT_NE(rejected.status().message().find("line 3"), std::string::npos)
      << rejected.status();

  DatabaseReadReport report;
  const StatusOr<TransactionDatabase> skipped = ReadSkipping(text, report);
  ASSERT_TRUE(skipped.ok()) << skipped.status();
  EXPECT_EQ(skipped->num_items(), 3u);
  EXPECT_EQ(skipped->size(), 1u);
  EXPECT_EQ(report.rows_skipped, 1u);
  EXPECT_EQ(skipped->num_dropped_items(), 0u);
}

}  // namespace
}  // namespace pincer
