// Tests for the daemon's strict request parser. A long-lived service must
// reject a typo loudly rather than mine with a silently-defaulted option,
// so most of these tests are about what fails to parse.

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.h"

namespace pincer {
namespace {

TEST(ParseRequest, PingNeedsOnlyTheOp) {
  const StatusOr<Request> request = ParseRequest(R"({"op":"ping"})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->op, Request::Op::kPing);
  EXPECT_TRUE(request->id.empty());
}

TEST(ParseRequest, AllOpsParse) {
  EXPECT_EQ(ParseRequest(R"({"op":"ping"})")->op, Request::Op::kPing);
  EXPECT_EQ(ParseRequest(R"({"op":"list"})")->op, Request::Op::kList);
  EXPECT_EQ(ParseRequest(R"({"op":"shutdown"})")->op, Request::Op::kShutdown);
  EXPECT_EQ(
      ParseRequest(R"({"op":"mine","database":"d","min_support":0.5})")->op,
      Request::Op::kMine);
}

TEST(ParseRequest, OpNamesRoundTrip) {
  EXPECT_EQ(RequestOpName(Request::Op::kPing), "ping");
  EXPECT_EQ(RequestOpName(Request::Op::kList), "list");
  EXPECT_EQ(RequestOpName(Request::Op::kMine), "mine");
  EXPECT_EQ(RequestOpName(Request::Op::kShutdown), "shutdown");
}

TEST(ParseRequest, IdIsEchoedThrough) {
  const StatusOr<Request> request =
      ParseRequest(R"({"op":"ping","id":"req-7"})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, "req-7");
  // And it must be a JSON string, not a bare number.
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","id":7})").ok());
}

TEST(ParseRequest, MineDefaultsMatchTheCli) {
  const StatusOr<Request> request =
      ParseRequest(R"({"op":"mine","database":"quest","min_support":0.25})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->database, "quest");
  EXPECT_DOUBLE_EQ(request->min_support, 0.25);
  EXPECT_EQ(request->algorithm, Algorithm::kPincerAdaptive);
  EXPECT_EQ(request->max_passes, 0u);
  EXPECT_EQ(request->mfcs_cardinality_limit, 0u);
  EXPECT_EQ(request->mfcs_work_limit, 0u);
  EXPECT_DOUBLE_EQ(request->budget_ms, 0.0);
  EXPECT_FALSE(request->no_cache);
}

TEST(ParseRequest, MineWithEveryField) {
  const StatusOr<Request> request = ParseRequest(
      R"({"op":"mine","id":"q1","database":"db","min_support":0.1,)"
      R"("algorithm":"apriori-combined",)"
      R"("max_passes":5,"mfcs_cardinality_limit":100,)"
      R"("mfcs_work_limit":50000,"budget_ms":250.5,"no_cache":true})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->id, "q1");
  EXPECT_EQ(request->algorithm, Algorithm::kAprioriCombined);
  EXPECT_EQ(request->max_passes, 5u);
  EXPECT_EQ(request->mfcs_cardinality_limit, 100u);
  EXPECT_EQ(request->mfcs_work_limit, 50000u);
  EXPECT_DOUBLE_EQ(request->budget_ms, 250.5);
  EXPECT_TRUE(request->no_cache);
}

TEST(ParseRequest, RejectsNonObjectDocuments) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest(R"(["op","ping"])").ok());
  EXPECT_FALSE(ParseRequest("42").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"ping")").ok());  // truncated
}

TEST(ParseRequest, RejectsMissingOrUnknownOp) {
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest(R"({"id":"x"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"mien"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":3})").ok());
}

TEST(ParseRequest, RejectsUnknownKeysNamingThem) {
  // The motivating bug class: a typo'd key must not silently default.
  const StatusOr<Request> request = ParseRequest(
      R"({"op":"mine","database":"d","min_suport":0.01})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("min_suport"), std::string::npos)
      << request.status().message();
}

// One row of the request table in docs/serving.md.
struct DocumentedKey {
  std::string key;
  std::string type;
  std::string ops;
  std::string meaning;
};

// The cells of a markdown table row "| a | b | ... |", trimmed.
std::vector<std::string> TableCells(const std::string& row) {
  std::vector<std::string> cells;
  size_t start = row.find('|') + 1;
  for (size_t bar = row.find('|', start); bar != std::string::npos;
       start = bar + 1, bar = row.find('|', start)) {
    std::string cell = row.substr(start, bar - start);
    const size_t first = cell.find_first_not_of(' ');
    const size_t last = cell.find_last_not_of(' ');
    cells.push_back(first == std::string::npos
                        ? std::string()
                        : cell.substr(first, last - first + 1));
  }
  return cells;
}

// The rows of the table headed "| Key | Type | Ops | Meaning |".
std::vector<DocumentedKey> DocumentedRequestKeys(const std::string& doc) {
  std::vector<DocumentedKey> keys;
  std::istringstream lines(doc);
  std::string line;
  bool in_table = false;
  while (std::getline(lines, line)) {
    if (line.rfind("| Key | Type | Ops | Meaning |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("|---", 0) == 0) continue;
    if (line.rfind("|", 0) != 0) break;
    const std::vector<std::string> cells = TableCells(line);
    if (cells.size() != 4 || cells[0].size() < 3 || cells[0].front() != '`' ||
        cells[0].back() != '`') {
      ADD_FAILURE() << "malformed request-table row: " << line;
      continue;
    }
    keys.push_back({cells[0].substr(1, cells[0].size() - 2), cells[1],
                    cells[2], cells[3]});
  }
  return keys;
}

// A JSON value of the documented type. A string takes the first quoted
// value its meaning lists (an algorithm name, say), so a key that accepts
// only some strings gets one of them.
std::string ValueOfType(const DocumentedKey& key) {
  if (key.type == "bool") return "true";
  if (key.type == "integer") return "1";
  if (key.type == "number") return "0.5";
  const size_t open = key.meaning.find("`\"");
  if (open != std::string::npos) {
    const size_t close = key.meaning.find("\"`", open + 2);
    if (close != std::string::npos) {
      return key.meaning.substr(open + 1, close - open);
    }
  }
  return "\"x\"";
}

TEST(ParseRequest, EveryDocumentedMineKeyParses) {
  // The protocol doc and the parser must agree: a key the doc's request
  // table lists for mine requests, sent with a value of its documented
  // type, parses.
  std::ifstream in(std::string(PINCER_DOCS_DIR) + "/serving.md");
  ASSERT_TRUE(in.good()) << "cannot read docs/serving.md";
  std::ostringstream doc;
  doc << in.rdbuf();
  const std::vector<DocumentedKey> keys = DocumentedRequestKeys(doc.str());
  size_t mine_keys = 0;
  for (const DocumentedKey& key : keys) {
    if (key.ops != "mine" && key.ops != "all") continue;
    ASSERT_TRUE(key.type == "string" || key.type == "number" ||
                key.type == "integer" || key.type == "bool")
        << key.key << " documents type \"" << key.type << "\"";
    ++mine_keys;
    std::map<std::string, std::string> fields = {
        {"op", "\"mine\""}, {"database", "\"d\""}, {"min_support", "0.5"}};
    if (key.key != "op") fields[key.key] = ValueOfType(key);
    std::string line = "{";
    for (const auto& [name, value] : fields) {
      if (line.size() > 1) line += ",";
      line.append("\"").append(name).append("\":").append(value);
    }
    line += "}";
    const StatusOr<Request> request = ParseRequest(line);
    EXPECT_TRUE(request.ok()) << "documented key " << key.key << ": " << line
                              << " -> " << request.status();
  }
  // Every mine field of Request is in the table, plus op and id.
  EXPECT_GE(mine_keys, 10u);
}

TEST(ParseRequest, RejectsWrongTypes) {
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":7,"min_support":0.5})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":"0.5"})")
          .ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","no_cache":1})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","no_cache":"yes"})").ok());
}

TEST(ParseRequest, MineRequiresDatabaseAndMinSupport) {
  EXPECT_FALSE(ParseRequest(R"({"op":"mine","min_support":0.5})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"mine","database":"d"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"","min_support":0.5})").ok());
}

TEST(ParseRequest, MinSupportMustBeInUnitInterval) {
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":0})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":-0.1})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":1.5})").ok());
  EXPECT_TRUE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":1})").ok());
}

TEST(ParseRequest, BudgetMustBeNonNegative) {
  EXPECT_FALSE(ParseRequest(
                   R"({"op":"mine","database":"d","min_support":0.5,)"
                   R"("budget_ms":-1})")
                   .ok());
  EXPECT_TRUE(ParseRequest(
                  R"({"op":"mine","database":"d","min_support":0.5,)"
                  R"("budget_ms":0})")
                  .ok());
}

TEST(ParseRequest, IntegerFieldsRejectNonIntegerNumberTokens) {
  // JSON happily carries -1, 1.5, and 1e2 as numbers; the raw tokens must
  // still fail the same ParseSize check the CLI flags use.
  for (const char* token : {"-1", "1.5", "1e2", "18446744073709551616"}) {
    const std::string line =
        std::string(R"({"op":"mine","database":"d","min_support":0.5,)") +
        R"("max_passes":)" + token + "}";
    EXPECT_FALSE(ParseRequest(line).ok()) << line;
  }
}

TEST(ParseRequest, DoubleFieldsRejectOverflowTokens) {
  // 1e999 is syntactically valid JSON; ParseDouble must refuse to pass
  // infinity into the mining options.
  EXPECT_FALSE(ParseRequest(
                   R"({"op":"mine","database":"d","min_support":0.5,)"
                   R"("budget_ms":1e999})")
                   .ok());
}

TEST(ParseRequest, RejectsUnknownAlgorithm) {
  EXPECT_FALSE(ParseRequest(
                   R"({"op":"mine","database":"d","min_support":0.5,)"
                   R"("algorithm":"fpgrowth"})")
                   .ok());
  EXPECT_EQ(ParseRequest(
                R"({"op":"mine","database":"d","min_support":0.5,)"
                R"("algorithm":"pincer"})")
                ->algorithm,
            Algorithm::kPincer);
}

TEST(ParseRequest, NonMineOpsIgnoreMineRequirementsButStayStrict) {
  // list/ping/shutdown do not need database or min_support...
  EXPECT_TRUE(ParseRequest(R"({"op":"list"})").ok());
  // ...but fields they do carry are still type-checked and range-checked.
  EXPECT_FALSE(ParseRequest(R"({"op":"list","min_support":"x"})").ok());
}

}  // namespace
}  // namespace pincer
