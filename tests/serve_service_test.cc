// Integration tests for the daemon's protocol core (MiningService), driven
// in-process through HandleLine — no sockets. These pin the serving layer's
// contracts: a served mine is bit-identical to a cold MineMaximal run on
// the same file, a repeat query is answered from cache with ZERO counting
// work, the filter path for stricter thresholds is differentially equal to
// a fresh mine, aborted runs are never cached, and concurrent sessions all
// get cold-identical answers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "counting/array_counters.h"
#include "data/database_io.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "serve/server.h"
#include "testing/db_builder.h"
#include "util/json_reader.h"

namespace pincer {
namespace {

// Extracts the response's mfs array back into result form.
std::vector<FrequentItemset> MfsOf(const JsonValue& response) {
  std::vector<FrequentItemset> out;
  const JsonValue* mfs = response.Find("mfs");
  EXPECT_NE(mfs, nullptr);
  if (mfs == nullptr || !mfs->is_array()) return out;
  for (const JsonValue& element : mfs->array) {
    FrequentItemset fi;
    const JsonValue* support = element.Find("support");
    const JsonValue* items = element.Find("items");
    EXPECT_NE(support, nullptr);
    EXPECT_NE(items, nullptr);
    if (support == nullptr || items == nullptr) continue;
    fi.support = support->AsUint64().value_or(0);
    std::vector<ItemId> ids;
    for (const JsonValue& item : items->array) {
      ids.push_back(static_cast<ItemId>(item.AsUint64().value_or(0)));
    }
    fi.itemset = Itemset(std::move(ids));
    out.push_back(std::move(fi));
  }
  return out;
}

std::string CacheOf(const JsonValue& response) {
  const JsonValue* cache = response.Find("cache");
  if (cache == nullptr || !cache->AsString().has_value()) return "";
  return std::string(*cache->AsString());
}

bool OkOf(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->AsBool().value_or(false);
}

uint64_t QueryCountCalls(const JsonValue& response) {
  const JsonValue* query = response.Find("query");
  if (query == nullptr) return ~0ull;
  const JsonValue* counting = query->Find("counting");
  if (counting == nullptr) return ~0ull;
  const JsonValue* calls = counting->Find("count_calls");
  if (calls == nullptr) return ~0ull;
  return calls->AsUint64().value_or(~0ull);
}

bool ResidentPairsOf(const JsonValue& response) {
  const JsonValue* query = response.Find("query");
  EXPECT_NE(query, nullptr);
  if (query == nullptr) return false;
  const JsonValue* used = query->Find("resident_pairs");
  EXPECT_NE(used, nullptr);
  return used != nullptr && used->AsBool().value_or(false);
}

bool StatsBool(const JsonValue& response, std::string_view key) {
  const JsonValue* stats = response.Find("stats");
  if (stats == nullptr) return false;
  const JsonValue* value = stats->Find(key);
  return value != nullptr && value->AsBool().value_or(false);
}

std::string MineLine(const std::string& database, double min_support,
                     const std::string& algorithm,
                     const std::string& extra = "") {
  std::ostringstream os;
  os << R"({"op":"mine","database":")" << database << R"(","min_support":)"
     << min_support << R"(,"algorithm":")" << algorithm << "\"" << extra
     << "}";
  return os.str();
}

// Sections of a mine response's text, for byte comparisons between
// responses that must differ only in the cache tag and the query's timing:
// the header up to "cache", the mfs array, and the stats object.
std::string ResponsePrefix(const std::string& response) {
  return response.substr(0, response.find("\"cache\""));
}

std::string MfsSection(const std::string& response) {
  const size_t begin = response.find("\"mfs\"");
  return response.substr(begin, response.find("\"query\"") - begin);
}

std::string StatsSuffix(const std::string& response) {
  return response.substr(response.find("\"stats\""));
}

class ServeServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/pincer_serve_service_" +
            std::to_string(::getpid()) + ".basket";
    // Planted patterns give long maximal sets — the regime where the
    // pincer MFCS shortcuts (and thus the filter path's fallback) matter.
    const TransactionDatabase generated = MakePlantedDatabase(
        /*num_items=*/24, /*num_transactions=*/300, /*num_planted=*/3,
        /*pattern_size=*/6, /*pattern_frequency=*/0.3,
        /*noise_probability=*/0.05, /*seed=*/17);
    ASSERT_TRUE(WriteDatabaseToFile(generated, path_).ok());
    // Cold-run comparisons use the file contents, exactly as the daemon
    // sees them, not the pre-serialization in-memory database.
    StatusOr<TransactionDatabase> loaded = ReadDatabaseFromFile(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    db_ = std::move(*loaded);

    ServerOptions options;
    options.databases = {{"quest", path_}};
    options.cache_capacity = 8;
    ASSERT_TRUE(InitService(options));
  }

  bool InitService(const ServerOptions& options) {
    service_.emplace();
    const Status status = service_->Init(options);
    EXPECT_TRUE(status.ok()) << status;
    return status.ok();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  JsonValue Handle(const std::string& line) {
    const std::string response = service_->HandleLine(line);
    StatusOr<JsonValue> parsed = ParseJson(response);
    EXPECT_TRUE(parsed.ok()) << response;
    return parsed.ok() ? std::move(*parsed) : JsonValue{};
  }

  MaximalSetResult ColdMine(double min_support, Algorithm algorithm) {
    MiningOptions options;
    options.min_support = min_support;
    return MineMaximal(db_, options, algorithm);
  }

  std::string path_;
  TransactionDatabase db_;
  std::optional<MiningService> service_;
};

TEST_F(ServeServiceTest, ColdQueryMissesAndMatchesADirectMine) {
  const JsonValue response =
      Handle(MineLine("quest", 0.1, "pincer-adaptive"));
  ASSERT_TRUE(OkOf(response));
  EXPECT_EQ(CacheOf(response), "miss");
  EXPECT_EQ(response.Find("num_transactions")->AsUint64(), db_.size());
  EXPECT_EQ(response.Find("min_count")->AsUint64(),
            db_.MinSupportCount(0.1));

  const MaximalSetResult cold =
      ColdMine(0.1, Algorithm::kPincerAdaptive);
  EXPECT_EQ(MfsOf(response), cold.mfs);
  EXPECT_FALSE(MfsOf(response).empty());  // planted patterns must surface
}

TEST_F(ServeServiceTest, RepeatQueryHitsWithZeroCountingWork) {
  const std::string line = MineLine("quest", 0.1, "pincer-adaptive");
  const std::string first = service_->HandleLine(line);
  const std::string second = service_->HandleLine(line);

  const JsonValue parsed = *ParseJson(second);
  ASSERT_TRUE(OkOf(parsed));
  EXPECT_EQ(CacheOf(parsed), "hit");
  // The acceptance bar: a cache hit does no counting at all.
  EXPECT_EQ(QueryCountCalls(parsed), 0u);
  const JsonValue* scanned =
      parsed.Find("query")->Find("counting")->Find("transactions_scanned");
  EXPECT_EQ(scanned->AsUint64(), 0u);

  // Byte identity everywhere except the cache tag and this query's timing:
  // the header, the mfs array and the originating run's stats suffix must
  // match the miss response exactly.
  ASSERT_NE(first.find("\"stats\""), std::string::npos);
  EXPECT_EQ(ResponsePrefix(first), ResponsePrefix(second));
  EXPECT_EQ(MfsSection(first), MfsSection(second));
  EXPECT_EQ(StatsSuffix(first), StatsSuffix(second));
}

TEST_F(ServeServiceTest, StricterAprioriQueryIsServedByTheFilterPath) {
  // Apriori's checkpoint holds the complete frequent set, so the stricter
  // query must be answered without mining — and still match a cold run.
  const std::string base =
      service_->HandleLine(MineLine("quest", 0.05, "apriori"));
  ASSERT_TRUE(OkOf(*ParseJson(base)));
  const std::string filter_text =
      service_->HandleLine(MineLine("quest", 0.15, "apriori"));
  const JsonValue stricter = *ParseJson(filter_text);
  ASSERT_TRUE(OkOf(stricter));
  EXPECT_EQ(CacheOf(stricter), "filter");
  EXPECT_EQ(QueryCountCalls(stricter), 0u);
  EXPECT_EQ(MfsOf(stricter), ColdMine(0.15, Algorithm::kApriori).mfs);
  // A derived answer carries its base run's stats, byte for byte.
  EXPECT_EQ(StatsSuffix(filter_text), StatsSuffix(base));

  // The derived entry is cached: repeating the stricter query is now an
  // exact hit, with the filter response's bytes outside cache and query.
  const std::string hit_text =
      service_->HandleLine(MineLine("quest", 0.15, "apriori"));
  EXPECT_EQ(CacheOf(*ParseJson(hit_text)), "hit");
  EXPECT_EQ(ResponsePrefix(hit_text), ResponsePrefix(filter_text));
  EXPECT_EQ(MfsSection(hit_text), MfsSection(filter_text));
  EXPECT_EQ(StatsSuffix(hit_text), StatsSuffix(filter_text));
}

TEST_F(ServeServiceTest, StricterPincerQueryIsCorrectHoweverServed) {
  // Pincer runs skip counting subsets of frequent MFCS elements, so the
  // filter path may or may not have the supports it needs. Either way the
  // answer must equal a cold mine (fallback differential).
  ASSERT_TRUE(OkOf(Handle(MineLine("quest", 0.05, "pincer-adaptive"))));
  const JsonValue stricter =
      Handle(MineLine("quest", 0.2, "pincer-adaptive"));
  ASSERT_TRUE(OkOf(stricter));
  const std::string cache = CacheOf(stricter);
  EXPECT_TRUE(cache == "filter" || cache == "miss") << cache;
  EXPECT_EQ(MfsOf(stricter), ColdMine(0.2, Algorithm::kPincerAdaptive).mfs);
}

TEST_F(ServeServiceTest, AlgorithmsDoNotShareCacheEntries) {
  ASSERT_EQ(CacheOf(Handle(MineLine("quest", 0.1, "apriori"))), "miss");
  // Same threshold, different driver: separate fingerprint family.
  EXPECT_EQ(CacheOf(Handle(MineLine("quest", 0.1, "pincer-adaptive"))),
            "miss");
  EXPECT_EQ(CacheOf(Handle(MineLine("quest", 0.1, "apriori"))), "hit");
}

TEST_F(ServeServiceTest, NoCacheBypassesBothDirections) {
  const std::string line =
      MineLine("quest", 0.1, "pincer-adaptive", R"(,"no_cache":true)");
  EXPECT_EQ(CacheOf(Handle(line)), "miss");
  // Not stored: the identical no_cache query mines again...
  EXPECT_EQ(CacheOf(Handle(line)), "miss");
  // ...and did not seed the cache for a normal query either.
  EXPECT_EQ(CacheOf(Handle(MineLine("quest", 0.1, "pincer-adaptive"))),
            "miss");
}

TEST_F(ServeServiceTest, AbortedRunsAreNeverCached) {
  const JsonValue aborted = Handle(MineLine(
      "quest", 0.1, "pincer-adaptive", R"(,"budget_ms":0.000001)"));
  ASSERT_TRUE(OkOf(aborted));
  EXPECT_TRUE(StatsBool(aborted, "aborted"));
  EXPECT_TRUE(StatsBool(aborted, "budget_exceeded"));

  // The budget is outside the fingerprint, so this is the same cache key —
  // and it must miss, because a truncated result would be a wrong answer.
  const JsonValue retry = Handle(MineLine("quest", 0.1, "pincer-adaptive"));
  ASSERT_TRUE(OkOf(retry));
  EXPECT_EQ(CacheOf(retry), "miss");
  EXPECT_FALSE(StatsBool(retry, "aborted"));
  EXPECT_EQ(MfsOf(retry), ColdMine(0.1, Algorithm::kPincerAdaptive).mfs);
}

TEST_F(ServeServiceTest, PassCappedQueryIsAbortedAndNeverCached) {
  // A planted database whose pincer-adaptive run, with an MFCS cap of 2,
  // needs more than 3 passes: capped at 3 its MFS is a partial answer.
  const std::string path = path_ + ".planted";
  const TransactionDatabase planted = MakePlantedDatabase(
      /*num_items=*/16, /*num_transactions=*/200, /*num_planted=*/3,
      /*pattern_size=*/7, /*pattern_frequency=*/0.3,
      /*noise_probability=*/0.15, /*seed=*/1);
  ASSERT_TRUE(WriteDatabaseToFile(planted, path).ok());
  ServerOptions options;
  options.databases = {{"planted", path}};
  ASSERT_TRUE(InitService(options));
  const std::string line =
      MineLine("planted", 0.1, "pincer-adaptive",
               R"(,"mfcs_cardinality_limit":2,"max_passes":3)");
  const JsonValue capped = Handle(line);
  ASSERT_TRUE(OkOf(capped));
  EXPECT_EQ(CacheOf(capped), "miss");
  EXPECT_TRUE(StatsBool(capped, "aborted"));
  EXPECT_FALSE(StatsBool(capped, "budget_exceeded"));

  // Not stored, so the repeat is mined again instead of served the
  // truncated answer.
  const JsonValue repeat = Handle(line);
  ASSERT_TRUE(OkOf(repeat));
  EXPECT_EQ(CacheOf(repeat), "miss");
  EXPECT_TRUE(StatsBool(repeat, "aborted"));
  std::remove(path.c_str());
}

TEST_F(ServeServiceTest, MaxBudgetClampsUnlimitedQueries) {
  ServerOptions options;
  options.databases = {{"quest", path_}};
  options.max_budget_ms = 1e-6;
  ASSERT_TRUE(InitService(options));
  // The query asks for unlimited time; the ceiling applies anyway.
  const JsonValue response =
      Handle(MineLine("quest", 0.1, "pincer-adaptive"));
  ASSERT_TRUE(OkOf(response));
  EXPECT_TRUE(StatsBool(response, "aborted"));
  EXPECT_TRUE(StatsBool(response, "budget_exceeded"));
}

TEST_F(ServeServiceTest, UnknownDatabaseIsNotFound) {
  const JsonValue response = Handle(MineLine("nope", 0.1, "apriori"));
  EXPECT_FALSE(OkOf(response));
  EXPECT_EQ(*response.Find("error_code")->AsString(), "NotFound");
}

TEST_F(ServeServiceTest, ProtocolErrorsComeBackAsResponses) {
  EXPECT_FALSE(OkOf(Handle("this is not json")));
  EXPECT_FALSE(OkOf(Handle(R"({"op":"mine","database":"quest"})")));
  EXPECT_FALSE(OkOf(Handle(R"({"op":"warp"})")));
}

TEST_F(ServeServiceTest, PingAndShutdownAcksEchoTheId) {
  const JsonValue pong = Handle(R"({"op":"ping","id":"p1"})");
  EXPECT_TRUE(OkOf(pong));
  EXPECT_EQ(*pong.Find("id")->AsString(), "p1");
  EXPECT_FALSE(service_->shutdown_requested());
  EXPECT_TRUE(OkOf(Handle(R"({"op":"shutdown"})")));
  EXPECT_TRUE(service_->shutdown_requested());
}

TEST_F(ServeServiceTest, ListReportsResidentDatabasesAndCacheShape) {
  const JsonValue response = Handle(R"({"op":"list"})");
  ASSERT_TRUE(OkOf(response));
  const JsonValue* databases = response.Find("databases");
  ASSERT_NE(databases, nullptr);
  ASSERT_EQ(databases->array.size(), 1u);
  EXPECT_EQ(*databases->array[0].Find("name")->AsString(), "quest");
  EXPECT_EQ(databases->array[0].Find("num_transactions")->AsUint64(),
            db_.size());
  // No mine has offered the database's pair table a matrix yet.
  ASSERT_NE(databases->array[0].Find("pair_items"), nullptr);
  EXPECT_EQ(databases->array[0].Find("pair_items")->AsUint64(), 0u);
  EXPECT_EQ(response.Find("cache")->Find("capacity")->AsUint64(), 8u);
}

TEST_F(ServeServiceTest, ConcurrentSessionsAllGetColdIdenticalAnswers) {
  // Four thresholds, three sessions each, all in flight at once — hits,
  // misses, and mining-mutex contention interleaved. Every response must
  // equal the cold run for its threshold.
  const std::vector<double> thresholds = {0.08, 0.1, 0.15, 0.25};
  std::vector<MaximalSetResult> cold;
  for (const double ms : thresholds) {
    cold.push_back(ColdMine(ms, Algorithm::kPincerAdaptive));
  }

  constexpr int kSessionsPerThreshold = 3;
  std::vector<std::string> responses(thresholds.size() *
                                     kSessionsPerThreshold);
  std::vector<std::thread> sessions;
  for (size_t t = 0; t < thresholds.size(); ++t) {
    for (int s = 0; s < kSessionsPerThreshold; ++s) {
      sessions.emplace_back([&, t, s] {
        responses[t * kSessionsPerThreshold + s] = service_->HandleLine(
            MineLine("quest", thresholds[t], "pincer-adaptive"));
      });
    }
  }
  for (std::thread& session : sessions) session.join();

  for (size_t t = 0; t < thresholds.size(); ++t) {
    for (int s = 0; s < kSessionsPerThreshold; ++s) {
      StatusOr<JsonValue> parsed =
          ParseJson(responses[t * kSessionsPerThreshold + s]);
      ASSERT_TRUE(parsed.ok());
      ASSERT_TRUE(OkOf(*parsed)) << responses[t * kSessionsPerThreshold + s];
      EXPECT_EQ(MfsOf(*parsed), cold[t].mfs)
          << "threshold " << thresholds[t] << " session " << s;
    }
  }
}

TEST_F(ServeServiceTest, ConcurrentHitsOnOneEntryReturnIdenticalBytes) {
  // Every session reads the one cached entry's text at once; each copy
  // must be whole and equal to the answer the miss returned.
  const std::string line = MineLine("quest", 0.08, "pincer-adaptive");
  const std::string miss = service_->HandleLine(line);
  ASSERT_EQ(CacheOf(*ParseJson(miss)), "miss");

  constexpr size_t kSessions = 6;
  constexpr size_t kHitsPerSession = 20;
  std::vector<std::vector<std::string>> responses(kSessions);
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      for (size_t i = 0; i < kHitsPerSession; ++i) {
        responses[s].push_back(service_->HandleLine(line));
      }
    });
  }
  for (std::thread& session : sessions) session.join();

  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(responses[s].size(), kHitsPerSession);
    for (const std::string& response : responses[s]) {
      ASSERT_EQ(CacheOf(*ParseJson(response)), "hit") << "session " << s;
      EXPECT_EQ(ResponsePrefix(response), ResponsePrefix(miss));
      EXPECT_EQ(MfsSection(response), MfsSection(miss)) << "session " << s;
      EXPECT_EQ(StatsSuffix(response), StatsSuffix(miss));
    }
  }
}

TEST_F(ServeServiceTest, ConcurrentFiltersReadOneSharedSupportTable) {
  // One cached Apriori base; six stricter queries in flight at once all
  // descend from it (or from an entry derived from it, which shares its
  // table), reading the run's SupportTable without a lock.
  ASSERT_EQ(CacheOf(Handle(MineLine("quest", 0.05, "apriori"))), "miss");
  const std::vector<double> thresholds = {0.08, 0.1, 0.15, 0.2, 0.25, 0.3};
  std::vector<std::string> responses(thresholds.size());
  std::vector<std::thread> sessions;
  for (size_t t = 0; t < thresholds.size(); ++t) {
    sessions.emplace_back([&, t] {
      responses[t] =
          service_->HandleLine(MineLine("quest", thresholds[t], "apriori"));
    });
  }
  for (std::thread& session : sessions) session.join();

  for (size_t t = 0; t < thresholds.size(); ++t) {
    StatusOr<JsonValue> parsed = ParseJson(responses[t]);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(OkOf(*parsed)) << responses[t];
    EXPECT_EQ(CacheOf(*parsed), "filter") << "threshold " << thresholds[t];
    EXPECT_EQ(MfsOf(*parsed), ColdMine(thresholds[t], Algorithm::kApriori).mfs)
        << "threshold " << thresholds[t];
  }
}

// A scattered Quest file: hundreds of frequent items at 1-3%, each in few
// rows, so pass 2 counts by the array scan, never from the index, and the
// database's pair table serves it. More than kScanAbortCheckRows rows, so
// a budget can stop that scan midway.
class ServePairTableTest : public ServeServiceTest {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/pincer_serve_pairs_" +
            std::to_string(::getpid()) + ".basket";
    QuestParams params;
    params.num_transactions = 5000;
    params.avg_transaction_size = 8;
    params.num_items = 300;
    params.num_patterns = 500;
    params.seed = 11;
    const StatusOr<TransactionDatabase> generated =
        GenerateQuestDatabase(params);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ASSERT_TRUE(WriteDatabaseToFile(*generated, path_).ok());
    StatusOr<TransactionDatabase> loaded = ReadDatabaseFromFile(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    db_ = std::move(*loaded);
  }

  // A fresh daemon over the file: its pair table is empty.
  bool Boot() {
    ServerOptions options;
    options.databases = {{"scattered", path_}};
    return InitService(options);
  }

  uint64_t PairItems() {
    const JsonValue list = Handle(R"({"op":"list"})");
    const JsonValue* databases = list.Find("databases");
    if (databases == nullptr || databases->array.size() != 1) return ~0ull;
    const JsonValue* items = databases->array[0].Find("pair_items");
    return items == nullptr ? ~0ull : items->AsUint64().value_or(~0ull);
  }

  // Items frequent at `min_support`: the items of its pass-2 matrix.
  uint64_t FrequentItems(double min_support) const {
    const uint64_t min_count = db_.MinSupportCount(min_support);
    uint64_t items = 0;
    for (const uint64_t count : CountSingletons(db_)) {
      items += count >= min_count;
    }
    return items;
  }

  static constexpr Algorithm kAlgorithms[] = {
      Algorithm::kApriori, Algorithm::kAprioriCombined, Algorithm::kPincer,
      Algorithm::kPincerAdaptive};
};

TEST_F(ServePairTableTest, MinesAtOrAboveTheLowestThresholdCopyPassTwo) {
  // Each mine's answer and per-pass figures are a cold run's; from the
  // first mine at 1% on, pass 2 of every mine at or above 1% is copied.
  struct Step {
    double min_support;
    bool resident_pairs;
    double table_support;
  };
  const Step steps[] = {
      {0.03, false, 0.03}, {0.01, false, 0.01}, {0.02, true, 0.01},
      {0.03, true, 0.01}};
  for (const Algorithm algorithm : kAlgorithms) {
    const std::string name(AlgorithmName(algorithm));
    ASSERT_TRUE(Boot());
    EXPECT_EQ(PairItems(), 0u) << name;
    for (const Step& step : steps) {
      const std::string context =
          name + " at " + std::to_string(step.min_support);
      const JsonValue response = Handle(
          MineLine("scattered", step.min_support, name, R"(,"no_cache":true)"));
      ASSERT_TRUE(OkOf(response)) << context;
      EXPECT_EQ(CacheOf(response), "miss") << context;
      EXPECT_EQ(ResidentPairsOf(response), step.resident_pairs) << context;
      EXPECT_EQ(PairItems(), FrequentItems(step.table_support)) << context;

      MiningOptions options;
      options.min_support = step.min_support;
      options.backend = CounterBackend::kAuto;
      const MaximalSetResult cold = MineMaximal(db_, options, algorithm);
      EXPECT_EQ(MfsOf(response), cold.mfs) << context;
      const JsonValue* per_pass = response.Find("stats")->Find("per_pass");
      ASSERT_NE(per_pass, nullptr) << context;
      ASSERT_EQ(per_pass->array.size(), cold.stats.per_pass.size()) << context;
      ASSERT_GE(cold.stats.per_pass.size(), 2u) << context;
      for (size_t i = 0; i < per_pass->array.size(); ++i) {
        const JsonValue& served = per_pass->array[i];
        const PassStats& want = cold.stats.per_pass[i];
        EXPECT_EQ(served.Find("candidates")->AsUint64(), want.num_candidates)
            << context << " pass " << want.pass;
        EXPECT_EQ(served.Find("frequent")->AsUint64(), want.num_frequent)
            << context << " pass " << want.pass;
        EXPECT_EQ(*served.Find("backend_used")->AsString(), want.backend_used)
            << context << " pass " << want.pass;
      }
      EXPECT_EQ(cold.stats.per_pass[1].backend_used, "array") << context;
    }
  }
}

TEST_F(ServePairTableTest, PassTwoStoppedByTheBudgetLeavesTheTable) {
  for (const Algorithm algorithm : kAlgorithms) {
    const std::string name(AlgorithmName(algorithm));
    ASSERT_TRUE(Boot());
    ASSERT_TRUE(OkOf(Handle(
        MineLine("scattered", 0.03, name, R"(,"no_cache":true)"))));
    ASSERT_EQ(PairItems(), FrequentItems(0.03)) << name;

    // Pass 1 reads the index whole; pass 2's scan polls the budget after
    // its first kScanAbortCheckRows rows and stops there.
    const JsonValue stopped = Handle(MineLine(
        "scattered", 0.01, name, R"(,"no_cache":true,"budget_ms":0.000001)"));
    ASSERT_TRUE(OkOf(stopped)) << name;
    EXPECT_TRUE(StatsBool(stopped, "budget_exceeded")) << name;
    EXPECT_EQ(stopped.Find("stats")->Find("passes")->AsUint64(), 1u) << name;
    EXPECT_FALSE(ResidentPairsOf(stopped)) << name;
    EXPECT_EQ(PairItems(), FrequentItems(0.03)) << name;

    // The same mine with time to finish grows the table.
    const JsonValue finished =
        Handle(MineLine("scattered", 0.01, name, R"(,"no_cache":true)"));
    ASSERT_TRUE(OkOf(finished)) << name;
    EXPECT_FALSE(StatsBool(finished, "aborted")) << name;
    EXPECT_EQ(PairItems(), FrequentItems(0.01)) << name;
  }
}

TEST_F(ServeServiceTest, InitRejectsBadConfigurations) {
  ServerOptions empty;
  MiningService no_dbs;
  EXPECT_FALSE(no_dbs.Init(empty).ok());

  ServerOptions duplicate;
  duplicate.databases = {{"a", path_}, {"a", path_}};
  MiningService dup_service;
  EXPECT_FALSE(dup_service.Init(duplicate).ok());

  ServerOptions missing;
  missing.databases = {{"a", path_ + ".does-not-exist"}};
  MiningService missing_service;
  EXPECT_FALSE(missing_service.Init(missing).ok());
}

}  // namespace
}  // namespace pincer
