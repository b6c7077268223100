// perfbench_helper: the compiled half of the benchmark (perfbench/run.py
// drives it and the shipped programs). Every subcommand prints one JSON
// object on stdout.
//
//   gen --kind=scattered|concentrated --seed=N --out=F.basket --ref=F.ref
//       --expect=F.txt [--drop]
//     Writes the workload database and its reference answer. The database
//     is the Quest database of the kind (fixed generator seed kBaseSeed)
//     with its item ids permuted by --seed, so every seed poses the same
//     mining problem under different labels. The reference is every
//     itemset frequent at the kind's base threshold, mined by Apriori over
//     the trie counter from the in-memory rows (not from the file);
//     --expect gets the mine_cli output for the base threshold, which the
//     printed "base_support" gives.
//     --drop removes one itemset from the expected answer (self-test).
//
//   client --socket=PATH --dbs=SPEC [--drop]
//     The serve traffic: one process, three connections in a closed loop
//     against a pincer_serve at PATH, in windows commanded on stdin. Each
//     window connects to the daemon running then, warms its cache with the
//     hot keys, and disconnects at its end. Connection 0 issues the
//     no-cache mining queries of a fixed cycle; connections 1 and 2
//     interleave exact cache hits and stricter-threshold filter queries.
//     Every response is checked against the reference, and latencies are
//     reported per window.
//
//   trace --dbs=SPEC --shard-binary=PATH --work-dir=DIR --spans=FILE [--drop]
//     The traced run: calls each layer's public entry points in-process on
//     the workload's inputs and times them from outside the library. The
//     mine_cli-like job is replicated kTraceJobs times; the serve replay
//     sends the hot keys, kTraceReplay hits and filters, and one miss cycle.
//
// SPEC is NAME=BASKET@REF[,...]: a database of kind NAME and the reference
// file gen wrote for it. The kind fixes the support range its queries span
// (SupportRangeFor).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "counting/counter_factory.h"
#include "data/database_io.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "orchestrate/orchestrator.h"
#include "orchestrate/shard_result.h"
#include "orchestrate/sharder.h"
#include "serve/server.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/prng.h"
#include "util/socket.h"
#include "util/sync.h"

namespace pincer {
namespace {

using Clock = std::chrono::steady_clock;

// The Quest generator's own default seed: each workload mines one fixed
// database per kind, relabeled per run (see gen above).
constexpr uint64_t kBaseSeed = 19980323;
constexpr size_t kRows = 100000;
// The traced run: mine_cli-like replicas per database (the median one is
// reported), and hit/filter queries replayed after the warm-up.
constexpr size_t kTraceJobs = 3;
constexpr size_t kTraceReplay = 150;

const Clock::time_point kEpoch = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_helper: " << message << "\n";
  std::exit(1);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Die("unexpected argument: " + arg);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) Die("missing --" + name);
  return it->second;
}

uint64_t FileBytes(const std::string& path) {
  return static_cast<uint64_t>(
      std::ifstream(path, std::ios::binary | std::ios::ate).tellg());
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) parts.push_back(part);
  return parts;
}

// ---------------------------------------------------------------------------
// Reference answers.

std::string FormatItemsets(const std::vector<FrequentItemset>& itemsets) {
  std::string text;
  for (const FrequentItemset& fi : itemsets) {
    text += std::to_string(fi.support);
    text += '\t';
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) text += ' ';
      text += std::to_string(fi.itemset[i]);
    }
    text += '\n';
  }
  return text;
}

std::vector<FrequentItemset> ReadItemsets(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<FrequentItemset> itemsets;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) Die("malformed reference line in " + path);
    FrequentItemset fi;
    fi.support = std::strtoull(line.substr(0, tab).c_str(), nullptr, 10);
    std::vector<ItemId> items;
    for (const std::string& token : Split(line.substr(tab + 1), ' ')) {
      items.push_back(static_cast<ItemId>(std::stoul(token)));
    }
    fi.itemset = Itemset(std::move(items));
    itemsets.push_back(std::move(fi));
  }
  return itemsets;
}

// The maximal elements of {X in frequent : support(X) >= min_count},
// sorted. `frequent` is downward closed, so X is maximal iff no frequent
// X + {e} exists: every kept itemset marks its one-smaller subsets.
std::vector<FrequentItemset> MaximalAt(
    const std::vector<FrequentItemset>& frequent, uint64_t min_count) {
  std::unordered_set<Itemset, ItemsetHash> covered;
  for (const FrequentItemset& fi : frequent) {
    if (fi.support < min_count || fi.itemset.size() < 2) continue;
    for (const ItemId item : fi.itemset) {
      covered.insert(fi.itemset.WithoutItem(item));
    }
  }
  std::vector<FrequentItemset> maximal;
  for (const FrequentItemset& fi : frequent) {
    if (fi.support >= min_count && covered.count(fi.itemset) == 0) {
      maximal.push_back(fi);
    }
  }
  std::sort(maximal.begin(), maximal.end());
  return maximal;
}

// ceil(fraction * |D|), at least 1: the count a support fraction resolves
// to, computed the way the programs document it.
uint64_t MinCount(double fraction) {
  const double scaled = fraction * static_cast<double>(kRows);
  return std::max<uint64_t>(static_cast<uint64_t>(std::ceil(scaled)), 1);
}

std::string MineCliOutput(const std::vector<FrequentItemset>& mfs) {
  return "# maximal frequent itemsets: " + std::to_string(mfs.size()) +
         "\n# format: support <tab> items...\n" + FormatItemsets(mfs);
}

// ---------------------------------------------------------------------------
// gen

QuestParams ParamsFor(const std::string& kind) {
  QuestParams params;
  params.num_transactions = kRows;
  params.num_items = 1000;
  params.avg_transaction_size = 20;
  params.seed = kBaseSeed;
  if (kind == "scattered") {  // Figure 3: T20.I6, |L| = 2000
    params.avg_pattern_size = 6;
    params.num_patterns = 2000;
  } else if (kind == "concentrated") {  // Figure 4: T20.I10, |L| = 50
    params.avg_pattern_size = 10;
    params.num_patterns = 50;
  } else {
    Die("unknown --kind: " + kind);
  }
  return params;
}

// The supports a kind's queries span. The low end is the base threshold:
// the batch jobs' support and the reference's, from which every stricter
// threshold's answer is derived. hot_levels is the number of evenly spaced
// hot thresholds in the range (see BuildMix).
struct SupportRange {
  double lo;
  double hi;
  int hot_levels;
};

SupportRange SupportRangeFor(const std::string& kind) {
  if (kind == "scattered") return {0.005, 0.02, 3};
  if (kind == "concentrated") return {0.10, 0.18, 2};
  Die("unknown database kind: " + kind);
}

// Fisher-Yates over [0, n) driven by the library PRNG.
std::vector<size_t> Permutation(size_t n, Prng& prng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[prng.UniformUint64(i)]);
  }
  return order;
}

// An isomorphic copy of `base`: item ids renamed by a permutation drawn
// from `seed`. Rows keep their order, so the shards pincer_shard cuts hold
// the same transactions under every seed.
TransactionDatabase Relabel(const TransactionDatabase& base, uint64_t seed) {
  Prng prng(seed);
  const std::vector<size_t> item_map = Permutation(base.num_items(), prng);
  TransactionDatabase db(base.num_items());
  for (const Transaction& row : base.transactions()) {
    Transaction renamed;
    renamed.reserve(row.size());
    for (const ItemId item : row) {
      renamed.push_back(static_cast<ItemId>(item_map[item]));
    }
    db.AddTransaction(std::move(renamed));
  }
  return db;
}

int Gen(const std::map<std::string, std::string>& flags) {
  const std::string kind = Flag(flags, "kind");
  const QuestParams params = ParamsFor(kind);
  const uint64_t seed =
      std::strtoull(Flag(flags, "seed").c_str(), nullptr, 10);
  StatusOr<TransactionDatabase> base = GenerateQuestDatabase(params);
  if (!base.ok()) Die(base.status().ToString());
  const TransactionDatabase db = Relabel(*base, seed);
  const std::string out = Flag(flags, "out");
  if (Status s = WriteDatabaseToFile(db, out); !s.ok()) Die(s.ToString());

  MiningOptions options;
  options.min_support = SupportRangeFor(kind).lo;
  options.backend = CounterBackend::kTrie;
  const FrequentSetResult frequent = MineFrequent(db, options);
  if (frequent.stats.aborted) Die("reference run aborted");
  std::ofstream(Flag(flags, "ref")) << FormatItemsets(frequent.frequent);
  std::vector<FrequentItemset> mfs =
      MaximalAt(frequent.frequent, MinCount(options.min_support));
  if (flags.count("drop") != 0 && !mfs.empty()) mfs.pop_back();
  std::ofstream(Flag(flags, "expect")) << MineCliOutput(mfs);

  size_t max_len = 0;
  for (const FrequentItemset& fi : mfs) {
    max_len = std::max(max_len, fi.itemset.size());
  }
  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("kind", kind);
  json.KeyValue("quest", params.Name());
  json.KeyValue("quest_seed", params.seed);
  json.KeyValue("seed", seed);
  json.KeyValue("file_bytes", FileBytes(out));
  json.KeyValue("base_support", options.min_support);
  json.KeyValue("frequent", static_cast<uint64_t>(frequent.frequent.size()));
  json.KeyValue("mfs_size", static_cast<uint64_t>(mfs.size()));
  json.KeyValue("mfs_max_len", static_cast<uint64_t>(max_len));
  json.EndObject();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// The served query mix, shared by the socket client and the traced replay.

struct DbSpec {
  std::string name;  // the database kind
  std::string basket;
  std::string ref;
  SupportRange range;
};

std::vector<DbSpec> ParseDbs(const std::string& text) {
  std::vector<DbSpec> dbs;
  for (const std::string& entry : Split(text, ',')) {
    const size_t eq = entry.find('=');
    const std::vector<std::string> parts =
        Split(eq == std::string::npos ? "" : entry.substr(eq + 1), '@');
    if (parts.size() != 2) Die("bad --dbs entry: " + entry);
    const std::string name = entry.substr(0, eq);
    dbs.push_back({name, parts[0], parts[1], SupportRangeFor(name)});
  }
  return dbs;
}

struct Query {
  size_t db = 0;
  std::string support;  // as sent, so client and daemon parse one string
  std::string algorithm;
  bool no_cache = false;

  std::string Line(const std::vector<DbSpec>& dbs) const {
    return "{\"op\":\"mine\",\"database\":\"" + dbs[db].name +
           "\",\"min_support\":" + support + ",\"algorithm\":\"" + algorithm +
           "\"" + (no_cache ? ",\"no_cache\":true" : "") + "}";
  }
  uint64_t Count() const {
    return MinCount(std::strtod(support.c_str(), nullptr));
  }
};

std::string SupportText(double support) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", support);
  return buffer;
}

// Per database with support range [lo, hi]:
//   hot     — pincer-adaptive and apriori at hot_levels evenly spaced
//             thresholds (3 on the scattered file, 2 on the concentrated
//             one: 10 keys for both, well under the 64-entry cache);
//   filters — apriori at 96 thresholds spread evenly over the gaps between
//             the hot apriori thresholds, strictly inside them (more than
//             the cache's spare room of 54, so cycling them keeps evicting
//             and every visit filters again);
//   misses  — no-cache pincer-adaptive at 5 thresholds and apriori at LO
//             and the midpoint: a fixed cycle, so every run mines the same
//             queries. The two mines at LO are the costliest keys, so
//             they set the miss p90.
// A hit's latency grows with the size of its MFS, so the two hot keys of
// one (database, threshold) form one latency group, and the hits' CDF
// steps between groups. The hot levels make 5 groups of a fifth each
// (3 of a third each on the scattered file alone), so the hit p50 and p90
// fall inside a group, not on a step. On a step, how a group's answers
// split between fast and slow moved p90 from one group's latency to the
// next's from run to run.
struct Mix {
  std::vector<Query> hot;
  std::vector<Query> filters;
  std::vector<Query> misses;
};

Mix BuildMix(const std::vector<DbSpec>& dbs) {
  Mix mix;
  for (size_t d = 0; d < dbs.size(); ++d) {
    const SupportRange& range = dbs[d].range;
    const int gaps = range.hot_levels - 1;
    const double step = (range.hi - range.lo) / gaps;
    for (const char* algorithm : {"pincer-adaptive", "apriori"}) {
      for (int j = 0; j <= gaps; ++j) {
        mix.hot.push_back(
            {d, SupportText(range.lo + j * step), algorithm, false});
      }
    }
  }
  std::vector<Query> by_support;
  for (int i = 0; i < 96; ++i) {
    for (size_t d = 0; d < dbs.size(); ++d) {
      const SupportRange& range = dbs[d].range;
      const int gaps = range.hot_levels - 1;
      const int per_gap = 96 / gaps;
      const double step = (range.hi - range.lo) / gaps;
      const double gap_lo = range.lo + (i / per_gap) * step;
      by_support.push_back(
          {d, SupportText(gap_lo + (i % per_gap + 1) * step / (per_gap + 1)),
           "apriori", false});
    }
  }
  // A filter's cost falls as its threshold rises above its base. Visited
  // with a stride coprime to the catalogue's size, any run of consecutive
  // filters samples every part of the range, so a window that ends partway
  // through the catalogue still sees its usual mix of costs.
  for (size_t k = 0; k < by_support.size(); ++k) {
    mix.filters.push_back(by_support[k * 37 % by_support.size()]);
  }
  for (int j = 0; j <= 6; ++j) {
    for (size_t d = 0; d < dbs.size(); ++d) {
      const double lo = dbs[d].range.lo;
      const double span = dbs[d].range.hi - lo;
      if (j < 5) {
        mix.misses.push_back(
            {d, SupportText(lo + j * span / 4), "pincer-adaptive", true});
      } else {
        mix.misses.push_back(
            {d, SupportText(lo + (j - 5) * span / 2), "apriori", true});
      }
    }
  }
  return mix;
}

std::string_view Outcome(std::string_view response) {
  const size_t at = response.find("\"cache\":\"");
  if (at == std::string_view::npos) return "";
  const size_t start = at + 9;
  return response.substr(start, response.find('"', start) - start);
}

// The "mfs":[...] member of a mine response, for cheap equality checks. The
// daemon writes it just before the "query" member, whose timings differ
// from one answer of a key to the next.
std::string_view MfsMember(std::string_view response) {
  const size_t at = response.find("\"mfs\":[");
  const size_t end = response.find("],\"query\":", at);
  if (at == std::string_view::npos || end == std::string_view::npos) return "";
  return response.substr(at, end + 1 - at);
}

// Full check of one response against the reference MFS. Returns "" when
// correct, else the reason.
std::string CheckResponse(const std::string& response,
                          const std::vector<FrequentItemset>& expected,
                          uint64_t min_count, uint64_t* passes,
                          uint64_t* candidates) {
  StatusOr<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) return "unparseable response";
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || ok->AsBool() != std::optional<bool>(true)) {
    return "ok is not true";
  }
  const JsonValue* stats = parsed->Find("stats");
  const JsonValue* aborted = stats ? stats->Find("aborted") : nullptr;
  if (aborted == nullptr || aborted->AsBool() != std::optional<bool>(false)) {
    return "stats.aborted is not false";
  }
  const JsonValue* count = parsed->Find("min_count");
  if (count == nullptr || count->AsUint64() != min_count) {
    return "min_count differs";
  }
  if (const JsonValue* p = stats->Find("passes")) {
    *passes = p->AsUint64().value_or(0);
  }
  if (const JsonValue* c = stats->Find("reported_candidates")) {
    *candidates = c->AsUint64().value_or(0);
  }
  const JsonValue* mfs = parsed->Find("mfs");
  if (mfs == nullptr || !mfs->is_array()) return "no mfs array";
  std::vector<FrequentItemset> got;
  for (const JsonValue& element : mfs->array) {
    FrequentItemset fi;
    const JsonValue* support = element.Find("support");
    const JsonValue* items = element.Find("items");
    if (support == nullptr || items == nullptr) return "malformed mfs element";
    fi.support = support->AsUint64().value_or(0);
    std::vector<ItemId> ids;
    for (const JsonValue& item : items->array) {
      ids.push_back(static_cast<ItemId>(item.AsUint64().value_or(0)));
    }
    fi.itemset = Itemset(std::move(ids));
    got.push_back(std::move(fi));
  }
  std::sort(got.begin(), got.end());
  if (got != expected) {
    return "mfs differs from the reference (" + std::to_string(got.size()) +
           " vs " + std::to_string(expected.size()) + " itemsets)";
  }
  return "";
}

// Reference MFS per distinct (database, count) of the mix.
class Reference {
 public:
  Reference(const std::vector<DbSpec>& dbs, bool drop) : drop_(drop) {
    for (const DbSpec& db : dbs) frequent_.push_back(ReadItemsets(db.ref));
  }
  const std::vector<FrequentItemset>& Mfs(size_t db, uint64_t count) {
    auto& slot = cache_[{db, count}];
    if (slot.empty()) {
      slot = MaximalAt(frequent_[db], count);
      if (drop_ && !slot.empty()) slot.pop_back();
    }
    return slot;
  }

 private:
  bool drop_;
  std::vector<std::vector<FrequentItemset>> frequent_;
  std::map<std::pair<size_t, uint64_t>, std::vector<FrequentItemset>> cache_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void WriteArray(JsonWriter& json, std::string_view key,
                const std::vector<double>& values) {
  json.Key(key).BeginArray();
  for (const double value : values) json.Value(value);
  json.EndArray();
}

// ---------------------------------------------------------------------------
// client

enum class Kind { kHot, kFilter, kMiss };

struct Record {
  Kind kind;
  size_t query;  // index into the kind's list
  double ms = 0;
  size_t bytes = 0;
  std::string outcome;
  size_t hash = 0;
  bool io_ok = true;
  size_t window = 0;  // the traffic window it was sent in
};

struct Connection {
  UniqueFd fd;
  std::unique_ptr<LineReader> reader;

  bool Open(const std::string& socket) {
    StatusOr<UniqueFd> connected = ConnectUnix(socket);
    if (!connected.ok()) return false;
    fd = std::move(*connected);
    reader = std::make_unique<LineReader>(fd);
    return true;
  }
  void Close() {
    reader.reset();
    fd.Reset();
  }
  // Sends one line and reads the response; false on an I/O failure.
  bool RoundTrip(const std::string& line, std::string& response, double& ms) {
    const double start = NowMs();
    if (!WriteLine(fd, line).ok()) return false;
    StatusOr<bool> got = reader->ReadLine(response);
    ms = NowMs() - start;
    return got.ok() && *got;
  }
};

int Client(const std::map<std::string, std::string>& flags) {
  const std::vector<DbSpec> dbs = ParseDbs(Flag(flags, "dbs"));
  const Mix mix = BuildMix(dbs);
  const std::string socket = Flag(flags, "socket");
  Reference reference(dbs, flags.count("drop") != 0);

  const auto list_of = [&mix](Kind kind) -> const std::vector<Query>& {
    return kind == Kind::kHot      ? mix.hot
           : kind == Kind::kFilter ? mix.filters
                                   : mix.misses;
  };

  Connection connections[3];

  // A response is checked in full once per (kind, query, mfs hash), after
  // the windows; every other response only has its "mfs" member hashed.
  // Each connection keeps its own samples, so the closed loops share no
  // lock, and client_ms[c] sums the time connection c spends on its
  // responses between reading one and sending the next request.
  using SampleKey = std::tuple<Kind, size_t, size_t>;
  std::map<SampleKey, std::string> samples[3];
  double client_ms[3] = {0, 0, 0};
  std::vector<double> window_ms;  // one entry per window run so far
  const auto issue = [&](size_t c, Kind kind, size_t index) {
    Record record{kind, index, 0, 0, "", 0, true, window_ms.size()};
    std::string response;
    record.io_ok = connections[c].RoundTrip(list_of(kind)[index].Line(dbs),
                                            response, record.ms);
    const double start = NowMs();
    record.bytes = response.size() + 1;
    record.outcome = std::string(Outcome(response));
    record.hash = std::hash<std::string_view>()(MfsMember(response));
    samples[c].try_emplace(SampleKey{kind, index, record.hash},
                           std::move(response));
    client_ms[c] += NowMs() - start;
    return record;
  };

  // Traffic runs in windows, one per "window N" line on stdin. A window
  // connects, sends every hot key once on connection 0 so that later
  // repeats are exact hits (checked, not timed), and then times the
  // traffic: connection 0 mines the next N whole cycles of the miss list;
  // meanwhile connections 1 and 2 send two hits and one filter query in
  // turn. Every window thus mines the same queries.
  std::vector<Record> warmup;
  std::vector<Record> records[3];
  size_t next_miss = 0;
  size_t next_filter = 0;
  size_t next_hot[3] = {0, 0, mix.hot.size() / 2};
  size_t step[3] = {0, 0, 0};
  Mutex filter_mu;
  const auto window = [&](size_t cycles) {
    for (Connection& c : connections) {
      if (!c.Open(socket)) Die("cannot connect to " + socket);
    }
    const double client_before = client_ms[0];  // client_share: traffic only
    for (size_t i = 0; i < mix.hot.size(); ++i) {
      warmup.push_back(issue(0, Kind::kHot, i));
    }
    client_ms[0] = client_before;
    std::atomic<bool> mined{false};
    const double start = NowMs();
    std::thread miner([&] {
      for (size_t i = 0; i < cycles * mix.misses.size(); ++i) {
        records[0].push_back(
            issue(0, Kind::kMiss, next_miss++ % mix.misses.size()));
      }
      mined = true;
    });
    std::vector<std::thread> readers;
    for (size_t c = 1; c <= 2; ++c) {
      readers.emplace_back([&, c] {
        while (!mined) {
          if (step[c]++ % 3 == 2) {
            size_t filter = 0;
            {
              MutexLock lock(filter_mu);
              filter = next_filter++ % mix.filters.size();
            }
            records[c].push_back(issue(c, Kind::kFilter, filter));
          } else {
            records[c].push_back(
                issue(c, Kind::kHot, next_hot[c]++ % mix.hot.size()));
          }
        }
      });
    }
    miner.join();
    for (std::thread& t : readers) t.join();
    window_ms.push_back(NowMs() - start);
    for (Connection& c : connections) c.Close();
  };
  std::cout << "ok" << std::endl;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream command(line);
    std::string op;
    size_t cycles = 0;
    command >> op >> cycles;
    if (op != "window" || cycles == 0) Die("bad client command: " + line);
    window(cycles);
    std::cout << "ok" << std::endl;
  }

  // Deferred checks, outside every timed span.
  samples[0].merge(samples[1]);
  samples[0].merge(samples[2]);
  std::map<SampleKey, std::string> verdict;
  std::map<size_t, std::pair<uint64_t, uint64_t>> miss_work;
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_failure;
  const auto account = [&](const Record& r) {
    ++attempted;
    const SampleKey key{r.kind, r.query, r.hash};
    auto found = verdict.find(key);
    if (r.io_ok && found == verdict.end()) {
      const Query& query = list_of(r.kind)[r.query];
      uint64_t passes = 0;
      uint64_t candidates = 0;
      found = verdict.emplace(key, CheckResponse(
                                       samples[0][key],
                                       reference.Mfs(query.db, query.Count()),
                                       query.Count(), &passes, &candidates))
                  .first;
      if (r.kind == Kind::kMiss) miss_work[r.query] = {passes, candidates};
    }
    const std::string reason = r.io_ok ? found->second : "connection failed";
    if (reason.empty()) return true;
    ++failed;
    if (first_failure.empty()) first_failure = reason;
    return false;
  };
  for (const Record& r : warmup) account(r);

  // Every answered query's latency, by window and by the response's
  // outcome ("all" holds every outcome); failed ones are only counted.
  std::vector<std::map<std::string, std::vector<double>>> latency(
      window_ms.size());
  size_t completed = 0;
  std::vector<double> miss_passes;
  std::vector<double> miss_candidates;
  double bytes = 0;
  double round_trip_ms = 0;
  size_t filter_sent = 0;
  size_t filter_answers = 0;
  size_t unexpected = 0;
  std::map<std::string, uint64_t> answered_by_outcome;
  for (const auto& list : records) {
    for (const Record& r : list) {
      round_trip_ms += r.ms;
      if (!account(r)) continue;
      ++answered_by_outcome[r.outcome];
      latency[r.window][r.outcome].push_back(r.ms);
      latency[r.window]["all"].push_back(r.ms);
      ++completed;
      bytes += static_cast<double>(r.bytes);
      if (r.kind == Kind::kFilter) {
        ++filter_sent;
        if (r.outcome == "filter") ++filter_answers;
      }
      const char* expected_outcome = r.kind == Kind::kHot    ? "hit"
                                     : r.kind == Kind::kMiss ? "miss"
                                                             : "filter";
      if (r.outcome != expected_outcome &&
          !(r.kind == Kind::kFilter && r.outcome == "hit")) {
        ++unexpected;
      }
      if (r.kind == Kind::kMiss) {
        miss_passes.push_back(static_cast<double>(miss_work[r.query].first));
        miss_candidates.push_back(
            static_cast<double>(miss_work[r.query].second));
      }
    }
  }
  const double check_ms = client_ms[0] + client_ms[1] + client_ms[2];

  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("attempted", static_cast<uint64_t>(attempted));
  json.KeyValue("failed", static_cast<uint64_t>(failed));
  json.KeyValue("first_failure", first_failure);
  // The client's own share of the connections' busy time in the windows.
  json.KeyValue("client_share", check_ms / (check_ms + round_trip_ms));
  json.KeyValue("completed", static_cast<uint64_t>(completed));
  json.KeyValue("unexpected_outcomes", static_cast<uint64_t>(unexpected));
  json.KeyValue("filter_sent", static_cast<uint64_t>(filter_sent));
  json.KeyValue("filter_answers", static_cast<uint64_t>(filter_answers));
  json.KeyValue("response_bytes", bytes);
  json.Key("answered").BeginObject();
  for (const auto& [outcome, count] : answered_by_outcome) {
    json.KeyValue(outcome, count);
  }
  json.EndObject();
  json.Key("windows").BeginArray();
  for (size_t w = 0; w < window_ms.size(); ++w) {
    json.BeginObject();
    json.KeyValue("s", window_ms[w] / 1000);
    for (const char* outcome : {"all", "hit", "filter", "miss"}) {
      WriteArray(json, std::string(outcome) + "_ms", latency[w][outcome]);
    }
    json.EndObject();
  }
  json.EndArray();
  WriteArray(json, "miss_passes", miss_passes);
  WriteArray(json, "miss_candidates", miss_candidates);
  json.EndObject();
  std::cout << "\n";
  return 0;
}


// ---------------------------------------------------------------------------
// trace

// Spans of the traced run: kept in memory, written out when the run ends.
struct Span {
  std::string name;
  std::string id;  // the job or query the span belongs to
  int parent = -1;
  double start = 0;
  double end = 0;
};

class Tracer {
 public:
  int Open(std::string name, int parent, std::string id) {
    spans_.push_back({std::move(name), std::move(id), parent, NowMs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double Close(int span) {
    spans_[span].end = NowMs();
    return spans_[span].end - spans_[span].start;
  }
  // Runs `body` inside a span and returns the span's duration.
  double Time(const std::string& name, int parent, const std::string& id,
              const std::function<void()>& body, int* span_out = nullptr) {
    const int span = Open(name, parent, id);
    if (span_out != nullptr) *span_out = span;
    body();
    return Close(span);
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    JsonWriter json(out, 0);
    json.BeginArray();
    for (const Span& span : spans_) {
      json.BeginObject();
      json.KeyValue("name", span.name);
      json.KeyValue("id", span.id);
      json.KeyValue("parent", static_cast<int64_t>(span.parent));
      json.KeyValue("start_ms", span.start);
      json.KeyValue("end_ms", span.end);
      json.EndObject();
    }
    json.EndArray();
    out << "\n";
  }

 private:
  std::vector<Span> spans_;
};

// Forwards every call to the counter it wraps and records each
// CountSupports as a child span of the enclosing mine span. Passed to the
// miners as MiningOptions::resident_counter, the hook they offer for a
// counter built outside the run.
class TimingCounter : public SupportCounter {
 public:
  TimingCounter(SupportCounter& inner, Tracer& tracer, int parent,
                std::string id)
      : inner_(inner), tracer_(tracer), parent_(parent), id_(std::move(id)) {}

  std::vector<uint64_t> CountSupports(
      const std::vector<Itemset>& candidates) override {
    const int span = tracer_.Open("counting.CountSupports", parent_, id_);
    std::vector<uint64_t> counts = inner_.CountSupports(candidates);
    count_ms += tracer_.Close(span);
    ++calls;
    this->candidates += candidates.size();
    if (inner_.backend_used() == CounterBackend::kVertical) ++vertical_calls;
    return counts;
  }
  CounterBackend backend() const override { return inner_.backend(); }
  CounterBackend backend_used() const override {
    return inner_.backend_used();
  }
  void set_metrics(CountingMetrics* metrics) override {
    inner_.set_metrics(metrics);
  }
  void set_thread_pool(ThreadPool* pool) override {
    inner_.set_thread_pool(pool);
  }
  void set_scan_budget(ScanBudget* budget) override {
    inner_.set_scan_budget(budget);
  }

  double count_ms = 0;
  uint64_t calls = 0;
  uint64_t candidates = 0;
  uint64_t vertical_calls = 0;

 private:
  SupportCounter& inner_;
  Tracer& tracer_;
  int parent_;
  std::string id_;
};

// One in-process replica of a mine_cli job, split at the layer boundaries.
struct JobTrace {
  double job_ms = 0;
  double read_ms = 0;
  double bitsets_ms = 0;
  double build_ms = 0;
  double mine_ms = 0;
  double count_ms = 0;
  uint64_t calls = 0;
  uint64_t candidates = 0;
  uint64_t vertical_calls = 0;
  double pass_counting_ms = 0;
  double gen_ms = 0;
  double mfcs_ms = 0;
  double phases_ms = 0;
  uint64_t bottom_up_candidates = 0;
  uint64_t bottom_up_frequent = 0;
  uint64_t mfcs_candidates = 0;
  uint64_t mfs_found = 0;
  uint64_t mfcs_off_pass = 0;
};

int Trace(const std::map<std::string, std::string>& flags) {
  const std::vector<DbSpec> dbs = ParseDbs(Flag(flags, "dbs"));
  const std::string shard_binary = Flag(flags, "shard-binary");
  const std::string work_dir = Flag(flags, "work-dir");
  Reference reference(dbs, flags.count("drop") != 0);
  Tracer tracer;

  size_t attempted = 0;
  size_t failed = 0;
  std::string first_failure;
  const auto verify = [&](const std::vector<FrequentItemset>& got, size_t db,
                          double support, const std::string& what) {
    ++attempted;
    if (got != reference.Mfs(db, MinCount(support))) {
      ++failed;
      if (first_failure.empty()) first_failure = what + " differs";
    }
  };

  JobTrace total;
  double apriori_ms = 0;
  double read_bytes = 0;
  double orch_run = 0, orch_shard = 0, orch_supervise = 0, orch_merge = 0,
         orch_validate = 0, worker_mine = 0;
  uint64_t union_candidates = 0, worker_attempts = 0, shards = 0;

  for (size_t d = 0; d < dbs.size(); ++d) {
    const DbSpec& spec = dbs[d];
    read_bytes += static_cast<double>(FileBytes(spec.basket));
    std::vector<JobTrace> runs;
    std::unique_ptr<TransactionDatabase> db;
    for (size_t r = 0; r < kTraceJobs; ++r) {
      db.reset();  // the previous replica's teardown stays out of the spans
      const std::string id = spec.name + "-job-" + std::to_string(r);
      JobTrace t;
      const int job = tracer.Open("job", -1, id);
      t.read_ms = tracer.Time("data.ReadDatabaseFromFile", job, id, [&] {
        StatusOr<TransactionDatabase> read = ReadDatabaseFromFile(spec.basket);
        if (!read.ok()) Die(read.status().ToString());
        db = std::make_unique<TransactionDatabase>(std::move(*read));
      });
      t.bitsets_ms = tracer.Time("data.EnsureBitsets", job, id,
                                 [&] { db->EnsureBitsets(); });
      std::unique_ptr<SupportCounter> counter;
      t.build_ms = tracer.Time("counting.CreateCounter", job, id, [&] {
        counter = CreateCounter(CounterBackend::kAuto, *db);
      });
      const int mine = tracer.Open("core.MineMaximal", job, id);
      TimingCounter timing(*counter, tracer, mine, id);
      MiningOptions options;
      options.min_support = spec.range.lo;
      options.backend = CounterBackend::kAuto;
      options.resident_counter = &timing;
      const MaximalSetResult result =
          MineMaximal(*db, options, Algorithm::kPincerAdaptive);
      t.mine_ms = tracer.Close(mine);
      t.job_ms = tracer.Close(job);
      verify(result.mfs, d, spec.range.lo, "traced mine of " + spec.name);
      t.count_ms = timing.count_ms;
      t.calls = timing.calls;
      t.candidates = timing.candidates;
      t.vertical_calls = timing.vertical_calls;
      for (const PassStats& pass : result.stats.per_pass) {
        t.pass_counting_ms += pass.counting_ms;
        t.gen_ms += pass.candidate_gen_ms;
        t.mfcs_ms += pass.mfcs_update_ms + pass.mfcs_index_ms;
        t.bottom_up_candidates += pass.num_candidates;
        t.bottom_up_frequent += pass.num_frequent;
        t.mfs_found += pass.num_mfs_found;
      }
      t.phases_ms = t.gen_ms + t.pass_counting_ms + t.mfcs_ms;
      t.mfcs_candidates = result.stats.mfcs_candidates;
      t.mfcs_off_pass = result.stats.mfcs_disabled_at_pass;
      runs.push_back(t);
    }
    // The replica with the median job span, whole, so its parts still sum.
    std::sort(runs.begin(), runs.end(),
              [](const JobTrace& a, const JobTrace& b) {
                return a.job_ms < b.job_ms;
              });
    const JobTrace& t = runs[runs.size() / 2];
    total.job_ms += t.job_ms;
    total.read_ms += t.read_ms;
    total.bitsets_ms += t.bitsets_ms;
    total.build_ms += t.build_ms;
    total.mine_ms += t.mine_ms;
    total.count_ms += t.count_ms;
    total.calls += t.calls;
    total.candidates += t.candidates;
    total.vertical_calls += t.vertical_calls;
    total.pass_counting_ms += t.pass_counting_ms;
    total.gen_ms += t.gen_ms;
    total.mfcs_ms += t.mfcs_ms;
    total.phases_ms += t.phases_ms;
    total.bottom_up_candidates += t.bottom_up_candidates;
    total.bottom_up_frequent += t.bottom_up_frequent;
    total.mfcs_candidates += t.mfcs_candidates;
    total.mfs_found += t.mfs_found;
    total.mfcs_off_pass = std::max(total.mfcs_off_pass, t.mfcs_off_pass);

    {  // apriori: the bottom-up miner at the same threshold
      const std::string id = spec.name + "-apriori";
      std::unique_ptr<SupportCounter> counter =
          CreateCounter(CounterBackend::kAuto, *db);
      int mine = -1;
      MaximalSetResult result;
      apriori_ms += tracer.Time(
          "apriori.MineMaximal", -1, id,
          [&] {
            TimingCounter timing(*counter, tracer, mine, id);
            MiningOptions options;
            options.min_support = spec.range.lo;
            options.backend = CounterBackend::kAuto;
            options.resident_counter = &timing;
            result = MineMaximal(*db, options, Algorithm::kApriori);
          },
          &mine);
      verify(result.mfs, d, spec.range.lo,
             "traced apriori mine of " + spec.name);
    }

    {  // orchestrate: the sharded pipeline over the same file
      const std::string id = spec.name + "-orchestrate";
      OrchestratorOptions options;
      options.num_shards = 4;
      options.slots = 2;
      options.min_support = spec.range.lo;
      options.work_dir = work_dir + "/" + spec.name;
      options.worker_binary = shard_binary;
      StatusOr<OrchestratorResult> result =
          Status::Internal("orchestrator not run");
      orch_run += tracer.Time("orchestrate.OrchestrateMining", -1, id, [&] {
        result = OrchestrateMining(spec.basket, options);
      });
      if (!result.ok()) Die(result.status().ToString());
      verify(result->mfs, d, spec.range.lo,
             "traced orchestration of " + spec.name);
      const OrchestratorStats& stats = result->stats;
      orch_shard += stats.shard_ms;
      orch_supervise += stats.supervise_ms;
      orch_merge += stats.merge_ms;
      orch_validate += stats.validate_ms;
      union_candidates += stats.candidates;
      for (size_t i = 0; i < stats.workers.tasks.size(); ++i) {
        worker_attempts += stats.workers.tasks[i].attempts;
        StatusOr<ShardResult> shard = ReadShardResultFromFile(
            options.work_dir + "/" + ShardFileName(i) + ".result.json");
        if (!shard.ok()) Die(shard.status().ToString());
        worker_mine += shard->mine_ms;
        ++shards;
      }
    }
  }

  // serve: the daemon's protocol core, driven in-process with the mix.
  ServerOptions server_options;
  for (const DbSpec& spec : dbs) {
    server_options.databases.push_back({spec.name, spec.basket});
  }
  MiningService service;
  const double init_ms = tracer.Time("serve.Init", -1, "serve", [&] {
    if (Status s = service.Init(server_options); !s.ok()) Die(s.ToString());
  });
  const Mix mix = BuildMix(dbs);
  // HandleLine times by outcome; reported like the socket client's
  // latencies: the median over every call.
  std::map<std::string, std::vector<double>> handle_ms;
  size_t query_number = 0;
  const auto handle = [&](const Query& query) {
    const std::string id = "query-" + std::to_string(query_number++);
    std::string response;
    const std::string line = query.Line(dbs);
    const double ms = tracer.Time("serve.HandleLine", -1, id, [&] {
      response = service.HandleLine(line);
    });
    handle_ms[std::string(Outcome(response))].push_back(ms);
    uint64_t passes = 0;
    uint64_t candidates = 0;
    ++attempted;
    const std::string reason =
        CheckResponse(response, reference.Mfs(query.db, query.Count()),
                      query.Count(), &passes, &candidates);
    if (!reason.empty()) {
      ++failed;
      if (first_failure.empty()) first_failure = "served " + reason;
    }
  };
  for (const Query& query : mix.hot) handle(query);
  for (size_t i = 0, hot = 0, filter = 0; i < kTraceReplay; ++i) {
    handle(i % 3 == 2 ? mix.filters[filter++ % mix.filters.size()]
                      : mix.hot[hot++ % mix.hot.size()]);
  }
  for (const Query& query : mix.misses) handle(query);

  tracer.Write(Flag(flags, "spans"));
  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("attempted", attempted);
  json.KeyValue("failed", failed);
  json.KeyValue("first_failure", first_failure);
  json.KeyValue("jobs", kTraceJobs);
  json.KeyValue("job_ms", total.job_ms);
  json.KeyValue("read_ms", total.read_ms);
  json.KeyValue("read_bytes", read_bytes);
  json.KeyValue("bitsets_ms", total.bitsets_ms);
  json.KeyValue("build_ms", total.build_ms);
  json.KeyValue("mine_ms", total.mine_ms);
  json.KeyValue("count_ms", total.count_ms);
  json.KeyValue("calls", total.calls);
  json.KeyValue("candidates", total.candidates);
  json.KeyValue("vertical_calls", total.vertical_calls);
  json.KeyValue("pass_counting_ms", total.pass_counting_ms);
  json.KeyValue("gen_ms", total.gen_ms);
  json.KeyValue("mfcs_ms", total.mfcs_ms);
  json.KeyValue("phases_ms", total.phases_ms);
  json.KeyValue("bottom_up_candidates", total.bottom_up_candidates);
  json.KeyValue("bottom_up_frequent", total.bottom_up_frequent);
  json.KeyValue("mfcs_candidates", total.mfcs_candidates);
  json.KeyValue("mfs_found", total.mfs_found);
  json.KeyValue("mfcs_off_pass", total.mfcs_off_pass);
  json.KeyValue("apriori_ms", apriori_ms);
  json.KeyValue("orch_run_ms", orch_run);
  json.KeyValue("orch_shard_ms", orch_shard);
  json.KeyValue("orch_supervise_ms", orch_supervise);
  json.KeyValue("orch_merge_ms", orch_merge);
  json.KeyValue("orch_validate_ms", orch_validate);
  json.KeyValue("union_candidates", union_candidates);
  json.KeyValue("worker_mine_ms",
                worker_mine /
                    static_cast<double>(std::max<uint64_t>(shards, 1)));
  json.KeyValue("worker_attempts", worker_attempts);
  json.KeyValue("init_ms", init_ms);
  json.KeyValue("hit_handle_ms", Median(handle_ms["hit"]));
  json.KeyValue("filter_handle_ms", Median(handle_ms["filter"]));
  json.KeyValue("miss_handle_ms", Median(handle_ms["miss"]));
  json.EndObject();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace pincer

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_helper gen|client|trace [--flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = pincer::ParseFlags(argc, argv);
  if (command == "gen") return pincer::Gen(flags);
  if (command == "client") return pincer::Client(flags);
  if (command == "trace") return pincer::Trace(flags);
  std::cerr << "unknown subcommand: " << command << "\n";
  return 2;
}
