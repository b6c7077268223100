// Google-benchmark microbenchmarks of the counting backends: per-pass cost
// of counting a fixed candidate batch over a Quest database. These quantify
// the backend choice that the figure harnesses treat as a constant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "apriori/apriori.h"
#include "counting/array_counters.h"
#include "counting/counter_factory.h"
#include "counting/streaming_counter.h"
#include "data/database_io.h"
#include "data/vertical_index.h"
#include "gen/quest_gen.h"
#include "itemset/popcount_kernels.h"
#include "mining/miner.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace pincer {
namespace {

const TransactionDatabase& BenchDb() {
  static const TransactionDatabase* db = [] {
    QuestParams params;
    params.num_transactions = 5000;
    params.avg_transaction_size = 10;
    params.num_items = 500;
    params.num_patterns = 100;
    params.avg_pattern_size = 4;
    params.seed = 99;
    auto result = GenerateQuestDatabase(params);
    // lint: allow-new(leaked bench fixture; alive for the whole run)
    return new TransactionDatabase(std::move(result).value());
  }();
  return *db;
}

// Frequent 3-candidates of the bench database — a realistic pass-3 batch.
const std::vector<Itemset>& BenchCandidates() {
  static const std::vector<Itemset>* candidates = [] {
    MiningOptions options;
    options.min_support = 0.01;
    const FrequentSetResult frequent = AprioriMine(BenchDb(), options);
    // lint: allow-new(leaked bench fixture; alive for the whole run)
    auto* out = new std::vector<Itemset>();
    for (const FrequentItemset& fi : frequent.frequent) {
      if (fi.itemset.size() == 2) out->push_back(fi.itemset);
    }
    return out;
  }();
  return *candidates;
}

void BM_CountSupports(benchmark::State& state) {
  const auto backend = static_cast<CounterBackend>(state.range(0));
  auto counter = CreateCounter(backend, BenchDb());
  const std::vector<Itemset>& candidates = BenchCandidates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter->CountSupports(candidates));
  }
  state.SetLabel(std::string(CounterBackendName(backend)) + " x" +
                 std::to_string(candidates.size()) + " candidates");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(BenchDb().size()));
}
BENCHMARK(BM_CountSupports)
    ->Arg(static_cast<int>(CounterBackend::kLinear))
    ->Arg(static_cast<int>(CounterBackend::kHashTree))
    ->Arg(static_cast<int>(CounterBackend::kTrie))
    ->Arg(static_cast<int>(CounterBackend::kVertical))
    ->Unit(benchmark::kMillisecond);

// Pooled scans: the same pass-3 batch on the trie backend with a shared
// ThreadPool of N threads (N = 1 is the inline serial path — its delta vs
// BM_CountSupports/kTrie is the pool-plumbing overhead, which should be
// zero). Counts are bit-identical across N.
void BM_CountSupportsPooled(benchmark::State& state) {
  const auto num_threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(num_threads);
  auto counter = CreateCounter(CounterBackend::kTrie, BenchDb(), &pool);
  const std::vector<Itemset>& candidates = BenchCandidates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter->CountSupports(candidates));
  }
  state.SetLabel("trie, " + std::to_string(pool.num_threads()) +
                 " thread(s), x" + std::to_string(candidates.size()) +
                 " candidates");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(BenchDb().size()));
}
BENCHMARK(BM_CountSupportsPooled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Disk-streaming pass: the same pass-3 batch counted by re-reading a basket
// file per call. The delta vs the in-memory backends is the literal I/O cost
// of a database pass — the quantity the paper's pass-count argument is
// about. The file is written once, up front.
void BM_CountSupportsStreaming(benchmark::State& state) {
  static const std::string* path = [] {
    // lint: allow-new(leaked bench fixture; alive for the whole run)
    auto* p = new std::string(
        (std::filesystem::temp_directory_path() / "pincer_bench_db.basket")
            .string());
    const Status status = WriteDatabaseToFile(BenchDb(), *p);
    if (!status.ok()) {
      std::fprintf(stderr, "writing bench database failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    return p;
  }();
  StreamingCounter counter(*path);
  const std::vector<Itemset>& candidates = BenchCandidates();
  for (auto _ : state) {
    auto counts = counter.CountSupports(candidates);
    if (!counts.ok()) {
      state.SkipWithError(counts.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*counts);
  }
  state.SetLabel("streaming x" + std::to_string(candidates.size()) +
                 " candidates");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(BenchDb().size()));
}
BENCHMARK(BM_CountSupportsStreaming)->Unit(benchmark::kMillisecond);

void BM_PassOneArray(benchmark::State& state) {
  const TransactionDatabase& db = BenchDb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountSingletons(db));
  }
}
BENCHMARK(BM_PassOneArray)->Unit(benchmark::kMillisecond);

void BM_PassTwoTriangularMatrix(benchmark::State& state) {
  const TransactionDatabase& db = BenchDb();
  std::vector<ItemId> items;
  for (ItemId i = 0; i < db.num_items(); ++i) items.push_back(i);
  for (auto _ : state) {
    PairCountMatrix matrix(items);
    matrix.CountDatabase(db);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_PassTwoTriangularMatrix)->Unit(benchmark::kMillisecond);

// The same triangle filled from the vertical index, one tidset intersection
// per pair: what pass 2 runs where PairFillPrefersIndex picks it. The label
// says whether it would for this database.
void BM_PassTwoIndexFill(benchmark::State& state) {
  const TransactionDatabase& db = BenchDb();
  const VerticalIndex index(db);
  const std::vector<uint64_t> supports = CountSingletons(db);
  std::vector<ItemId> items;
  for (ItemId i = 0; i < db.num_items(); ++i) items.push_back(i);
  for (auto _ : state) {
    PairCountMatrix matrix(items);
    matrix.CountIndex(index);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetLabel(PairFillPrefersIndex(db.size(), supports)
                     ? "picked over the scan"
                     : "the scan is picked");
}
BENCHMARK(BM_PassTwoIndexFill)->Unit(benchmark::kMillisecond);

// The vertical kernel alone: one intersect-and-popcount of two 100K-bit
// tidsets (the row count of the Figure-3 databases), once per word-loop
// variant. A variant this CPU cannot run is reported as skipped. Items are
// 64-bit words.
void BM_IntersectionCount(benchmark::State& state, std::string_view variant) {
  const std::vector<PopcountKernel> kernels = SupportedPopcountKernels();
  const auto kernel = std::find_if(
      kernels.begin(), kernels.end(),
      [variant](const PopcountKernel& k) { return k.name == variant; });
  if (kernel == kernels.end()) {
    state.SkipWithError("variant not supported on this CPU");
    return;
  }
  constexpr size_t kBits = 100'000;
  constexpr size_t kWords = (kBits + 63) / 64;
  Prng rng(7);
  std::vector<uint64_t> a(kWords), b(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    a[i] = rng.NextUint64();
    b[i] = rng.NextUint64();
  }
  // Bits past kBits stay zero, as in a DynamicBitset.
  a.back() &= (uint64_t{1} << (kBits % 64)) - 1;
  b.back() &= (uint64_t{1} << (kBits % 64)) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel->intersection_count(a.data(), b.data(), kWords));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWords));
}
BENCHMARK_CAPTURE(BM_IntersectionCount, portable, "portable")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IntersectionCount, popcnt, "popcnt")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pincer
