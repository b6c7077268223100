// Google-benchmark microbenchmarks of the itemset algebra and the MFCS-gen
// update — the per-pass CPU building blocks of the Pincer loop — and of
// writing an MFS as JSON, what the daemon does once per answer.

#include <benchmark/benchmark.h>

#include <sstream>

#include "apriori/apriori_gen.h"
#include "core/mfcs.h"
#include "itemset/itemset_ops.h"
#include "mining/frequent_itemset.h"
#include "util/json_writer.h"
#include "util/prng.h"

namespace pincer {
namespace {

std::vector<Itemset> RandomKItemsets(size_t count, size_t k,
                                     size_t num_items, uint64_t seed) {
  Prng prng(seed);
  std::vector<Itemset> itemsets;
  itemsets.reserve(count);
  while (itemsets.size() < count) {
    std::vector<ItemId> items;
    while (items.size() < k) {
      const auto item = static_cast<ItemId>(prng.UniformUint64(num_items));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    itemsets.push_back(Itemset(std::move(items)));
  }
  SortLexicographically(itemsets);
  itemsets.erase(std::unique(itemsets.begin(), itemsets.end()),
                 itemsets.end());
  return itemsets;
}

void BM_SubsetTest(benchmark::State& state) {
  const Itemset small = RandomKItemsets(1, 5, 1000, 1)[0];
  const Itemset big = RandomKItemsets(1, 200, 1000, 2)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.IsSubsetOf(big));
  }
}
BENCHMARK(BM_SubsetTest);

void BM_AprioriJoin(benchmark::State& state) {
  const std::vector<Itemset> lk =
      RandomKItemsets(static_cast<size_t>(state.range(0)), 3, 100, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AprioriJoin(lk));
  }
  state.SetLabel(std::to_string(lk.size()) + " 3-itemsets");
}
BENCHMARK(BM_AprioriJoin)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_AprioriGenFull(benchmark::State& state) {
  const std::vector<Itemset> lk =
      RandomKItemsets(static_cast<size_t>(state.range(0)), 3, 100, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AprioriGen(lk));
  }
}
BENCHMARK(BM_AprioriGenFull)->Arg(100)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

void BM_MfcsGenSingletonBatch(benchmark::State& state) {
  // The paper's pass-1 scenario: a large universe, a batch of infrequent
  // singletons, one element descending many levels.
  const size_t num_items = static_cast<size_t>(state.range(0));
  std::vector<Itemset> infrequent;
  for (ItemId item = 0; item < num_items; item += 2) {
    infrequent.push_back(Itemset{item});
  }
  for (auto _ : state) {
    Mfcs mfcs(num_items);
    mfcs.Update(infrequent, {});
    benchmark::DoNotOptimize(mfcs);
  }
}
BENCHMARK(BM_MfcsGenSingletonBatch)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_MfcsGenPairBatch(benchmark::State& state) {
  // Pass-2 scenario: infrequent pairs fragment the MFCS.
  const size_t num_items = 40;
  const std::vector<Itemset> infrequent =
      RandomKItemsets(static_cast<size_t>(state.range(0)), 2, num_items, 5);
  for (auto _ : state) {
    Mfcs mfcs(num_items);
    mfcs.Update(infrequent, {});
    benchmark::DoNotOptimize(mfcs);
  }
  state.SetLabel(std::to_string(infrequent.size()) + " infrequent pairs");
}
BENCHMARK(BM_MfcsGenPairBatch)->Arg(8)->Arg(32)->Unit(
    benchmark::kMillisecond);

void BM_JsonWriterMfs(benchmark::State& state) {
  // A served answer's shape: 3,000 maximal itemsets of 1-11 items over
  // 1,000 items, written as a response's compact mfs array.
  Prng prng(6);
  std::vector<FrequentItemset> mfs;
  for (size_t k = 1; mfs.size() < 3000; k = k % 11 + 1) {
    mfs.push_back({RandomKItemsets(1, k, 1000, prng.NextUint64())[0],
                   100 + prng.UniformUint64(10000)});
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    JsonWriter json(os, 0);
    json.BeginArray();
    for (const FrequentItemset& fi : mfs) {
      json.BeginObject();
      json.KeyValue("support", fi.support);
      json.Key("items").BeginArray();
      for (const ItemId item : fi.itemset) {
        json.Value(static_cast<uint64_t>(item));
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    bytes = static_cast<size_t>(os.tellp());
    benchmark::DoNotOptimize(bytes);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.SetLabel(std::to_string(mfs.size()) + " itemsets, " +
                 std::to_string(bytes / 1024) + " KB");
}
BENCHMARK(BM_JsonWriterMfs)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pincer
