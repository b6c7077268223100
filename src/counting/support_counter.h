// SupportCounter: the interface all batch support-counting backends
// implement. One CountSupports() call corresponds to one pass of reading the
// database (the unit the paper's pass counts measure).

#ifndef PINCER_COUNTING_SUPPORT_COUNTER_H_
#define PINCER_COUNTING_SUPPORT_COUNTER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "counting/scan_budget.h"
#include "data/database.h"
#include "itemset/itemset.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pincer {

class VerticalIndex;

/// Counting backend selector. All backends compute identical counts; they
/// differ only in data structure (and therefore speed). kLinear mirrors the
/// paper's own link-list implementation (§4.1.1); kHashTree is the classic
/// Apriori structure; kTrie is a prefix-tree variant; kVertical intersects
/// per-item transaction bitmaps. Every backend scans on the worker pool
/// attached with set_thread_pool (§5's parallel-mining direction).
/// kAuto is not an engine of its own: CreateCounter builds kVertical for a
/// database whose index fits a fixed memory cap and kTrie otherwise (see
/// counting/counter_factory.h), once per database.
/// Enumerator values are stable: a retired backend's value is not reused
/// (4 was the trie-plus-pool "parallel" backend).
enum class CounterBackend {
  kLinear = 0,
  kHashTree = 1,
  kTrie = 2,
  kVertical = 3,
  kAuto = 5,
};

std::string_view CounterBackendName(CounterBackend backend);

/// Counts absolute supports of candidate itemsets over one database. A
/// counter instance is bound to a database at construction (see
/// counter_factory.h) and may cache derived structures across calls.
class SupportCounter {
 public:
  virtual ~SupportCounter() = default;

  /// Counts the support of every candidate in one scan. Candidates may have
  /// mixed sizes (the Pincer loop counts C_k and MFCS together). Returns
  /// counts aligned index-for-index with `candidates`.
  virtual std::vector<uint64_t> CountSupports(
      const std::vector<Itemset>& candidates) = 0;

  /// Backend identifier for logs and stats.
  virtual CounterBackend backend() const = 0;

  /// Backend that actually performed the most recent CountSupports call,
  /// recorded by the miners as PassStats::backend_used. Identical to
  /// backend() for every engine; a wrapping counter reports the engine it
  /// wraps.
  virtual CounterBackend backend_used() const { return backend(); }

  /// The per-item tidsets this counter holds, or null (the default) for a
  /// counter that keeps none. Pass 2 may fill its pair matrix from them
  /// (MiningRun::CountPairs); the vertical backend returns its index.
  virtual const VerticalIndex* vertical_index() const { return nullptr; }

  /// Attaches an observability sink: subsequent CountSupports calls
  /// accumulate aggregate work counters into `*metrics`, which must outlive
  /// the counter's use. Null (the default) disables collection; backends
  /// only touch the sink behind one per-call null test, so the disabled
  /// hook adds no measurable counting overhead (see EXPERIMENTS.md).
  /// Virtual so that a wrapping counter can forward the sink to the counter
  /// it wraps.
  virtual void set_metrics(CountingMetrics* metrics) { metrics_ = metrics; }

  /// Attaches a shared worker pool (must outlive the counter's use): the
  /// transaction-scanning backends split each scan into per-worker chunks
  /// with privately accumulated counts, merged in worker order, and the
  /// vertical backend splits its candidate batch into contiguous per-worker
  /// ranges whose counts land in disjoint slots of the result vector — in
  /// both cases counts stay bit-identical to the serial run. Null (the
  /// default) or a single-thread pool keeps the work serial.
  virtual void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Attaches a cooperative scan deadline (must outlive the counter's use):
  /// the transaction-scanning backends poll it every kScanAbortCheckRows
  /// rows, and the vertical backend every kVerticalBudgetCheckCandidates
  /// candidates; once it expires they stop mid-count, leaving the returned
  /// counts partial — the caller must test budget->exceeded() after every
  /// CountSupports call and discard the counts when set. Null (the default)
  /// disables polling.
  virtual void set_scan_budget(ScanBudget* budget) { budget_ = budget; }

 protected:
  CountingMetrics* metrics_ = nullptr;
  ThreadPool* pool_ = nullptr;
  ScanBudget* budget_ = nullptr;
};

}  // namespace pincer

#endif  // PINCER_COUNTING_SUPPORT_COUNTER_H_
