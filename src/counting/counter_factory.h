// Factory for counting backends.

#ifndef PINCER_COUNTING_COUNTER_FACTORY_H_
#define PINCER_COUNTING_COUNTER_FACTORY_H_

#include <cstdint>
#include <memory>

#include "counting/support_counter.h"
#include "data/database.h"
#include "util/thread_pool.h"

namespace pincer {

/// Bytes the vertical index of one database may take for kAuto to count
/// through it: 1 GiB, about 85x the 12.5 MB index of a 1,000-item,
/// 100K-row database. A constant, never derived from the machine, so a
/// database gets the same engine on every machine, thread count and resume.
inline constexpr uint64_t kVerticalIndexByteCap = uint64_t{1} << 30;

/// The engine kAuto builds for a database of `num_items` items and
/// `num_rows` rows: kVertical when the index's num_items x ceil(num_rows/64)
/// 64-bit words fit kVerticalIndexByteCap, kTrie otherwise. Reads the shape
/// only, never the rows. The vertical index wins every measured in-memory
/// pass (docs/benchmarking.md, "Backend selection"); memory alone decides.
CounterBackend AutoBackendFor(size_t num_items, size_t num_rows);

/// Creates a counter of the requested backend bound to `db`, which must
/// outlive it. kAuto builds the one engine AutoBackendFor picks for `db`,
/// so the counter's backend() names that engine, never kAuto. With a
/// `pool` (which must outlive the counter too), every transaction-scanning
/// backend splits its scans across the pool's workers; without one they
/// run serially. This is how MiningOptions::num_threads reaches the
/// backends: the run context (mining/mining_run.h) owns one pool per run
/// and hands it to the counter it creates.
std::unique_ptr<SupportCounter> CreateCounter(CounterBackend backend,
                                              const TransactionDatabase& db,
                                              ThreadPool* pool = nullptr);

/// All available backends, for parameterized tests.
std::vector<CounterBackend> AllCounterBackends();

}  // namespace pincer

#endif  // PINCER_COUNTING_COUNTER_FACTORY_H_
