// Factory for counting backends.

#ifndef PINCER_COUNTING_COUNTER_FACTORY_H_
#define PINCER_COUNTING_COUNTER_FACTORY_H_

#include <memory>

#include "counting/support_counter.h"
#include "data/database.h"
#include "util/thread_pool.h"

namespace pincer {

/// Creates a counter of the requested backend bound to `db`, which must
/// outlive it. With a `pool` (which must outlive the counter too), every
/// transaction-scanning backend splits its scans across the pool's
/// workers; without one they run serially. This is how
/// MiningOptions::num_threads reaches the backends: the run context
/// (mining/mining_run.h) owns one pool per run and hands it to the counter
/// it creates.
std::unique_ptr<SupportCounter> CreateCounter(CounterBackend backend,
                                              const TransactionDatabase& db,
                                              ThreadPool* pool = nullptr);

/// All available backends, for parameterized tests.
std::vector<CounterBackend> AllCounterBackends();

}  // namespace pincer

#endif  // PINCER_COUNTING_COUNTER_FACTORY_H_
