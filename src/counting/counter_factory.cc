#include "counting/counter_factory.h"

#include "counting/hash_tree.h"
#include "counting/linear_counter.h"
#include "counting/trie_counter.h"
#include "counting/vertical_counter.h"

namespace pincer {

std::string_view CounterBackendName(CounterBackend backend) {
  switch (backend) {
    case CounterBackend::kLinear:
      return "linear";
    case CounterBackend::kHashTree:
      return "hash_tree";
    case CounterBackend::kTrie:
      return "trie";
    case CounterBackend::kVertical:
      return "vertical";
    case CounterBackend::kAuto:
      return "auto";
  }
  return "unknown";
}

CounterBackend AutoBackendFor(size_t num_items, size_t num_rows) {
  const uint64_t words_per_item = num_rows / 64 + (num_rows % 64 != 0);
  const uint64_t cap_words = kVerticalIndexByteCap / sizeof(uint64_t);
  // Divides instead of multiplying, so no shape overflows.
  const bool fits = num_items == 0 || words_per_item <= cap_words / num_items;
  return fits ? CounterBackend::kVertical : CounterBackend::kTrie;
}

std::unique_ptr<SupportCounter> CreateCounter(CounterBackend backend,
                                              const TransactionDatabase& db,
                                              ThreadPool* pool) {
  std::unique_ptr<SupportCounter> counter;
  switch (backend) {
    case CounterBackend::kLinear:
      counter = std::make_unique<LinearCounter>(db);
      break;
    case CounterBackend::kHashTree:
      counter = std::make_unique<HashTreeCounter>(db);
      break;
    case CounterBackend::kTrie:
      counter = std::make_unique<TrieCounter>(db);
      break;
    case CounterBackend::kVertical:
      counter = std::make_unique<VerticalCounter>(db);
      break;
    case CounterBackend::kAuto:
      return CreateCounter(AutoBackendFor(db.num_items(), db.size()), db, pool);
  }
  if (counter != nullptr) counter->set_thread_pool(pool);
  return counter;
}

std::vector<CounterBackend> AllCounterBackends() {
  return {CounterBackend::kLinear, CounterBackend::kHashTree,
          CounterBackend::kTrie, CounterBackend::kVertical,
          CounterBackend::kAuto};
}

}  // namespace pincer
