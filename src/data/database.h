// TransactionDatabase: the in-memory database D of the paper — a bag of
// transactions over a declared item universe, with per-transaction bitsets
// for O(1) item membership during support counting.

#ifndef PINCER_DATA_DATABASE_H_
#define PINCER_DATA_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itemset/dynamic_bitset.h"
#include "itemset/item.h"
#include "itemset/itemset.h"
#include "data/transaction.h"
#include "util/status.h"

namespace pincer {

/// The most rows a database may hold: pass 2 keeps each pair count in a
/// 32-bit cell (counting/array_counters.h).
inline constexpr uint64_t kMaxDatabaseRows = UINT32_MAX;

/// OK for at most kMaxDatabaseRows rows; InvalidArgument naming both
/// numbers for more. A database is refused rather than counted wrapped.
Status CheckDatabaseRows(uint64_t rows);

/// An in-memory transaction database. Transactions are stored horizontally
/// (as sorted item vectors); a parallel array of bitsets is built lazily on
/// first use to accelerate "is itemset X contained in transaction T"
/// queries, which dominate support counting.
class TransactionDatabase {
 public:
  /// Creates an empty database over `num_items` item ids [0, num_items).
  explicit TransactionDatabase(size_t num_items = 0);

  TransactionDatabase(const TransactionDatabase&) = default;
  TransactionDatabase& operator=(const TransactionDatabase&) = default;
  TransactionDatabase(TransactionDatabase&&) = default;
  TransactionDatabase& operator=(TransactionDatabase&&) = default;

  /// Number of item ids in the universe (the paper's n / N).
  size_t num_items() const { return num_items_; }

  /// Number of transactions (the paper's |D|).
  size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  /// Appends one transaction. Items are sorted and deduplicated. Ids outside
  /// [0, num_items()) are dropped (never stored — they would otherwise index
  /// past every num_items-sized array downstream) and tallied in
  /// num_dropped_items(); a transaction whose ids are all out of range is
  /// kept as an empty transaction, consistent with empty input. Invalidates
  /// the bitset cache.
  void AddTransaction(Transaction transaction);

  /// Total out-of-range item ids dropped by AddTransaction since
  /// construction. Nonzero means the caller fed ids outside the declared
  /// universe; the stored data is still well-formed.
  uint64_t num_dropped_items() const { return num_dropped_items_; }

  /// The i-th transaction (sorted item ids).
  const Transaction& transaction(size_t i) const { return transactions_[i]; }

  const std::vector<Transaction>& transactions() const {
    return transactions_;
  }

  /// Bitset view of the i-th transaction. Builds the cache on first call
  /// (not thread-safe with concurrent mutation; safe for concurrent reads
  /// once built — call EnsureBitsets() up front in multithreaded use).
  const DynamicBitset& transaction_bits(size_t i) const;

  /// Builds the bitset cache now.
  void EnsureBitsets() const;

  /// True if transaction `i` contains every item of `itemset` — "T supports
  /// X" (§2.1). Uses the bitset cache.
  bool Supports(size_t i, const Itemset& itemset) const;

  /// Absolute support count of `itemset`: number of supporting transactions.
  /// One full scan; the mining loops use batch counters from counting/
  /// instead.
  uint64_t CountSupport(const Itemset& itemset) const;

  /// Support as a fraction of |D| (the paper's support(X)). Returns 0 for an
  /// empty database.
  double Support(const Itemset& itemset) const;

  /// The minimum support count over this database's rows:
  /// MinSupportCount(fraction, size()).
  uint64_t MinSupportCount(double fraction) const;

  /// Total number of item occurrences across transactions.
  uint64_t TotalItemOccurrences() const;

 private:
  size_t num_items_;
  uint64_t num_dropped_items_ = 0;
  std::vector<Transaction> transactions_;
  // Lazily built; mutable because it is a cache over immutable data.
  mutable std::vector<DynamicBitset> bitsets_;
};

/// Converts a fractional minimum support (e.g. 0.01 for 1%) over
/// `transactions` rows to the smallest absolute count an itemset must reach
/// to be frequent: ceil(fraction * transactions), clamped below by 1 so an
/// empty itemset list never counts everything as frequent at support 0. The
/// one rule for every path, in-memory and streamed.
uint64_t MinSupportCount(double fraction, uint64_t transactions);

}  // namespace pincer

#endif  // PINCER_DATA_DATABASE_H_
