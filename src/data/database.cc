#include "data/database.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pincer {

Status CheckDatabaseRows(uint64_t rows) {
  if (rows <= kMaxDatabaseRows) return Status::OK();
  return Status::InvalidArgument(
      "database has " + std::to_string(rows) + " rows; at most " +
      std::to_string(kMaxDatabaseRows) + " are supported");
}

TransactionDatabase::TransactionDatabase(size_t num_items)
    : num_items_(num_items) {}

void TransactionDatabase::AddTransaction(Transaction transaction) {
  std::sort(transaction.begin(), transaction.end());
  transaction.erase(std::unique(transaction.begin(), transaction.end()),
                    transaction.end());
  // Ids outside the declared universe are dropped, not stored: every
  // downstream consumer (bitset construction, the triangular pair matrix,
  // the vertical index) indexes arrays of size num_items_, so an
  // out-of-range id that survived here would be an out-of-bounds write in
  // release builds. The transaction is sorted, so the offenders form a
  // suffix.
  const auto first_out_of_range = std::partition_point(
      transaction.begin(), transaction.end(),
      [this](ItemId id) { return static_cast<size_t>(id) < num_items_; });
  if (first_out_of_range != transaction.end()) {
    num_dropped_items_ +=
        static_cast<uint64_t>(transaction.end() - first_out_of_range);
    transaction.erase(first_out_of_range, transaction.end());
  }
  transactions_.push_back(std::move(transaction));
  bitsets_.clear();
}

void TransactionDatabase::EnsureBitsets() const {
  if (bitsets_.size() == transactions_.size()) return;
  bitsets_.clear();
  bitsets_.reserve(transactions_.size());
  for (const Transaction& transaction : transactions_) {
    DynamicBitset bits(num_items_);
    for (ItemId item : transaction) bits.Set(item);
    bitsets_.push_back(std::move(bits));
  }
}

const DynamicBitset& TransactionDatabase::transaction_bits(size_t i) const {
  EnsureBitsets();
  return bitsets_[i];
}

bool TransactionDatabase::Supports(size_t i, const Itemset& itemset) const {
  const DynamicBitset& bits = transaction_bits(i);
  for (ItemId item : itemset) {
    // An item outside the universe is contained in no transaction. Probing
    // the bitset with it is out-of-range (Debug builds assert).
    if (item >= bits.size() || !bits.Test(item)) return false;
  }
  return true;
}

uint64_t TransactionDatabase::CountSupport(const Itemset& itemset) const {
  EnsureBitsets();
  uint64_t count = 0;
  for (size_t i = 0; i < transactions_.size(); ++i) {
    if (Supports(i, itemset)) ++count;
  }
  return count;
}

double TransactionDatabase::Support(const Itemset& itemset) const {
  if (transactions_.empty()) return 0.0;
  return static_cast<double>(CountSupport(itemset)) /
         static_cast<double>(transactions_.size());
}

uint64_t TransactionDatabase::MinSupportCount(double fraction) const {
  return pincer::MinSupportCount(fraction, transactions_.size());
}

uint64_t TransactionDatabase::TotalItemOccurrences() const {
  uint64_t total = 0;
  for (const Transaction& transaction : transactions_) {
    total += transaction.size();
  }
  return total;
}

uint64_t MinSupportCount(double fraction, uint64_t transactions) {
  const double scaled = fraction * static_cast<double>(transactions);
  const auto count = static_cast<uint64_t>(std::ceil(scaled));
  return std::max<uint64_t>(count, 1);
}

}  // namespace pincer
