#include "data/database_io.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "data/basket_reader.h"
#include "util/failpoint.h"

namespace pincer {

StatusOr<TransactionDatabase> ReadDatabase(std::istream& in,
                                           const DatabaseReadOptions& options,
                                           DatabaseReadReport* report) {
  BasketReader reader(in, {options.malformed_rows, "database.read",
                           "database.read_row", ""});
  std::vector<Transaction> transactions;
  size_t num_items = 0;  // max id + 1
  PINCER_RETURN_IF_ERROR(reader.ForEachRow([&](const BasketRow& row) {
    PINCER_RETURN_IF_ERROR(CheckDatabaseRows(transactions.size() + 1));
    transactions.emplace_back(row.items.begin(), row.items.end());
    for (const ItemId item : row.items) {
      num_items = std::max(num_items, static_cast<size_t>(item) + 1);
    }
    return Status::OK();
  }));

  // max id + 1 bounds every accepted id, so AddTransaction drops none.
  TransactionDatabase db(std::max(num_items, reader.declared_items()));
  for (auto& transaction : transactions) {
    db.AddTransaction(std::move(transaction));
  }
  if (report != nullptr) report->rows_skipped = reader.rows_skipped();
  return db;
}

StatusOr<TransactionDatabase> ReadDatabase(std::istream& in) {
  return ReadDatabase(in, DatabaseReadOptions{}, nullptr);
}

StatusOr<TransactionDatabase> ReadDatabaseFromFile(
    const std::string& path, const DatabaseReadOptions& options,
    DatabaseReadReport* report) {
  PINCER_FAILPOINT("streaming.open");
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadDatabase(in, options, report);
}

StatusOr<TransactionDatabase> ReadDatabaseFromFile(const std::string& path) {
  return ReadDatabaseFromFile(path, DatabaseReadOptions{}, nullptr);
}

Status WriteDatabase(const TransactionDatabase& db, std::ostream& out) {
  out << kItemsHeaderPrefix << ' ' << db.num_items() << '\n';
  for (const Transaction& transaction : db.transactions()) {
    for (size_t i = 0; i < transaction.size(); ++i) {
      if (i > 0) out << ' ';
      out << transaction[i];
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failed");
  return Status::OK();
}

Status WriteDatabaseToFile(const TransactionDatabase& db,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteDatabase(db, out);
}

}  // namespace pincer
