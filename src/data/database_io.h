// Text I/O for transaction databases in the standard "basket" format used by
// FIMI-repository datasets: one transaction per line, whitespace-separated
// item ids, '#' comment lines.

#ifndef PINCER_DATA_DATABASE_IO_H_
#define PINCER_DATA_DATABASE_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "data/database.h"
#include "data/row_policy.h"
#include "util/status.h"
#include "util/statusor.h"

namespace pincer {

/// Read-side knobs.
struct DatabaseReadOptions {
  /// What to do with malformed rows (non-numeric tokens, negative or
  /// overflowing ids, ids at or beyond a declared "# items: N" universe).
  MalformedRowPolicy malformed_rows = MalformedRowPolicy::kStrict;
};

/// What a read dropped. All zero on a clean file.
struct DatabaseReadReport {
  /// Rows dropped under MalformedRowPolicy::kSkipAndCount.
  uint64_t rows_skipped = 0;
};

/// Parses a database from a stream with the basket reader
/// (data/basket_reader.h). `num_items` of the result is the larger of max
/// id + 1 and the last "# items: N" header, so no accepted id is dropped.
/// Returns InvalidArgument naming the 1-based line number and byte offset
/// of a malformed line (such as a row holding an id at or beyond the header
/// in force); under kSkipAndCount the whole line is dropped and tallied in
/// `report` instead.
StatusOr<TransactionDatabase> ReadDatabase(std::istream& in,
                                           const DatabaseReadOptions& options,
                                           DatabaseReadReport* report);

/// Strict read with no report (the original API).
StatusOr<TransactionDatabase> ReadDatabase(std::istream& in);

/// Reads a database from a file path. Returns IoError if the file cannot be
/// opened.
StatusOr<TransactionDatabase> ReadDatabaseFromFile(
    const std::string& path, const DatabaseReadOptions& options,
    DatabaseReadReport* report);

StatusOr<TransactionDatabase> ReadDatabaseFromFile(const std::string& path);

/// Writes a database to a stream in basket format, with a "# items: N"
/// header preserving the declared universe size.
Status WriteDatabase(const TransactionDatabase& db, std::ostream& out);

/// Writes a database to a file path.
Status WriteDatabaseToFile(const TransactionDatabase& db,
                           const std::string& path);

}  // namespace pincer

#endif  // PINCER_DATA_DATABASE_IO_H_
