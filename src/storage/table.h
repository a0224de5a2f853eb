#ifndef SQLTS_STORAGE_TABLE_H_
#define SQLTS_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "types/schema.h"
#include "types/value.h"

namespace sqlts {

/// SQL numeric coercion as a Table stores a cell: an INT64 bound for a
/// DOUBLE column becomes that DOUBLE.  Returns false when a non-NULL
/// `*v` does not fit a `want` column (`*v` is then unchanged).
bool CoerceToColumn(TypeKind want, Value* v);

/// An in-memory relation stored column-wise.  This is the substrate the
/// SQL-TS engine queries; rows are addressed by a dense 0-based index.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)), columns_(schema_.num_columns()) {}

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const {
    return columns_.empty() ? 0
                            : static_cast<int64_t>(columns_[0].size());
  }

  /// Appends `row`; InvalidArgument if arity or types mismatch the
  /// schema (NULLs are allowed in any column).
  Status AppendRow(Row row);

  /// Builds a table by adopting whole column vectors (the columnar
  /// reader's bulk path: no per-row re-boxing).  Columns must match the
  /// schema arity, share one length, and type-check cell-wise exactly
  /// like AppendRow (int64 cells coerce into double columns).
  static StatusOr<Table> FromColumns(Schema schema,
                                     std::vector<std::vector<Value>> columns);

  /// Value at (row, col); bounds are checked invariants.
  const Value& at(int64_t row, int col) const;

  /// Raw storage of one column (the vectorized kernels hoist this once
  /// per block instead of paying at()'s checks per cell).  `col` bounds
  /// are a checked invariant.
  const std::vector<Value>& column_data(int col) const {
    SQLTS_CHECK(col >= 0 && col < schema_.num_columns()) << "col " << col;
    return columns_[col];
  }

  /// Whole row materialized (mostly for tests and display).
  Row GetRow(int64_t row) const;

  /// Renders up to `max_rows` rows as an aligned ASCII table.
  std::string ToString(int64_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
};

}  // namespace sqlts

#endif  // SQLTS_STORAGE_TABLE_H_
