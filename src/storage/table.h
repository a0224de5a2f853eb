#ifndef SQLTS_STORAGE_TABLE_H_
#define SQLTS_STORAGE_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/statusor.h"
#include "types/schema.h"
#include "types/value.h"

namespace sqlts {

/// SQL numeric coercion as a Table stores a cell: an INT64 bound for a
/// DOUBLE column becomes that DOUBLE.  Returns false when a non-NULL
/// `*v` does not fit a `want` column (`*v` is then unchanged).
bool CoerceToColumn(TypeKind want, Value* v);

/// The strings of one STRING column, each held once.  A cell stores a
/// dense code into the dictionary, assigned in first-appearance order,
/// so equal strings share one code.  Lookup is an open-addressing hash
/// over the codes themselves, so a copied dictionary stays valid.
class StringDict {
 public:
  /// The code of `s`, added when new.
  int64_t Intern(std::string_view s);

  const std::string& at(int64_t code) const { return strings_[code]; }
  int64_t size() const { return static_cast<int64_t>(strings_.size()); }

 private:
  void Rehash(size_t slots);

  std::vector<std::string> strings_;  // by code
  std::vector<int32_t> slots_;        // code + 1 per slot; 0 = empty
};

/// One column of a Table: the cells of one declared type in typed
/// slots, fixed once by the schema.  INT64 cells hold their value,
/// DATE cells their epoch-day number, BOOL cells 0/1 and STRING cells
/// a code into the column's dictionary, all in 8-byte int slots;
/// DOUBLE cells live in a double array, bit for bit (-0.0 and NaN
/// included).  A NULL cell has its bit set in the null bitmap and a
/// zero slot.
class Column {
 public:
  explicit Column(TypeKind type = TypeKind::kNull) : type_(type) {}

  TypeKind type() const { return type_; }
  int64_t size() const { return size_; }

  bool is_null(int64_t row) const {
    return (nulls_[row >> 6] >> (row & 63)) & 1;
  }
  /// The null bitmap, bit `row` of word `row / 64` (bits past size()
  /// are zero).
  const uint64_t* null_words() const { return nulls_.data(); }
  /// Int slots, one per row (every type but DOUBLE).
  const int64_t* ints() const { return ints_.data(); }
  /// DOUBLE cells, one per row.
  const double* doubles() const { return doubles_.data(); }
  const StringDict& dict() const { return dict_; }
  /// The string of non-NULL STRING cell `row`.
  const std::string& string_at(int64_t row) const {
    return dict_.at(ints_[row]);
  }

  /// Cell `row` boxed as a Value (bounds are the caller's).
  Value Get(int64_t row) const;

  /// True when `v` can be stored here: NULL, the column's type, or an
  /// INT64 bound for a DOUBLE column.
  bool Fits(const Value& v) const;
  /// Appends `v`, which must fit (checked).
  void Append(const Value& v);
  /// Appends `n` non-NULL cells and returns their int slots (every
  /// type but DOUBLE) or DOUBLE cells for the caller to fill: an INT64
  /// value, a DATE day number, BOOL 0/1, or a code of this column's
  /// dictionary.  Valid until the next append.
  int64_t* AppendInts(int64_t n);
  double* AppendDoubles(int64_t n);
  /// Turns cell `row` NULL.
  void SetNull(int64_t row);
  /// Adds `s` to a STRING column's dictionary; the code is for a slot.
  int64_t InternString(std::string_view s) { return dict_.Intern(s); }

  void Reserve(int64_t rows);
  /// Drops rows [0, n).  A STRING column re-codes the rows that remain
  /// into a fresh dictionary, so it holds only strings still in use.
  void DropPrefix(int64_t n);

 private:
  void GrowNulls(int64_t n);

  TypeKind type_;
  int64_t size_ = 0;
  std::vector<int64_t> ints_;     // every type but DOUBLE
  std::vector<double> doubles_;   // DOUBLE
  std::vector<uint64_t> nulls_;   // (size_ + 63) / 64 words
  StringDict dict_;               // STRING
};

/// An in-memory relation stored column-wise in typed columns.  This is
/// the substrate the SQL-TS engine queries; rows are addressed by a
/// dense 0-based index.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }

  /// Appends `row`; InvalidArgument if arity or types mismatch the
  /// schema (NULLs are allowed in any column, and an INT64 cell is
  /// stored as DOUBLE in a DOUBLE column).  A refused row leaves the
  /// table unchanged.
  Status AppendRow(const Row& row);

  /// Builds a table by adopting whole typed columns (the columnar
  /// reader's bulk path: nothing is re-boxed or checked per cell).
  /// Columns must match the schema's arity and types and share one
  /// length.
  static StatusOr<Table> FromColumns(Schema schema,
                                     std::vector<Column> columns);

  /// Value at (row, col); bounds are checked invariants.
  Value at(int64_t row, int col) const {
    SQLTS_CHECK(col >= 0 && col < schema_.num_columns()) << "col " << col;
    SQLTS_CHECK(row >= 0 && row < num_rows_) << "row " << row;
    return columns_[col].Get(row);
  }

  /// Typed storage of one column (the vectorized kernels, cluster
  /// build and columnar writer read slots directly).  `col` bounds are
  /// a checked invariant.
  const Column& column(int col) const {
    SQLTS_CHECK(col >= 0 && col < schema_.num_columns()) << "col " << col;
    return columns_[col];
  }

  /// Whole row materialized (mostly for tests and display).
  Row GetRow(int64_t row) const;

  /// Drops rows [0, n) of every column (Column::DropPrefix).
  void DropPrefix(int64_t n);

  /// Renders up to `max_rows` rows as an aligned ASCII table.
  std::string ToString(int64_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace sqlts

#endif  // SQLTS_STORAGE_TABLE_H_
