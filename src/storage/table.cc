#include "storage/table.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace sqlts {

bool CoerceToColumn(TypeKind want, Value* v) {
  if (v->holds_null() || v->kind() == want) return true;
  const int64_t* i = v->int64_if();
  if (i == nullptr || want != TypeKind::kDouble) return false;
  *v = Value::Double(static_cast<double>(*i));
  return true;
}

int64_t StringDict::Intern(std::string_view s) {
  if (2 * (strings_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>()(s) & mask;; i = (i + 1) & mask) {
    const int32_t slot = slots_[i];
    if (slot == 0) {
      strings_.emplace_back(s);
      slots_[i] = static_cast<int32_t>(strings_.size());
      return static_cast<int64_t>(strings_.size()) - 1;
    }
    if (strings_[slot - 1] == s) return slot - 1;
  }
}

void StringDict::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t code = 0; code < strings_.size(); ++code) {
    size_t i = std::hash<std::string_view>()(strings_[code]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<int32_t>(code + 1);
  }
}

Value Column::Get(int64_t row) const {
  if (is_null(row)) return Value::Null();
  switch (type_) {
    case TypeKind::kBool:
      return Value::Bool(ints_[row] != 0);
    case TypeKind::kInt64:
      return Value::Int64(ints_[row]);
    case TypeKind::kDouble:
      return Value::Double(doubles_[row]);
    case TypeKind::kString:
      return Value::String(string_at(row));
    case TypeKind::kDate:
      return Value::FromDate(Date(static_cast<int32_t>(ints_[row])));
    case TypeKind::kNull:
      break;
  }
  return Value::Null();
}

bool Column::Fits(const Value& v) const {
  return v.holds_null() || v.kind() == type_ ||
         (type_ == TypeKind::kDouble && v.int64_if() != nullptr);
}

void Column::GrowNulls(int64_t n) {
  size_ += n;
  nulls_.resize(static_cast<size_t>((size_ + 63) / 64), 0);
}

int64_t* Column::AppendInts(int64_t n) {
  const size_t at = ints_.size();
  ints_.resize(at + n);
  GrowNulls(n);
  return ints_.data() + at;
}

double* Column::AppendDoubles(int64_t n) {
  const size_t at = doubles_.size();
  doubles_.resize(at + n);
  GrowNulls(n);
  return doubles_.data() + at;
}

void Column::SetNull(int64_t row) {
  nulls_[row >> 6] |= uint64_t{1} << (row & 63);
  if (type_ == TypeKind::kDouble) {
    doubles_[row] = 0;
  } else {
    ints_[row] = 0;
  }
}

void Column::Append(const Value& v) {
  SQLTS_CHECK(Fits(v)) << TypeKindToString(v.kind()) << " cell in a "
                       << TypeKindToString(type_) << " column";
  // A fresh slot is 0, which is what a NULL cell keeps.
  if (type_ == TypeKind::kDouble) {
    double* slot = AppendDoubles(1);
    if (const double* d = v.double_if()) {
      *slot = *d;
    } else if (const int64_t* i = v.int64_if()) {
      *slot = static_cast<double>(*i);
    }
  } else {
    int64_t* slot = AppendInts(1);
    if (const int64_t* i = v.int64_if()) {
      *slot = *i;
    } else if (const std::string* s = v.string_if()) {
      *slot = dict_.Intern(*s);
    } else if (const Date* date = v.date_if()) {
      *slot = date->days_since_epoch();
    } else if (const bool* b = v.bool_if()) {
      *slot = *b ? 1 : 0;
    }
  }
  if (v.holds_null()) SetNull(size_ - 1);
}

void Column::Reserve(int64_t rows) {
  if (type_ == TypeKind::kDouble) {
    doubles_.reserve(rows);
  } else {
    ints_.reserve(rows);
  }
  nulls_.reserve((rows + 63) / 64);
}

void Column::DropPrefix(int64_t n) {
  SQLTS_CHECK(n >= 0 && n <= size_) << "drop " << n << " of " << size_;
  if (n == 0) return;
  if (type_ == TypeKind::kDouble) {
    doubles_.erase(doubles_.begin(), doubles_.begin() + n);
  } else {
    ints_.erase(ints_.begin(), ints_.begin() + n);
  }
  // Shift the null bitmap down by n bits; bits past the end stay zero.
  const size_t skip = static_cast<size_t>(n >> 6);
  const int shift = static_cast<int>(n & 63);
  const size_t words = nulls_.size();
  for (size_t w = 0; w + skip < words; ++w) {
    uint64_t bits = nulls_[w + skip] >> shift;
    if (shift != 0 && w + skip + 1 < words) {
      bits |= nulls_[w + skip + 1] << (64 - shift);
    }
    nulls_[w] = bits;
  }
  size_ -= n;
  nulls_.resize(static_cast<size_t>((size_ + 63) / 64));
  if (type_ != TypeKind::kString) return;
  StringDict live;
  std::vector<int64_t> recode(static_cast<size_t>(dict_.size()), -1);
  for (int64_t r = 0; r < size_; ++r) {
    if (is_null(r)) continue;
    int64_t& code = recode[static_cast<size_t>(ints_[r])];
    if (code < 0) code = live.Intern(dict_.at(ints_[r]));
    ints_[r] = code;
  }
  dict_ = std::move(live);
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    columns_.emplace_back(schema_.column(c).type);
  }
}

Status Table::AppendRow(const Row& row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (!columns_[c].Fits(row[c])) {
      return Status::TypeError(
          "column '" + schema_.column(c).name + "' expects " +
          std::string(TypeKindToString(schema_.column(c).type)) + ", got " +
          std::string(TypeKindToString(row[c].kind())));
    }
  }
  for (int c = 0; c < schema_.num_columns(); ++c) columns_[c].Append(row[c]);
  ++num_rows_;
  return Status::OK();
}

StatusOr<Table> Table::FromColumns(Schema schema,
                                   std::vector<Column> columns) {
  Table table(std::move(schema));
  if (static_cast<int>(columns.size()) != table.schema_.num_columns()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(table.schema_.num_columns()));
  }
  for (int c = 0; c < table.schema_.num_columns(); ++c) {
    const TypeKind want = table.schema_.column(c).type;
    if (columns[c].type() != want) {
      return Status::TypeError(
          "column '" + table.schema_.column(c).name + "' expects " +
          std::string(TypeKindToString(want)) + ", got a " +
          std::string(TypeKindToString(columns[c].type())) + " column");
    }
    if (columns[c].size() != columns[0].size()) {
      return Status::InvalidArgument("ragged columns: '" +
                                     table.schema_.column(c).name + "'");
    }
  }
  table.num_rows_ = columns.empty() ? 0 : columns[0].size();
  table.columns_ = std::move(columns);
  return table;
}

Row Table::GetRow(int64_t row) const {
  SQLTS_CHECK(row >= 0 && row < num_rows_) << "row " << row;
  Row out;
  out.reserve(columns_.size());
  for (const Column& col : columns_) out.push_back(col.Get(row));
  return out;
}

void Table::DropPrefix(int64_t n) {
  for (Column& col : columns_) col.DropPrefix(n);
  num_rows_ -= n;
}

std::string Table::ToString(int64_t max_rows) const {
  const int ncols = schema_.num_columns();
  std::vector<size_t> width(ncols);
  std::vector<std::vector<std::string>> cells;
  int64_t shown = std::min<int64_t>(num_rows(), max_rows);
  for (int c = 0; c < ncols; ++c) width[c] = schema_.column(c).name.size();
  for (int64_t r = 0; r < shown; ++r) {
    std::vector<std::string> rowcells;
    for (int c = 0; c < ncols; ++c) {
      rowcells.push_back(at(r, c).ToString());
      width[c] = std::max(width[c], rowcells.back().size());
    }
    cells.push_back(std::move(rowcells));
  }
  std::ostringstream os;
  for (int c = 0; c < ncols; ++c) {
    os << (c ? " | " : "");
    os << schema_.column(c).name
       << std::string(width[c] - schema_.column(c).name.size(), ' ');
  }
  os << "\n";
  for (int c = 0; c < ncols; ++c) {
    os << (c ? "-+-" : "") << std::string(width[c], '-');
  }
  os << "\n";
  for (auto& rowcells : cells) {
    for (int c = 0; c < ncols; ++c) {
      os << (c ? " | " : "") << rowcells[c]
         << std::string(width[c] - rowcells[c].size(), ' ');
    }
    os << "\n";
  }
  if (shown < num_rows()) {
    os << "... (" << num_rows() - shown << " more rows)\n";
  }
  return os.str();
}

}  // namespace sqlts
