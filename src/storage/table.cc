#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace sqlts {

bool CoerceToColumn(TypeKind want, Value* v) {
  if (v->holds_null() || v->kind() == want) return true;
  const int64_t* i = v->int64_if();
  if (i == nullptr || want != TypeKind::kDouble) return false;
  *v = Value::Double(static_cast<double>(*i));
  return true;
}

Status Table::AppendRow(Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (!CoerceToColumn(schema_.column(c).type, &row[c])) {
      return Status::TypeError(
          "column '" + schema_.column(c).name + "' expects " +
          std::string(TypeKindToString(schema_.column(c).type)) + ", got " +
          std::string(TypeKindToString(row[c].kind())));
    }
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  return Status::OK();
}

StatusOr<Table> Table::FromColumns(Schema schema,
                                   std::vector<std::vector<Value>> columns) {
  Table table(std::move(schema));
  if (static_cast<int>(columns.size()) != table.schema_.num_columns()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(table.schema_.num_columns()));
  }
  for (int c = 0; c < table.schema_.num_columns(); ++c) {
    if (columns[c].size() != columns[0].size()) {
      return Status::InvalidArgument("ragged columns: '" +
                                     table.schema_.column(c).name + "'");
    }
    const TypeKind want = table.schema_.column(c).type;
    for (Value& v : columns[c]) {
      if (CoerceToColumn(want, &v)) continue;
      return Status::TypeError(
          "column '" + table.schema_.column(c).name + "' expects " +
          std::string(TypeKindToString(want)) + ", got " +
          std::string(TypeKindToString(v.kind())));
    }
  }
  table.columns_ = std::move(columns);
  return table;
}

const Value& Table::at(int64_t row, int col) const {
  SQLTS_CHECK(col >= 0 && col < schema_.num_columns()) << "col " << col;
  SQLTS_CHECK(row >= 0 && row < num_rows()) << "row " << row;
  return columns_[col][row];
}

Row Table::GetRow(int64_t row) const {
  Row out;
  out.reserve(schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) out.push_back(at(row, c));
  return out;
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
