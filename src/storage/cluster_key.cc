#include "storage/cluster_key.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

namespace sqlts {
namespace {

/// Appends `tag` and the low `bytes` bytes of `v`, little-endian.
void AppendFixed(TypeKind tag, uint64_t v, int bytes, std::string* out) {
  char part[9];
  part[0] = static_cast<char>(tag);
  for (int b = 0; b < bytes; ++b) {
    part[1 + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
  out->append(part, 1 + bytes);
}

void AppendDoublePart(double d, std::string* out) {
  double canon = d;
  if (canon == 0.0) canon = 0.0;  // -0.0 == +0.0
  if (std::isnan(canon)) canon = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &canon, sizeof bits);
  AppendFixed(TypeKind::kDouble, bits, 8, out);
}

void AppendStringPart(std::string_view s, std::string* out) {
  out->push_back(static_cast<char>(TypeKind::kString));
  uint64_t n = s.size();
  do {
    out->push_back(static_cast<char>((n & 0x7f) | (n > 0x7f ? 0x80 : 0)));
    n >>= 7;
  } while (n != 0);
  out->append(s);
}

void AppendDatePart(int32_t days, std::string* out) {
  AppendFixed(TypeKind::kDate, static_cast<uint32_t>(days), 4, out);
}

/// One key part, as laid out in cluster_key.h.
void AppendKeyPart(const Value& v, std::string* out) {
  if (const int64_t* i = v.int64_if()) {
    AppendFixed(TypeKind::kInt64, static_cast<uint64_t>(*i), 8, out);
  } else if (const double* d = v.double_if()) {
    AppendDoublePart(*d, out);
  } else if (const std::string* s = v.string_if()) {
    AppendStringPart(*s, out);
  } else if (const Date* date = v.date_if()) {
    AppendDatePart(date->days_since_epoch(), out);
  } else if (const bool* b = v.bool_if()) {
    AppendFixed(TypeKind::kBool, *b ? 1 : 0, 1, out);
  } else {
    out->push_back(static_cast<char>(TypeKind::kNull));
  }
}

/// The same part, read from the typed slots of cell `row` of `col`.
void AppendKeyPart(const Column& col, int64_t row, std::string* out) {
  if (col.is_null(row)) {
    out->push_back(static_cast<char>(TypeKind::kNull));
    return;
  }
  switch (col.type()) {
    case TypeKind::kInt64:
      AppendFixed(TypeKind::kInt64, static_cast<uint64_t>(col.ints()[row]),
                  8, out);
      break;
    case TypeKind::kDouble:
      AppendDoublePart(col.doubles()[row], out);
      break;
    case TypeKind::kString:
      AppendStringPart(col.string_at(row), out);
      break;
    case TypeKind::kDate:
      AppendDatePart(static_cast<int32_t>(col.ints()[row]), out);
      break;
    case TypeKind::kBool:
      AppendFixed(TypeKind::kBool, col.ints()[row] != 0 ? 1 : 0, 1, out);
      break;
    case TypeKind::kNull:
      out->push_back(static_cast<char>(TypeKind::kNull));
      break;
  }
}

}  // namespace

void EncodeClusterKey(const Row& row, const std::vector<int>& cols,
                      std::string* out) {
  out->clear();
  for (int c : cols) AppendKeyPart(row[c], out);
}

void EncodeClusterKey(const Table& table, int64_t row,
                      const std::vector<int>& cols, std::string* out) {
  out->clear();
  for (int c : cols) AppendKeyPart(table.column(c), row, out);
}

std::string EncodeClusterKey(const Row& row, const std::vector<int>& cols) {
  std::string key;
  EncodeClusterKey(row, cols, &key);
  return key;
}

}  // namespace sqlts
