#include "storage/sequence.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "storage/cluster_key.h"
#include "types/numeric_ops.h"

namespace sqlts {
namespace {

template <typename T>
int Sign(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Three-way order of two non-NULL cells of one column type, exactly as
/// Value::Compare orders them (doubles by num::CompareF64: NaN last,
/// -0.0 == +0.0).
using CellCompare = int (*)(const Value&, const Value&);

CellCompare CompareFor(TypeKind type) {
  switch (type) {
    case TypeKind::kBool:
      return [](const Value& x, const Value& y) {
        return Sign(*x.bool_if(), *y.bool_if());
      };
    case TypeKind::kInt64:
      return [](const Value& x, const Value& y) {
        return Sign(*x.int64_if(), *y.int64_if());
      };
    case TypeKind::kDouble:
      return [](const Value& x, const Value& y) {
        return num::CompareF64(*x.double_if(), *y.double_if());
      };
    case TypeKind::kString:
      return [](const Value& x, const Value& y) {
        return Sign(x.string_if()->compare(*y.string_if()), 0);
      };
    case TypeKind::kDate:
      return [](const Value& x, const Value& y) {
        return Sign(x.date_if()->days_since_epoch(),
                    y.date_if()->days_since_epoch());
      };
    case TypeKind::kNull:
      break;
  }
  return [](const Value&, const Value&) { return 0; };
}

/// Ascending SEQUENCE BY order over the row indices of one table, typed
/// once per column: NULLs first, then the column's own order.  A Table
/// holds one type per column, so every pair of cells is comparable.
class SequenceOrder {
 public:
  SequenceOrder(const Table& table, const std::vector<int>& cols) {
    for (int c : cols) {
      columns_.push_back({&table.column_data(c),
                          CompareFor(table.schema().column(c).type)});
    }
  }

  bool operator()(int64_t a, int64_t b) const {
    for (const Column& col : columns_) {
      const Value& x = (*col.cells)[a];
      const Value& y = (*col.cells)[b];
      const bool xn = x.holds_null(), yn = y.holds_null();
      if (xn || yn) {
        if (xn != yn) return xn;
        continue;
      }
      const int c = col.compare(x, y);
      if (c != 0) return c < 0;
    }
    return false;
  }

 private:
  struct Column {
    const std::vector<Value>* cells;
    CellCompare compare;
  };
  std::vector<Column> columns_;
};

}  // namespace

StatusOr<ClusteredSequence> ClusteredSequence::Build(
    const Table* table, const std::vector<std::string>& cluster_by,
    const std::vector<std::string>& sequence_by) {
  SQLTS_CHECK(table != nullptr);
  std::vector<int> cluster_cols;
  for (const std::string& name : cluster_by) {
    SQLTS_ASSIGN_OR_RETURN(int idx, table->schema().FindColumn(name));
    cluster_cols.push_back(idx);
  }
  std::vector<int> seq_cols;
  for (const std::string& name : sequence_by) {
    SQLTS_ASSIGN_OR_RETURN(int idx, table->schema().FindColumn(name));
    seq_cols.push_back(idx);
  }

  // Group rows by encoded cluster key into dense ids, in first-appearance
  // order.  A row keyed like its predecessor skips the probe.
  ClusteredSequence out;
  std::unordered_map<std::string, int> ids;
  std::vector<std::vector<int64_t>> groups;
  std::string key, prev_key;
  int id = -1;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    EncodeClusterKey(*table, r, cluster_cols, &key);
    if (id < 0 || key != prev_key) {
      auto it = ids.find(key);
      if (it == ids.end()) {
        it = ids.emplace(key, static_cast<int>(groups.size())).first;
        Row values;
        values.reserve(cluster_cols.size());
        for (int c : cluster_cols) values.push_back(table->at(r, c));
        out.keys_.push_back(std::move(values));
        groups.emplace_back();
      }
      id = it->second;
      std::swap(key, prev_key);
    }
    groups[id].push_back(r);
  }

  // Each group holds its rows in input order, which usually is already
  // SEQUENCE BY order: one linear check, and a stable sort only when it
  // fails.
  const SequenceOrder order(*table, seq_cols);
  auto less = [&order](int64_t a, int64_t b) { return order(a, b); };
  out.clusters_.reserve(groups.size());
  for (auto& group : groups) {
    if (!std::is_sorted(group.begin(), group.end(), less)) {
      std::stable_sort(group.begin(), group.end(), less);
    }
    out.clusters_.emplace_back(table, std::move(group));
  }
  return out;
}

}  // namespace sqlts
