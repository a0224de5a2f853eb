#include "storage/sequence.h"

#include <algorithm>
#include <cstring>
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

/// Ascending SEQUENCE BY order over the row indices of one table, read
/// from the typed slots: NULLs first, then the column's own order, as
/// Value::Compare orders it (doubles by num::CompareF64: NaN last,
/// -0.0 == +0.0; strings by their bytes, and equal codes compare equal
/// without reading the strings).
class SequenceOrder {
 public:
  SequenceOrder(const Table& table, const std::vector<int>& cols) {
    for (int c : cols) columns_.push_back(&table.column(c));
  }

  bool operator()(int64_t a, int64_t b) const {
    for (const Column* col : columns_) {
      const bool an = col->is_null(a), bn = col->is_null(b);
      if (an || bn) {
        if (an != bn) return an;
        continue;
      }
      const int c = Compare(*col, a, b);
      if (c != 0) return c < 0;
    }
    return false;
  }

 private:
  static int Compare(const Column& col, int64_t a, int64_t b) {
    switch (col.type()) {
      case TypeKind::kDouble:
        return num::CompareF64(col.doubles()[a], col.doubles()[b]);
      case TypeKind::kString: {
        const int64_t x = col.ints()[a], y = col.ints()[b];
        if (x == y) return 0;
        return Sign(col.dict().at(x).compare(col.dict().at(y)), 0);
      }
      default:
        return Sign(col.ints()[a], col.ints()[b]);
    }
  }

  std::vector<const Column*> columns_;
};

/// True when rows `a` and `b` hold identical slots in every column of
/// `cols`, which makes their encoded keys equal.
bool SameSlots(const Table& table, int64_t a, int64_t b,
               const std::vector<int>& cols) {
  for (int c : cols) {
    const Column& col = table.column(c);
    if (col.is_null(a) != col.is_null(b)) return false;
    if (col.type() == TypeKind::kDouble
            ? std::memcmp(&col.doubles()[a], &col.doubles()[b],
                          sizeof(double)) != 0
            : col.ints()[a] != col.ints()[b]) {
      return false;
    }
  }
  return true;
}

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
  // order.  A row whose cluster cells hold the same slots as its
  // predecessor's (a STRING slot is a dictionary code) has its key, and
  // skips encoding and the probe.
  ClusteredSequence out;
  std::unordered_map<std::string, int> ids;
  std::vector<std::vector<int64_t>> groups;
  std::string key;
  int id = -1;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    if (id < 0 || !SameSlots(*table, r - 1, r, cluster_cols)) {
      EncodeClusterKey(*table, r, cluster_cols, &key);
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
    }
    groups[id].push_back(r);
  }

  // Each group holds its rows in input order, which usually is already
  // SEQUENCE BY order: one linear check, and a stable sort only when it
  // fails.  A group that needs no sort holds ascending rows, so it is
  // one run (SequenceView::contiguous) exactly when its ends are
  // size - 1 apart; a group that had to be sorted is not one run.
  const SequenceOrder order(*table, seq_cols);
  auto less = [&order](int64_t a, int64_t b) { return order(a, b); };
  out.clusters_.reserve(groups.size());
  for (auto& group : groups) {
    bool contiguous = false;
    if (!std::is_sorted(group.begin(), group.end(), less)) {
      std::stable_sort(group.begin(), group.end(), less);
    } else {
      contiguous = group.back() - group.front() + 1 ==
                   static_cast<int64_t>(group.size());
    }
    out.clusters_.push_back(SequenceView(table, std::move(group), contiguous));
  }
  return out;
}

}  // namespace sqlts
