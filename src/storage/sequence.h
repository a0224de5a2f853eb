#ifndef SQLTS_STORAGE_SEQUENCE_H_
#define SQLTS_STORAGE_SEQUENCE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "storage/table.h"

namespace sqlts {

/// One cluster of a table: an ordered run of row indices, all sharing the
/// same CLUSTER BY key, sorted by the SEQUENCE BY key.  This is the input
/// stream the pattern matchers traverse (paper Fig. 1).
class SequenceView {
 public:
  /// Owning form: the view keeps its own row-index vector.
  SequenceView(const Table* table, std::vector<int64_t> rows)
      : table_(table),
        owned_rows_(std::move(rows)),
        rows_(&owned_rows_),
        contiguous_(IsOneRun(owned_rows_)) {}

  /// Borrowing form: `rows` must outlive the view (used by the
  /// streaming matcher, whose index grows with every push).  Position 0
  /// is `rows[first]`: a streaming cursor that joined mid-stream sees
  /// nothing before its floor.  Never contiguous(): the index may
  /// still grow.
  SequenceView(const Table* table, const std::vector<int64_t>* rows,
               int64_t first = 0)
      : table_(table), rows_(rows), first_(first) {}

  SequenceView(const SequenceView& o)
      : table_(o.table_),
        owned_rows_(o.owned_rows_),
        first_(o.first_),
        contiguous_(o.contiguous_) {
    rows_ = o.rows_ == &o.owned_rows_ ? &owned_rows_ : o.rows_;
  }
  SequenceView(SequenceView&& o) noexcept
      : table_(o.table_), owned_rows_(std::move(o.owned_rows_)),
        first_(o.first_), contiguous_(o.contiguous_) {
    rows_ = o.rows_ == &o.owned_rows_ ? &owned_rows_ : o.rows_;
  }
  SequenceView& operator=(const SequenceView&) = delete;
  SequenceView& operator=(SequenceView&&) = delete;

  /// Number of tuples in this cluster's sequence.
  int64_t size() const {
    return static_cast<int64_t>(rows_->size()) - first_;
  }

  /// Value of column `col` of the tuple at sequence position `pos`
  /// (0-based).  Out-of-range positions are checked invariants; use
  /// `InRange` first for previous/next navigation.
  Value at(int64_t pos, int col) const {
    return table_->at((*rows_)[first_ + pos], col);
  }

  bool InRange(int64_t pos) const { return pos >= 0 && pos < size(); }

  /// Underlying table row index of sequence position `pos`.
  int64_t row_index(int64_t pos) const { return (*rows_)[first_ + pos]; }

  /// Raw row-index array (size() entries; the vectorized kernels hoist
  /// this once per block instead of indexing through at() per cell).
  const int64_t* row_data() const { return rows_->data() + first_; }

  /// True when position p is table row row_index(0) + p for every
  /// position (one ascending run, fixed at construction; an empty
  /// owning view counts).  The vectorized kernels then read a block's
  /// cells straight from the column arrays instead of through
  /// row_data().
  bool contiguous() const { return contiguous_; }

  const Table& table() const { return *table_; }

 private:
  friend class ClusteredSequence;

  /// Owning form for a caller that already knows whether `rows` is one
  /// ascending run (ClusteredSequence::Build learns it from its own
  /// sortedness pass), so construction does not walk the rows again.
  SequenceView(const Table* table, std::vector<int64_t> rows,
               bool contiguous)
      : table_(table),
        owned_rows_(std::move(rows)),
        rows_(&owned_rows_),
        contiguous_(contiguous) {}

  static bool IsOneRun(const std::vector<int64_t>& rows) {
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i] != rows[0] + static_cast<int64_t>(i)) return false;
    }
    return true;
  }

  const Table* table_;  // not owned
  std::vector<int64_t> owned_rows_;
  const std::vector<int64_t>* rows_;
  int64_t first_ = 0;  // index into *rows_ of position 0
  bool contiguous_ = false;
};

/// Result of applying CLUSTER BY + SEQUENCE BY to a table: one
/// SequenceView per distinct cluster key, clusters ordered by first
/// appearance, tuples within a cluster stably sorted by the sequence key.
class ClusteredSequence {
 public:
  /// Partitions `table` by `cluster_by` columns (may be empty: a single
  /// cluster) and sorts each partition by `sequence_by` columns
  /// ascending, NULLs first.  Rows are grouped by hash on their
  /// EncodeClusterKey bytes (storage/cluster_key.h), the key the
  /// streaming router uses too; a partition already in order is not
  /// sorted.  Errors if any named column is missing.
  static StatusOr<ClusteredSequence> Build(
      const Table* table, const std::vector<std::string>& cluster_by,
      const std::vector<std::string>& sequence_by);

  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const SequenceView& cluster(int i) const { return clusters_[i]; }
  /// The cluster key values (one per CLUSTER BY column) of cluster `i`.
  const Row& cluster_key(int i) const { return keys_[i]; }

 private:
  std::vector<SequenceView> clusters_;
  std::vector<Row> keys_;
};

}  // namespace sqlts

#endif  // SQLTS_STORAGE_SEQUENCE_H_
