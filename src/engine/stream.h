#ifndef SQLTS_ENGINE_STREAM_H_
#define SQLTS_ENGINE_STREAM_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/governance.h"
#include "common/statusor.h"
#include "engine/checkpoint.h"
#include "engine/match.h"
#include "engine/ops_cursor.h"
#include "engine/shared_eval.h"
#include "pattern/compile.h"
#include "storage/table.h"

namespace sqlts {

/// Arity and type check of one stream tuple against `schema`
/// (InvalidArgument / TypeError), applying Table::AppendRow's
/// INT64-into-DOUBLE coercion in place: a tuple that passes holds the
/// values a table built from it would, so it keys, filters and buffers
/// like a batch row.
Status CheckStreamRow(const Schema& schema, Row* row);

/// Push-based incremental OPS matching over one cluster's tuple stream
/// — the deployment mode the paper targets ("the runtime execution of
/// SQL-TS is achieved via user-defined aggregates … on input streams",
/// Sec 6).  One row buffer drives K cursors, one per standing query (a
/// lone matcher is K = 1): each tuple is appended once and every cursor
/// advances over it.  The cursors are the OpsCursor batch OpsSearch
/// drives, suspended at the last pushed tuple, so both report the same
/// matches and statistics; positions count from the buffer's first
/// tuple.
///
/// A cursor added after tuples arrived has a *floor*, the first
/// position it sees.  Its view starts at its reach, max(floor, start +
/// min_offset), so `previous` below the floor is out of range, as for a
/// matcher created at that point; tuples before every cursor's reach
/// are evicted.  Governance is per cursor (budgets, deadline,
/// cancellation, the "matcher.append" fault site), and a cursor's
/// ResourceLedger is charged only for the tuples it keeps reachable, at
/// the buffer's mean estimated bytes per tuple.  Checkpoint() and
/// RestoreState() carry all live state; a restored matcher fed the
/// remaining tuples produces bit-identical callbacks and stats.
class OpsStreamMatcher {
 public:
  /// Called for each completed match.  `match` spans use absolute
  /// positions; `view` (valid during the callback) holds the tuples the
  /// cursor can see, view position + `base` = absolute position.
  using MatchCallback = std::function<void(
      const Match& match, const SequenceView& view, int64_t base)>;

  /// Most negative relative offset the plan's predicates read (0 when
  /// none): how far back of an attempt's start its tests can reach.
  /// InvalidArgument when a predicate looks *ahead* (a positive
  /// offset), which streaming cannot serve.
  static StatusOr<int> ReachBack(const PatternPlan& plan);

  /// A matcher with one cursor (slot 0, floor 0) for `plan`.  The
  /// optional `governance`, `ledger` (shared across a query's clusters
  /// for one per-query budget) and `evaluator` (answer-preserving, see
  /// engine/shared_eval.h) must outlive the matcher.
  static StatusOr<OpsStreamMatcher> Create(
      const PatternPlan* plan, Schema schema, MatchCallback on_match,
      const ExecGovernance* governance = nullptr,
      ResourceLedger* ledger = nullptr,
      ElementEvaluator* evaluator = nullptr);

  /// An empty buffer for rows of `schema`, without cursors.
  explicit OpsStreamMatcher(Schema schema);

  /// Adds a cursor in `slot` that sees only tuples pushed from now on.
  /// `min_offset` is at most ReachBack(*plan); the rest is as for
  /// Create.
  void AddCursor(int slot, const PatternPlan* plan, int min_offset,
                 MatchCallback on_match, const ExecGovernance* governance,
                 ResourceLedger* ledger, ElementEvaluator* evaluator);

  /// Removes the cursor in `slot` (if any) without end-of-stream
  /// completion, releasing its ledger charge.
  void DropCursor(int slot);

  bool has_cursor(int slot) const {
    return slot >= 0 && slot < static_cast<int>(cursors_.size()) &&
           cursors_[slot] != nullptr;
  }

  /// Processes the next tuple for every cursor; returns the first
  /// cursor's error.
  Status Push(Row row);

  /// Processes the next tuple.  `errors` has an entry per slot, and a
  /// cursor that fails records its error there.  A cursor whose entry is
  /// not OK on entry is retired: it sits out this and every later tuple,
  /// keeps its statistics, holds no rows and no ledger charge, and gets
  /// no end-of-stream completion.  Buffered only if some cursor takes
  /// it.
  void Push(Row row, std::vector<Status>* errors);

  /// End-of-stream for every cursor; returns the first error.
  Status Finish();

  /// End-of-stream for the cursor in `slot`: a non-empty trailing star
  /// group closes and may complete a final match.  kCancelled /
  /// kDeadlineExceeded when governance stops it part-way.
  Status FinishCursor(int slot);

  /// Serializes the stream position, the buffered tuples every cursor
  /// can still reach (once, from the lowest reach), then each cursor's
  /// slot, plan fingerprint, floor and attempt state.
  void Checkpoint(CheckpointWriter* writer) const;

  /// Reinstates state captured by Checkpoint() on a matcher no tuple
  /// was pushed to yet.  Each saved slot must hold a cursor for the
  /// same plan, or `add_cursor` must add one there.  Fails with
  /// IoError/InvalidArgument on corrupted or mismatched payloads.
  Status RestoreState(
      CheckpointReader* reader,
      const std::function<Status(int slot)>& add_cursor = nullptr);

  /// Search counters of the cursor in `slot`.
  const SearchStats& stats(int slot = 0) const {
    return cursors_[slot]->cursor.stats();
  }
  /// Number of tuples currently buffered (bounded-memory check).
  int64_t buffered() const { return buffer_.num_rows(); }
  /// The buffered tuples: row 0 is absolute position pushed() -
  /// buffered().
  const Table& buffer() const { return buffer_; }
  /// Estimated bytes held by the buffered tuples.
  int64_t buffered_bytes() const { return buffered_bytes_; }
  /// High-water marks of the two gauges above over the matcher's life.
  int64_t peak_buffered() const { return peak_buffered_; }
  int64_t peak_buffered_bytes() const { return peak_buffered_bytes_; }
  /// Total tuples pushed so far.
  int64_t pushed() const { return pushed_; }

 private:
  struct Cursor {
    const PatternPlan* plan;
    int min_offset;  // ReachBack(*plan)
    int64_t floor;   // first position this cursor sees
    MatchCallback on_match;
    const ExecGovernance* gov;  // not owned; may be null
    ResourceLedger* ledger;     // not owned; may be null
    OpsCursor cursor;           // attempt state in absolute positions
    int64_t charged_tuples = 0;
    int64_t charged_bytes = 0;
    bool retired = false;  // failed: sits out, reaches nothing
  };

  /// First position `c` can still read.
  static int64_t Reach(const Cursor& c) {
    return std::max(c.floor, c.cursor.start() + c.min_offset);
  }
  /// Lowest reach over the live cursors (the stream position when
  /// none).
  int64_t LowestReach() const;
  /// Advances `c` over every buffered-but-unprocessed tuple, reporting
  /// matches; with `input_ends`, applies the end-of-input rule too.
  /// Returns the governance error when polling stops it (state stays
  /// consistent).
  Status Drain(Cursor& c, bool input_ends);
  /// Recharges `c`'s ledger for the tuples it keeps reachable (none
  /// once retired).
  void Charge(Cursor& c);
  /// Enforces `c`'s budgets against its ledger (or its own charge when
  /// no ledger is shared).
  Status CheckBudget(const Cursor& c) const;
  /// Appends one tuple to the buffer.
  void Append(Row row);
  /// Drops buffer rows no cursor can reach, as one prefix drop of
  /// every column (STRING dictionaries keep only live strings).
  void MaybeEvict();

  Schema schema_;
  Table buffer_;
  /// Identity row index into buffer_, grown incrementally so a cursor's
  /// view needs no O(buffer) copy per push.
  std::vector<int64_t> view_rows_;
  int64_t buffered_bytes_ = 0;
  int64_t base_ = 0;    // absolute position of buffer_ row 0
  int64_t pushed_ = 0;  // total tuples seen
  int64_t peak_buffered_ = 0;
  int64_t peak_buffered_bytes_ = 0;
  std::vector<std::unique_ptr<Cursor>> cursors_;  // by slot; null = none
  std::vector<int> taking_;  // Push scratch: slots taking the tuple
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_STREAM_H_
