#include "engine/stream.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/eval.h"
#include "storage/sequence.h"

namespace sqlts {

Status CheckStreamRow(const Schema& schema, Row* row) {
  if (static_cast<int>(row->size()) != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row->size()) + " != schema arity " +
        std::to_string(schema.num_columns()));
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (CoerceToColumn(schema.column(c).type, &(*row)[c])) continue;
    return Status::TypeError(
        "stream tuple column '" + schema.column(c).name + "' expects " +
        std::string(TypeKindToString(schema.column(c).type)) + ", got " +
        std::string(TypeKindToString((*row)[c].kind())));
  }
  return Status::OK();
}

StatusOr<int> OpsStreamMatcher::ReachBack(const PatternPlan& plan) {
  int min_offset = 0;
  bool looks_ahead = false;
  for (int j = 1; j <= plan.m; ++j) {
    if (plan.predicates[j] == nullptr) continue;
    VisitColumnRefs(plan.predicates[j], [&](const ColumnRef& r) {
      if (r.relative) {
        min_offset = std::min(min_offset, r.total_offset);
        if (r.total_offset > 0) looks_ahead = true;
      } else if (r.nav_offset < 0) {
        min_offset = std::min(min_offset, r.nav_offset);
      }
    });
  }
  if (looks_ahead) {
    return Status::InvalidArgument(
        "streaming match requires predicates without lookahead "
        "(positive previous/next offsets)");
  }
  return min_offset;
}

StatusOr<OpsStreamMatcher> OpsStreamMatcher::Create(
    const PatternPlan* plan, Schema schema, MatchCallback on_match,
    const ExecGovernance* governance, ResourceLedger* ledger,
    ElementEvaluator* evaluator) {
  SQLTS_CHECK(plan != nullptr);
  SQLTS_ASSIGN_OR_RETURN(int min_offset, ReachBack(*plan));
  OpsStreamMatcher matcher(std::move(schema));
  matcher.AddCursor(0, plan, min_offset, std::move(on_match), governance,
                    ledger, evaluator);
  return matcher;
}

OpsStreamMatcher::OpsStreamMatcher(Schema schema)
    : schema_(schema), buffer_(std::move(schema)) {}

void OpsStreamMatcher::AddCursor(int slot, const PatternPlan* plan,
                                 int min_offset, MatchCallback on_match,
                                 const ExecGovernance* governance,
                                 ResourceLedger* ledger,
                                 ElementEvaluator* evaluator) {
  if (slot >= static_cast<int>(cursors_.size())) cursors_.resize(slot + 1);
  cursors_[slot] = std::make_unique<Cursor>(Cursor{
      plan, min_offset, pushed_, std::move(on_match), governance, ledger,
      OpsCursor(plan, SearchOptions{.governance = governance,
                                    .evaluator = evaluator}),
      0, 0});
  cursors_[slot]->cursor.Reset(pushed_);
}

void OpsStreamMatcher::DropCursor(int slot) {
  if (!has_cursor(slot)) return;
  cursors_[slot]->retired = true;
  Charge(*cursors_[slot]);  // releases its ledger charge
  cursors_[slot].reset();
}

int64_t OpsStreamMatcher::LowestReach() const {
  int64_t reach = pushed_;
  for (const auto& c : cursors_) {
    if (c != nullptr && !c->retired) reach = std::min(reach, Reach(*c));
  }
  return reach;
}

void OpsStreamMatcher::Charge(Cursor& c) {
  const int64_t tuples = c.retired ? 0 : pushed_ - Reach(c);
  const int64_t bytes =
      tuples > 0 ? buffered_bytes_ * tuples / buffer_.num_rows() : 0;
  if (c.ledger != nullptr) {
    c.ledger->buffered_tuples.fetch_add(tuples - c.charged_tuples,
                                        std::memory_order_relaxed);
    c.ledger->buffered_bytes.fetch_add(bytes - c.charged_bytes,
                                       std::memory_order_relaxed);
  }
  c.charged_tuples = tuples;
  c.charged_bytes = bytes;
}

Status OpsStreamMatcher::CheckBudget(const Cursor& c) const {
  const ExecGovernance* gov = c.gov;
  if (gov == nullptr) return Status::OK();
  const int64_t tuples =
      c.ledger != nullptr
          ? c.ledger->buffered_tuples.load(std::memory_order_relaxed)
          : c.charged_tuples;
  const int64_t bytes =
      c.ledger != nullptr
          ? c.ledger->buffered_bytes.load(std::memory_order_relaxed)
          : c.charged_bytes;
  if (gov->max_buffered_tuples > 0 && tuples > gov->max_buffered_tuples) {
    return Status::ResourceExhausted(
        "streaming buffer budget exceeded: " + std::to_string(tuples) +
        " tuples held live (budget " +
        std::to_string(gov->max_buffered_tuples) +
        "); the active pattern attempt cannot release them");
  }
  if (gov->max_buffered_bytes > 0 && bytes > gov->max_buffered_bytes) {
    return Status::ResourceExhausted(
        "streaming byte budget exceeded: ~" + std::to_string(bytes) +
        " bytes held live (budget " +
        std::to_string(gov->max_buffered_bytes) + ")");
  }
  return Status::OK();
}

void OpsStreamMatcher::Append(Row row) {
  buffered_bytes_ += EstimateRowBytes(row);
  SQLTS_CHECK_OK(buffer_.AppendRow(std::move(row)));
  view_rows_.push_back(buffer_.num_rows() - 1);
  ++pushed_;
  peak_buffered_ = std::max(peak_buffered_, buffer_.num_rows());
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes_);
}

Status OpsStreamMatcher::Push(Row row) {
  std::vector<Status> errors(cursors_.size());
  Push(std::move(row), &errors);
  for (Status& st : errors) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void OpsStreamMatcher::Push(Row row, std::vector<Status>* errors) {
  // Governance first: a cursor refused here does not consume the tuple.
  taking_.clear();
  for (size_t k = 0; k < cursors_.size(); ++k) {
    Cursor* c = cursors_[k].get();
    if (c == nullptr || c->retired) continue;
    if (!(*errors)[k].ok()) {
      // Failed earlier: it must neither see later tuples nor keep rows
      // buffered for the cursors that go on.
      c->retired = true;
      Charge(*c);
      continue;
    }
    if (c->gov != nullptr) {
      Status st = c->gov->Check();
      if (st.ok()) st = c->gov->Fault("matcher.append");
      if (!st.ok()) {
        (*errors)[k] = std::move(st);
        continue;
      }
    }
    taking_.push_back(static_cast<int>(k));
  }
  if (taking_.empty()) return;
  Append(std::move(row));
  for (int k : taking_) {
    Cursor& c = *cursors_[k];
    Status st = Drain(c, /*input_ends=*/false);
    Charge(c);
    if (st.ok()) st = CheckBudget(c);
    if (!st.ok()) (*errors)[k] = std::move(st);
  }
  MaybeEvict();
}

Status OpsStreamMatcher::Finish() {
  Status first = Status::OK();
  for (size_t k = 0; k < cursors_.size(); ++k) {
    if (cursors_[k] == nullptr) continue;
    Status st = FinishCursor(static_cast<int>(k));
    if (first.ok()) first = std::move(st);
  }
  return first;
}

Status OpsStreamMatcher::FinishCursor(int slot) {
  Cursor& c = *cursors_[slot];
  return c.retired ? Status::OK() : Drain(c, /*input_ends=*/true);
}

Status OpsStreamMatcher::Drain(Cursor& c, bool input_ends) {
  // The cursor's view starts at its reach (never below the evicted
  // prefix): nothing this drain tests or projects lies before it, and
  // the tuples kept for other cursors stay out of sight.
  const int64_t first = Reach(c);
  const SequenceView view(&buffer_, &view_rows_, first - base_);
  while (true) {
    const OpsCursor::Signal signal =
        c.cursor.Advance(view, first, pushed_, input_ends);
    if (signal == OpsCursor::Signal::kExhausted) return Status::OK();
    if (signal == OpsCursor::Signal::kStopped) return c.gov->Check();
    const Match match = c.cursor.CurrentMatch();
    if (c.on_match) c.on_match(match, view, first);
    c.cursor.Reset(match.last() + 1);
  }
}

void OpsStreamMatcher::MaybeEvict() {
  // Everything before the earliest position any cursor's tests (or its
  // anchored references) can reach is dead.
  const int64_t waste = LowestReach() - base_;
  if (waste < 4096 || waste < buffer_.num_rows() / 2) return;
  // EstimateRowBytes summed over the dead rows, read from the slots.
  int64_t bytes = waste * static_cast<int64_t>(
                              sizeof(Value) * (schema_.num_columns() + 1));
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const Column& col = buffer_.column(c);
    if (col.type() != TypeKind::kString) continue;
    for (int64_t r = 0; r < waste; ++r) {
      if (!col.is_null(r)) {
        bytes += static_cast<int64_t>(col.string_at(r).size());
      }
    }
  }
  buffered_bytes_ -= bytes;
  buffer_.DropPrefix(waste);
  view_rows_.resize(buffer_.num_rows());  // still the identity
  base_ += waste;
}

void OpsStreamMatcher::Checkpoint(CheckpointWriter* writer) const {
  // Rows are written once, from the lowest reach: rows below it are dead
  // even if eviction has not dropped them yet.
  const int64_t first = LowestReach();
  writer->WriteI64(pushed_);
  writer->WriteI64(first);
  writer->WriteU64(static_cast<uint64_t>(pushed_ - first));
  for (int64_t r = first - base_; r < buffer_.num_rows(); ++r) {
    writer->WriteRow(buffer_, r);
  }
  uint32_t live = 0;
  for (const auto& c : cursors_) live += c != nullptr ? 1 : 0;
  writer->WriteU32(live);
  for (size_t k = 0; k < cursors_.size(); ++k) {
    const Cursor* c = cursors_[k].get();
    if (c == nullptr) continue;
    // Plan fingerprint first, so restoring against a different pattern
    // shape fails loudly instead of resuming into inconsistent state.
    writer->WriteU32(static_cast<uint32_t>(k));
    writer->WriteU32(static_cast<uint32_t>(c->plan->m));
    writer->WriteI64(c->min_offset);
    writer->WriteI64(c->floor);
    c->cursor.Save(writer);
  }
}

Status OpsStreamMatcher::RestoreState(
    CheckpointReader* reader,
    const std::function<Status(int slot)>& add_cursor) {
  if (pushed_ != 0) {
    return Status::InvalidArgument(
        "RestoreState requires a freshly created matcher");
  }
  SQLTS_ASSIGN_OR_RETURN(int64_t pushed, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(int64_t first, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  if (first < 0 || first > pushed ||
      rows != static_cast<uint64_t>(pushed - first)) {
    return Status::IoError("checkpoint buffer disagrees with its position");
  }
  for (uint64_t r = 0; r < rows; ++r) {
    SQLTS_ASSIGN_OR_RETURN(Row row, reader->ReadRow());
    // A checksum-valid payload may still carry a row the schema refuses;
    // that is corruption, not a caller's type error.
    Status fits = CheckStreamRow(schema_, &row);
    if (!fits.ok()) {
      return Status::IoError("checkpoint row " + std::to_string(r) +
                             " does not fit the schema: " + fits.message());
    }
    Append(std::move(row));
  }
  base_ = first;
  pushed_ = pushed;
  SQLTS_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  for (uint32_t n = 0; n < count; ++n) {
    SQLTS_ASSIGN_OR_RETURN(uint32_t saved_slot, reader->ReadU32());
    const int slot = static_cast<int>(saved_slot);
    if (add_cursor != nullptr) SQLTS_RETURN_IF_ERROR(add_cursor(slot));
    if (!has_cursor(slot)) {
      return Status::IoError("checkpoint names cursor " +
                             std::to_string(saved_slot) +
                             ", which this matcher does not have");
    }
    Cursor& c = *cursors_[slot];
    SQLTS_ASSIGN_OR_RETURN(uint32_t m, reader->ReadU32());
    if (static_cast<int>(m) != c.plan->m) {
      return Status::InvalidArgument(
          "checkpoint pattern has " + std::to_string(m) +
          " elements, plan has " + std::to_string(c.plan->m));
    }
    SQLTS_ASSIGN_OR_RETURN(int64_t min_offset, reader->ReadI64());
    if (min_offset != c.min_offset) {
      return Status::InvalidArgument(
          "checkpoint predicate window disagrees with the compiled plan");
    }
    SQLTS_ASSIGN_OR_RETURN(c.floor, reader->ReadI64());
    SQLTS_RETURN_IF_ERROR(c.cursor.Restore(reader, c.floor, pushed_));
    if (Reach(c) < first) {
      return Status::IoError("checkpoint cursor reaches below its rows");
    }
    Charge(c);
  }
  return Status::OK();
}

}  // namespace sqlts
