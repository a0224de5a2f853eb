#include "engine/stream.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/eval.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

/// Most negative relative offset used by any predicate of the plan
/// (0 when none), and whether any predicate looks ahead.
void ScanOffsets(const PatternPlan& plan, int* min_offset,
                 bool* looks_ahead) {
  *min_offset = 0;
  *looks_ahead = false;
  for (int j = 1; j <= plan.m; ++j) {
    if (plan.predicates[j] == nullptr) continue;
    VisitColumnRefs(plan.predicates[j], [&](const ColumnRef& r) {
      if (r.relative) {
        *min_offset = std::min(*min_offset, r.total_offset);
        if (r.total_offset > 0) *looks_ahead = true;
      } else if (r.nav_offset < 0) {
        *min_offset = std::min(*min_offset, r.nav_offset);
      }
    });
  }
}

}  // namespace

StatusOr<OpsStreamMatcher> OpsStreamMatcher::Create(
    const PatternPlan* plan, Schema schema, MatchCallback on_match,
    const ExecGovernance* governance, ResourceLedger* ledger,
    ElementEvaluator* evaluator) {
  SQLTS_CHECK(plan != nullptr);
  int min_offset = 0;
  bool looks_ahead = false;
  ScanOffsets(*plan, &min_offset, &looks_ahead);
  if (looks_ahead) {
    return Status::InvalidArgument(
        "streaming match requires predicates without lookahead "
        "(positive previous/next offsets)");
  }
  return OpsStreamMatcher(plan, std::move(schema), std::move(on_match),
                          min_offset, governance, ledger, evaluator);
}

OpsStreamMatcher::OpsStreamMatcher(const PatternPlan* plan, Schema schema,
                                   MatchCallback on_match, int min_offset,
                                   const ExecGovernance* governance,
                                   ResourceLedger* ledger,
                                   ElementEvaluator* evaluator)
    : plan_(plan),
      schema_(schema),
      on_match_(std::move(on_match)),
      min_offset_(min_offset),
      gov_(governance),
      ledger_(ledger),
      buffer_(schema),
      cursor_(plan, SearchOptions{.governance = governance,
                                  .evaluator = evaluator}) {}

void OpsStreamMatcher::Account(int64_t tuples, int64_t bytes) {
  buffered_bytes_ += bytes;
  peak_buffered_ = std::max(peak_buffered_, buffer_.num_rows());
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes_);
  if (ledger_ != nullptr) {
    ledger_->buffered_tuples.fetch_add(tuples, std::memory_order_relaxed);
    ledger_->buffered_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

Status OpsStreamMatcher::CheckBudget() const {
  if (gov_ == nullptr) return Status::OK();
  const int64_t tuples =
      ledger_ != nullptr
          ? ledger_->buffered_tuples.load(std::memory_order_relaxed)
          : buffer_.num_rows();
  const int64_t bytes =
      ledger_ != nullptr
          ? ledger_->buffered_bytes.load(std::memory_order_relaxed)
          : buffered_bytes_;
  if (gov_->max_buffered_tuples > 0 && tuples > gov_->max_buffered_tuples) {
    return Status::ResourceExhausted(
        "streaming buffer budget exceeded: " + std::to_string(tuples) +
        " tuples held live (budget " +
        std::to_string(gov_->max_buffered_tuples) +
        "); the active pattern attempt cannot release them");
  }
  if (gov_->max_buffered_bytes > 0 && bytes > gov_->max_buffered_bytes) {
    return Status::ResourceExhausted(
        "streaming byte budget exceeded: ~" + std::to_string(bytes) +
        " bytes held live (budget " +
        std::to_string(gov_->max_buffered_bytes) + ")");
  }
  return Status::OK();
}

Status OpsStreamMatcher::Push(Row row) {
  if (gov_ != nullptr) {
    SQLTS_RETURN_IF_ERROR(gov_->Check());
    SQLTS_RETURN_IF_ERROR(gov_->Fault("matcher.append"));
  }
  const int64_t row_bytes = EstimateRowBytes(row);
  SQLTS_RETURN_IF_ERROR(buffer_.AppendRow(std::move(row)));
  view_rows_.push_back(buffer_.num_rows() - 1);
  ++pushed_;
  Account(+1, row_bytes);
  SQLTS_RETURN_IF_ERROR(Drain(/*input_ends=*/false));
  MaybeEvict();
  return CheckBudget();
}

Status OpsStreamMatcher::Finish() { return Drain(/*input_ends=*/true); }

Status OpsStreamMatcher::Drain(bool input_ends) {
  // A buffer-relative view borrowing the incrementally-grown index.
  const SequenceView view(&buffer_, &view_rows_);
  while (true) {
    const OpsCursor::Signal signal =
        cursor_.Advance(view, base_, pushed_, input_ends);
    if (signal == OpsCursor::Signal::kExhausted) return Status::OK();
    if (signal == OpsCursor::Signal::kStopped) return gov_->Check();
    const Match match = cursor_.CurrentMatch();
    if (on_match_) on_match_(match, view, base_);
    cursor_.Reset(match.last() + 1);
  }
}

void OpsStreamMatcher::MaybeEvict() {
  // Everything before the earliest position any test of the active
  // attempt (or its anchored references) can reach is dead.
  const int64_t reachable_from = cursor_.start() + min_offset_;
  const int64_t waste = reachable_from - base_;
  if (waste < 4096 || waste < buffer_.num_rows() / 2) return;
  int64_t freed_bytes = 0;
  for (int64_t r = 0; r < waste; ++r) {
    freed_bytes += EstimateRowBytes(buffer_.GetRow(r));
  }
  Table compacted(schema_);
  for (int64_t r = waste; r < buffer_.num_rows(); ++r) {
    SQLTS_CHECK_OK(compacted.AppendRow(buffer_.GetRow(r)));
  }
  buffer_ = std::move(compacted);
  view_rows_.resize(buffer_.num_rows());
  for (int64_t r = 0; r < buffer_.num_rows(); ++r) view_rows_[r] = r;
  base_ += waste;
  Account(-waste, -freed_bytes);
}

void OpsStreamMatcher::Checkpoint(CheckpointWriter* writer) const {
  // Plan fingerprint first, so restoring against a different pattern
  // shape fails loudly instead of resuming into inconsistent state.
  writer->WriteU32(static_cast<uint32_t>(plan_->m));
  writer->WriteI64(min_offset_);
  writer->WriteI64(base_);
  writer->WriteI64(pushed_);
  cursor_.Save(writer);
  writer->WriteU64(static_cast<uint64_t>(buffer_.num_rows()));
  for (int64_t r = 0; r < buffer_.num_rows(); ++r) {
    writer->WriteRow(buffer_.GetRow(r));
  }
}

Status OpsStreamMatcher::RestoreState(CheckpointReader* reader) {
  if (pushed_ != 0) {
    return Status::InvalidArgument(
        "RestoreState requires a freshly created matcher");
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t m, reader->ReadU32());
  if (static_cast<int>(m) != plan_->m) {
    return Status::InvalidArgument(
        "checkpoint pattern has " + std::to_string(m) +
        " elements, plan has " + std::to_string(plan_->m));
  }
  SQLTS_ASSIGN_OR_RETURN(int64_t min_offset, reader->ReadI64());
  if (static_cast<int>(min_offset) != min_offset_) {
    return Status::InvalidArgument(
        "checkpoint predicate window disagrees with the compiled plan");
  }
  SQLTS_ASSIGN_OR_RETURN(base_, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(pushed_, reader->ReadI64());
  SQLTS_RETURN_IF_ERROR(cursor_.Restore(reader, base_, pushed_));
  SQLTS_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  if (rows != static_cast<uint64_t>(pushed_ - base_)) {
    return Status::IoError("checkpoint buffer disagrees with its position");
  }
  for (uint64_t r = 0; r < rows; ++r) {
    SQLTS_ASSIGN_OR_RETURN(Row row, reader->ReadRow());
    const int64_t row_bytes = EstimateRowBytes(row);
    SQLTS_RETURN_IF_ERROR(buffer_.AppendRow(std::move(row)));
    view_rows_.push_back(buffer_.num_rows() - 1);
    Account(+1, row_bytes);
  }
  return Status::OK();
}

}  // namespace sqlts
