#include "engine/ops_cursor.h"

#include <algorithm>
#include <bit>

#include "common/statusor.h"
#include "expr/eval.h"

namespace sqlts {

int64_t NextCandidateStart(const std::vector<uint64_t>& words, int64_t from,
                           int64_t n) {
  if (from < 0) from = 0;
  while (from < n) {
    const size_t w = static_cast<size_t>(from >> 6);
    if (w >= words.size()) return n;
    const uint64_t bits = words[w] >> (from & 63);
    if (bits != 0) {
      from += std::countr_zero(bits);
      return from < n ? from : n;
    }
    from = (from | 63) + 1;
  }
  return n;
}

bool TestElement(const PatternPlan& plan, ElementEvaluator* evaluator, int j,
                 const SequenceView& view, int64_t base, int64_t pos,
                 const std::vector<GroupSpan>& spans,
                 std::vector<GroupSpan>* scratch) {
  const ExprPtr& pred = plan.predicates[j];
  if (pred == nullptr) return true;  // TRUE element
  const std::vector<GroupSpan>* local = &spans;
  if (base != 0) {
    scratch->resize(spans.size());
    for (size_t e = 0; e < spans.size(); ++e) {
      (*scratch)[e] = spans[e].valid() ? GroupSpan{spans[e].first - base,
                                                   spans[e].last - base}
                                       : GroupSpan{};
    }
    local = scratch;
  }
  if (evaluator != nullptr) {
    return evaluator->Test(j, view, pos - base, *local, /*abs_pos=*/pos);
  }
  EvalContext ctx;
  ctx.seq = &view;
  ctx.pos = pos - base;
  ctx.spans = local;
  return EvalPredicate(*pred, ctx);
}

OpsCursor::OpsCursor(const PatternPlan* plan, const SearchOptions& options,
                     int64_t candidate_extent, SearchTrace* trace)
    : plan_(plan),
      evaluator_(options.evaluator),
      candidate_starts_(options.candidate_starts),
      candidate_extent_(candidate_extent),
      trace_(trace),
      poller_(options.governance),
      cnt_(plan->m + 1, 0),
      spans_(plan->m) {
  Reset(0);
}

void OpsCursor::Reset(int64_t new_start) {
  if (candidate_starts_ != nullptr) {
    // Attempts never begin at a position the prefilter refuted.  The
    // rebase path stays unfiltered: a retained-but-doomed start just
    // fails on its own, which is slower but equally correct.
    new_start =
        NextCandidateStart(*candidate_starts_, new_start, candidate_extent_);
  }
  start_ = new_start;
  i_ = new_start;
  j_ = 1;
  std::fill(cnt_.begin(), cnt_.end(), 0);
  std::fill(spans_.begin(), spans_.end(), GroupSpan{});
  presat_pending_ = false;
}

OpsCursor::Signal OpsCursor::Advance(const SequenceView& view, int64_t base,
                                     int64_t limit, bool input_ends) {
  const PatternPlan& plan = *plan_;
  const int m = plan.m;
  const SearchTables& tables = plan.tables;
  while (true) {
    if (poller_.ShouldStop()) return Signal::kStopped;
    if (j_ > m) {
      ++stats_.matches;
      return Signal::kMatch;
    }
    if (i_ >= limit) {
      if (!input_ends) return Signal::kExhausted;
      // End of input: an open star group on the last element closes the
      // match.
      if (j_ == m && plan.star[m] && cnt_[m] > cnt_[m - 1]) {
        ++stats_.matches;
        return Signal::kMatch;
      }
      // Otherwise the tables don't apply (nothing tested false).  With a
      // star a later start may still fit, its groups consuming fewer
      // tuples, so restart one tuple forward as the naive engine does.
      // Star-free attempts would run out even sooner, and tuple-local
      // patterns (no anchored refs) replay the same per-tuple outcomes:
      // both stop.
      if (plan.has_star && plan.anchored_refs && start_ + 1 < limit) {
        Reset(start_ + 1);
        continue;
      }
      return Signal::kExhausted;
    }

    bool sat;
    if (presat_pending_) {
      // φ = 1 on the failing element: known satisfied, no test needed.
      sat = true;
      presat_pending_ = false;
      ++stats_.presat_skips;
    } else {
      ++stats_.evaluations;
      if (trace_ != nullptr) trace_->push_back({i_, j_});
      sat = TestElement(plan, evaluator_, j_, view, base, i_, spans_,
                        &rel_spans_);
    }

    if (sat) {
      if (cnt_[j_] == cnt_[j_ - 1]) spans_[j_ - 1].first = i_;  // opens
      ++cnt_[j_];
      spans_[j_ - 1].last = i_;
      ++i_;
      if (!plan.star[j_]) {
        ++j_;
        if (j_ <= m) cnt_[j_] = cnt_[j_ - 1];
      }
      continue;
    }

    if (plan.star[j_] && cnt_[j_] > cnt_[j_ - 1]) {
      // Star group already non-empty: close it; same tuple is retested
      // against the next element (Sec 5 runtime rule 1).
      ++j_;
      if (j_ <= m) cnt_[j_] = cnt_[j_ - 1];
      continue;
    }

    // Mismatch: consult the compiled tables (Sec 5 runtime rule 2).
    ++stats_.jumps;
    const int s = tables.shift[j_];
    const int nx = tables.next[j_];
    if (nx == 0) {
      // No overlap can succeed: restart just past the failing tuple.
      // (At this point i == start + cnt[j-1]: the failing tuple.)
      Reset(i_ + 1);
      continue;
    }
    // Star shift guard: the implication graph refutes restarts at
    // whole-group boundaries only, and shift == 1 keeps node (2,1)
    // viable — which (via the trivially-true node (1,1)) leaves every
    // tuple *inside* a multi-tuple first star group a candidate start.
    // Rebasing would jump past them all, so restart one tuple forward as
    // the naive engine would.  (Shift ≥ 2 refutes those restarts.)  Only
    // anchored patterns need this: tuple-local ones replay the same
    // outcomes from an interior start and fail at the same place.
    if (s == 1 && plan.star[1] && cnt_[1] > 1 && plan.anchored_refs) {
      Reset(start_ + 1);
      continue;
    }
    // Rebase the attempt in place: new position t maps onto old
    // position s + t (t < s + t, so each read precedes its overwrite).
    // The presatisfied flag belongs to the *failure* position j, not to
    // the resumption position nx.
    presat_pending_ = tables.presatisfied[j_];
    const int64_t consumed = cnt_[s];
    i_ = start_ + cnt_[s + nx - 1];
    start_ += consumed;
    for (int t = 1; t < nx; ++t) {
      cnt_[t] = cnt_[s + t] - consumed;
      spans_[t - 1] = spans_[s + t - 1];
    }
    cnt_[nx] = cnt_[nx - 1];
    std::fill(cnt_.begin() + nx + 1, cnt_.end(), 0);
    std::fill(spans_.begin() + nx - 1, spans_.end(), GroupSpan{});
    j_ = nx;
  }
}

void OpsCursor::Save(CheckpointWriter* writer) const {
  writer->WriteI64(start_);
  writer->WriteI64(i_);
  writer->WriteU32(static_cast<uint32_t>(j_));
  writer->WriteBool(presat_pending_);
  writer->WriteU32(static_cast<uint32_t>(cnt_.size()));
  for (int64_t c : cnt_) writer->WriteI64(c);
  writer->WriteU32(static_cast<uint32_t>(spans_.size()));
  for (const GroupSpan& s : spans_) {
    writer->WriteI64(s.first);
    writer->WriteI64(s.last);
  }
  for (int64_t c : {stats_.evaluations, stats_.presat_skips, stats_.jumps,
                    stats_.matches}) {
    writer->WriteI64(c);
  }
}

Status OpsCursor::Restore(CheckpointReader* reader, int64_t first,
                          int64_t end) {
  SQLTS_ASSIGN_OR_RETURN(start_, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(i_, reader->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint32_t j, reader->ReadU32());
  SQLTS_ASSIGN_OR_RETURN(presat_pending_, reader->ReadBool());
  SQLTS_ASSIGN_OR_RETURN(uint32_t cnt_size, reader->ReadU32());
  if (cnt_size != cnt_.size()) {
    return Status::IoError("checkpoint counter array size mismatch");
  }
  for (int64_t& c : cnt_) {
    SQLTS_ASSIGN_OR_RETURN(c, reader->ReadI64());
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t span_count, reader->ReadU32());
  if (span_count != spans_.size()) {
    return Status::IoError("checkpoint span array size mismatch");
  }
  for (GroupSpan& s : spans_) {
    SQLTS_ASSIGN_OR_RETURN(s.first, reader->ReadI64());
    SQLTS_ASSIGN_OR_RETURN(s.last, reader->ReadI64());
  }
  for (int64_t* c : {&stats_.evaluations, &stats_.presat_skips,
                     &stats_.jumps, &stats_.matches}) {
    SQLTS_ASSIGN_OR_RETURN(*c, reader->ReadI64());
  }
  // Only a state Advance can reach may resume: anything else indexes
  // the count array out of range or walks positions never pushed.
  const int m = plan_->m;
  bool ok = j >= 1 && j <= static_cast<uint32_t>(m) + 1 && 0 <= first &&
            first <= start_ && start_ <= i_ && i_ <= end && cnt_[0] == 0;
  j_ = ok ? static_cast<int>(j) : 1;
  const int top = std::min(j_, m);
  for (int t = 1; ok && t <= top; ++t) ok = cnt_[t - 1] <= cnt_[t];
  ok = ok && cnt_[top] == i_ - start_;
  for (const GroupSpan& s : spans_) {
    ok = ok && (!s.valid() || (start_ <= s.first && s.first <= s.last &&
                               s.last < i_));
  }
  if (!ok) return Status::IoError("checkpoint attempt state is inconsistent");
  return Status::OK();
}

}  // namespace sqlts
