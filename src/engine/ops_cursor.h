#ifndef SQLTS_ENGINE_OPS_CURSOR_H_
#define SQLTS_ENGINE_OPS_CURSOR_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/governance.h"
#include "engine/checkpoint.h"
#include "engine/matcher.h"

namespace sqlts {

/// Cheap governance polling for the search loops: cancellation is one
/// relaxed atomic load per call; the deadline clock is only consulted
/// every 256 calls.
class GovernancePoller {
 public:
  explicit GovernancePoller(const ExecGovernance* gov) : gov_(gov) {}

  bool ShouldStop() {
    if (gov_ == nullptr) return false;
    if (gov_->cancel.cancel_requested()) return true;
    return (++calls_ & 255) == 0 && gov_->has_deadline() &&
           std::chrono::steady_clock::now() >= gov_->deadline;
  }

 private:
  const ExecGovernance* gov_;
  uint64_t calls_ = 0;
};

/// First set bit at position >= `from` in the candidate bitmap, or `n`
/// when none remains (missing trailing words read as all-clear).
int64_t NextCandidateStart(const std::vector<uint64_t>& words, int64_t from,
                           int64_t n);

/// The element test of every matcher: evaluates pattern element `j`
/// (1-based) at absolute position `pos`, with `spans` (absolute) for
/// anchored references.  `view` position 0 is absolute position `base`:
/// 0 in batch search, the evicted prefix length in streaming, where the
/// spans are translated into `scratch` first.  A non-null `evaluator`
/// answers instead, keyed on the absolute position (engine/shared_eval.h).
bool TestElement(const PatternPlan& plan, ElementEvaluator* evaluator, int j,
                 const SequenceView& view, int64_t base, int64_t pos,
                 const std::vector<GroupSpan>& spans,
                 std::vector<GroupSpan>* scratch);

/// The OPS state machine (Sec 4.2.1, and Sec 5's count-array form for
/// star patterns) that batch OpsSearch and the streaming
/// OpsStreamMatcher both drive: one attempt's state in absolute
/// positions, the shift/next/presatisfied resumption, the end-of-input
/// rule and governance polling.  Callers own the input.
class OpsCursor {
 public:
  enum class Signal {
    kMatch,      // CurrentMatch() is complete; Reset() past it to go on
    kExhausted,  // every position < limit consumed; at end of input, no
                 // attempt can complete any more
    kStopped,    // cancellation or the deadline stopped it
  };

  /// Applies options.governance, .evaluator and .candidate_starts (a
  /// bitmap over positions [0, candidate_extent)); max_matches is the
  /// caller's.  `trace`, when non-null, records every predicate test.
  OpsCursor(const PatternPlan* plan, const SearchOptions& options,
            int64_t candidate_extent = 0, SearchTrace* trace = nullptr);

  /// Runs the attempt over `view` (position 0 = absolute position
  /// `base`) up to position `limit`.  With `input_ends`, `limit` is the
  /// end of the input and the end-of-input rule applies there.
  Signal Advance(const SequenceView& view, int64_t base, int64_t limit,
                 bool input_ends);

  /// Starts a fresh attempt at `new_start`, or at the next candidate
  /// start from there when a candidate bitmap is set.
  void Reset(int64_t new_start);

  Match CurrentMatch() const { return Match{spans_}; }
  int64_t start() const { return start_; }
  const SearchStats& stats() const { return stats_; }

  /// Writes the attempt (start, i, j, presatisfied flag, count array,
  /// spans), then the search statistics.
  void Save(CheckpointWriter* writer) const;
  /// Reads what Save wrote; IoError unless the attempt is one Advance
  /// can reach with 0 <= first <= start <= i <= end.
  Status Restore(CheckpointReader* reader, int64_t first, int64_t end);

 private:
  const PatternPlan* plan_;
  ElementEvaluator* evaluator_;
  const std::vector<uint64_t>* candidate_starts_;
  int64_t candidate_extent_;
  SearchTrace* trace_;
  GovernancePoller poller_;

  // `start_` is the position of the attempt's first tuple; `cnt_[t]`
  // the number of tuples consumed by pattern positions 1..t (the
  // paper's count array); `spans_` the per-element spans.
  int64_t start_ = 0;
  int64_t i_ = 0;
  int j_ = 1;
  std::vector<int64_t> cnt_;
  std::vector<GroupSpan> spans_;
  bool presat_pending_ = false;
  std::vector<GroupSpan> rel_spans_;  // TestElement scratch
  SearchStats stats_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_OPS_CURSOR_H_
