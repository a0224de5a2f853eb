#include "engine/backtrack.h"

#include "common/logging.h"
#include "engine/ops_cursor.h"

namespace sqlts {
namespace {

/// DFS over star split points for one attempt.
class Attempt {
 public:
  Attempt(const SequenceView& seq, const PatternPlan& plan,
          SearchStats* stats)
      : seq_(seq), plan_(plan), stats_(stats), spans_(plan.m) {}

  /// Tries to complete a match whose first element starts at `start`;
  /// on success `spans()` holds the match.
  bool TryFrom(int64_t start) {
    spans_.assign(plan_.m, GroupSpan{});
    return Solve(1, start);
  }

  const std::vector<GroupSpan>& spans() const { return spans_; }

 private:
  bool Test(int j, int64_t i) {
    ++stats_->evaluations;
    return TestElement(plan_, nullptr, j, seq_, /*base=*/0, i, spans_,
                       nullptr);
  }

  /// Matches elements j..m starting at input position i.
  bool Solve(int j, int64_t i) {
    if (j > plan_.m) return true;
    if (i >= seq_.size()) return false;
    if (!plan_.star[j]) {
      if (!Test(j, i)) return false;
      spans_[j - 1] = {i, i};
      if (Solve(j + 1, i + 1)) return true;
      spans_[j - 1] = GroupSpan{};
      return false;
    }
    // Star: find the maximal satisfying run, then try split points
    // longest-first (greedy preference keeps agreement with the
    // operational matchers whenever greedy succeeds).
    int64_t len = 0;
    spans_[j - 1] = GroupSpan{};
    while (i + len < seq_.size()) {
      // The star's own predicate may inspect the group built so far.
      spans_[j - 1] = len == 0 ? GroupSpan{} : GroupSpan{i, i + len - 1};
      if (!Test(j, i + len)) break;
      ++len;
    }
    for (int64_t take = len; take >= 1; --take) {
      spans_[j - 1] = {i, i + take - 1};
      if (Solve(j + 1, i + take)) return true;
    }
    spans_[j - 1] = GroupSpan{};
    return false;
  }

  const SequenceView& seq_;
  const PatternPlan& plan_;
  SearchStats* stats_;
  std::vector<GroupSpan> spans_;
};

}  // namespace

std::vector<Match> BacktrackingSearch(const SequenceView& seq,
                                      const PatternPlan& plan,
                                      SearchStats* stats) {
  SQLTS_CHECK(stats != nullptr);
  std::vector<Match> out;
  Attempt attempt(seq, plan, stats);
  int64_t s = 0;
  while (s < seq.size()) {
    if (attempt.TryFrom(s)) {
      Match m;
      m.spans = attempt.spans();
      ++stats->matches;
      s = m.last() + 1;  // left-maximality
      out.push_back(std::move(m));
    } else {
      ++s;
    }
  }
  return out;
}

}  // namespace sqlts
