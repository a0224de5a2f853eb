#include "engine/matcher.h"

#include "common/logging.h"
#include "engine/ops_cursor.h"

namespace sqlts {

std::string Match::ToString() const {
  std::string out = "[";
  for (size_t e = 0; e < spans.size(); ++e) {
    if (e) out += " ";
    out += std::to_string(spans[e].first) + ".." +
           std::to_string(spans[e].last);
  }
  out += "]";
  return out;
}

std::vector<Match> NaiveSearch(const SequenceView& seq,
                               const PatternPlan& plan, SearchStats* stats,
                               SearchTrace* trace,
                               const SearchOptions& options) {
  SQLTS_CHECK(stats != nullptr);
  const int m = plan.m;
  const int64_t n = seq.size();
  std::vector<Match> matches;

  GovernancePoller poller(options.governance);
  int64_t s = 0;
  while (s < n) {
    if (poller.ShouldStop()) break;
    if (options.max_matches > 0 &&
        static_cast<int64_t>(matches.size()) >= options.max_matches) {
      break;
    }
    if (options.candidate_starts != nullptr) {
      s = NextCandidateStart(*options.candidate_starts, s, n);
      if (s >= n) break;
    }
    // One greedy attempt starting at s.
    std::vector<GroupSpan> spans(m);
    int j = 1;
    int64_t i = s;
    bool matched = false;
    bool failed = false;
    while (true) {
      if (j > m) {
        matched = true;
        break;
      }
      if (i >= n) {
        // End of input: an open star group on the last element closes
        // the match; anything else fails.
        if (j == m && plan.star[m] && spans[m - 1].valid()) {
          matched = true;
        } else {
          failed = true;
        }
        break;
      }
      ++stats->evaluations;
      if (trace != nullptr) trace->push_back({i, j});
      const bool sat = TestElement(plan, options.evaluator, j, seq,
                                   /*base=*/0, i, spans, nullptr);
      if (sat) {
        if (!spans[j - 1].valid()) spans[j - 1].first = i;
        spans[j - 1].last = i;
        ++i;
        if (!plan.star[j]) ++j;
        continue;
      }
      if (plan.star[j] && spans[j - 1].valid()) {
        // Star already satisfied at least once: close the group and
        // retest this tuple against the following element.
        ++j;
        continue;
      }
      failed = true;
      break;
    }
    if (matched) {
      Match match;
      match.spans = std::move(spans);
      s = match.last() + 1;  // left-maximality: skip overlapping starts
      ++stats->matches;
      matches.push_back(std::move(match));
    } else {
      SQLTS_DCHECK(failed);
      ++s;
    }
  }
  return matches;
}

std::vector<Match> OpsSearch(const SequenceView& seq,
                             const PatternPlan& plan, SearchStats* stats,
                             SearchTrace* trace,
                             const SearchOptions& options) {
  SQLTS_CHECK(stats != nullptr);
  const int64_t n = seq.size();
  std::vector<Match> matches;
  OpsCursor cursor(&plan, options, /*candidate_extent=*/n, trace);
  while (cursor.Advance(seq, /*base=*/0, n, /*input_ends=*/true) ==
         OpsCursor::Signal::kMatch) {
    matches.push_back(cursor.CurrentMatch());
    if (options.max_matches > 0 &&
        static_cast<int64_t>(matches.size()) >= options.max_matches) {
      break;
    }
    // Left-maximality: no overlapping matches.
    cursor.Reset(matches.back().last() + 1);
  }
  *stats += cursor.stats();
  return matches;
}

}  // namespace sqlts
