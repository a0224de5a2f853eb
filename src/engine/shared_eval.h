#ifndef SQLTS_ENGINE_SHARED_EVAL_H_
#define SQLTS_ENGINE_SHARED_EVAL_H_

#include <vector>

#include "expr/eval.h"
#include "storage/sequence.h"

namespace sqlts {

/// Delegate for pattern-element predicate tests, the seam shared
/// predicate evaluation plugs into (engine/shared_cache.h, used by the
/// streaming engine and the batch multi-query executor): when a matcher
/// runs with an ElementEvaluator, every element test goes through
/// Test() instead of evaluating plan.predicates[j] directly, which lets
/// a workload-level driver answer repeated tests of the same canonical
/// predicate against the same tuple from a shared per-cluster cache.
///
/// Contract: Test(j, seq, pos, spans, abs_pos) must return exactly what
/// EvalPredicate(*plan.predicates[j], {seq, pos, spans}) would — the
/// delegate may only change *how* the answer is produced (memoization,
/// implication inference), never the answer itself.  The matchers'
/// search paths, and therefore their output and SearchStats, are
/// bit-identical with and without a delegate.
///
/// `pos` is the position within `seq` (the matcher's working view);
/// `abs_pos` is the stable position of the same tuple counted from the
/// start of the cluster's stream — equal to `pos` in batch execution,
/// `base + pos` in streaming, where the working view may have evicted a
/// prefix.  Caches must key on `abs_pos`: it names the tuple
/// consistently across queries whose buffers are in different states.
class ElementEvaluator {
 public:
  virtual ~ElementEvaluator() = default;

  /// Evaluates pattern element `j` (1-based) at `pos`; never called for
  /// TRUE elements (plan.predicates[j] == nullptr).
  virtual bool Test(int j, const SequenceView& seq, int64_t pos,
                    const std::vector<GroupSpan>& spans, int64_t abs_pos) = 0;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_SHARED_EVAL_H_
