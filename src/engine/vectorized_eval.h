#ifndef SQLTS_ENGINE_VECTORIZED_EVAL_H_
#define SQLTS_ENGINE_VECTORIZED_EVAL_H_

#include <memory>
#include <vector>

#include "engine/shared_eval.h"
#include "expr/kernel.h"
#include "pattern/compile.h"
#include "types/schema.h"

namespace sqlts {

/// The vectorized predicate-evaluation tier for single-query batch and
/// columnar scans: compiles every vectorizable tuple-local conjunct of
/// a pattern plan into a PredicateKernel once, then hands each matcher
/// an ElementEvaluator that answers element tests from per-block
/// verdict bitmasks — one tight kernel loop per kKernelBlock tuples
/// instead of one interpreter walk per test.  (Streaming answers from
/// the scan group's predicate cache, engine/shared_cache.h.)
///
/// Answer preservation (the ElementEvaluator contract):
///  - An element's predicate is the conjunction of its top-level
///    conjuncts, and under the TRUE-collapsing EvalPredicate a
///    conjunction is TRUE iff every conjunct is TRUE (Kleene: any
///    FALSE or NULL conjunct makes the whole not-TRUE) — so testing
///    conjuncts independently is exact, the same argument the
///    multi-query evaluator relies on.
///  - Kernel conjuncts are tuple-local (relative references only), so
///    their verdict at a position is independent of match state and
///    can be cached per position of the (complete) cluster view.
///  - Non-vectorizable conjuncts (anchored references, strings, ...)
///    are interpreted per test, exactly as before.
class VectorizedPlanEval {
 public:
  /// Compiles kernels for `plan` over `schema`.  Returns nullptr when
  /// no element has a vectorizable conjunct (callers then skip the
  /// tier entirely).  Conjuncts with one PredicateFingerprint (within
  /// and across elements) share one kernel and one verdict cache.
  static std::unique_ptr<VectorizedPlanEval> Create(const PatternPlan& plan,
                                                    const Schema& schema);

  ~VectorizedPlanEval();

  /// One evaluator per matcher (single-threaded use); this factory
  /// object is immutable and safe to call from concurrent shards.
  std::unique_ptr<ElementEvaluator> MakeEvaluator() const;

  /// Distinct kernels compiled (one per verdict cache).
  int num_kernels() const { return num_slots_; }

 private:
  friend class VectorizedElementEvaluator;

  struct Conjunct {
    ExprPtr expr;                            // interpreter form
    const PredicateKernel* kernel = nullptr; // null => interpret per test
    int cache_slot = -1;                     // kernel conjuncts only
  };

  VectorizedPlanEval() = default;

  std::vector<std::vector<Conjunct>> elements_;  // 1-based, like the plan
  std::vector<std::unique_ptr<PredicateKernel>> kernels_;
  int num_slots_ = 0;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_VECTORIZED_EVAL_H_
