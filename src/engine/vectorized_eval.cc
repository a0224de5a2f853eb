#include "engine/vectorized_eval.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "expr/eval.h"

namespace sqlts {

VectorizedPlanEval::~VectorizedPlanEval() = default;

std::unique_ptr<VectorizedPlanEval> VectorizedPlanEval::Create(
    const PatternPlan& plan, const Schema& schema) {
  auto out = std::unique_ptr<VectorizedPlanEval>(new VectorizedPlanEval());
  out->elements_.resize(plan.predicates.size());
  // Dedup by rendered form: identical conjuncts (common across the
  // elements of one pattern, e.g. symmetric halves of a double bottom)
  // share one kernel and one per-cluster verdict cache.
  std::map<std::string, std::pair<const PredicateKernel*, int>> dedup;
  bool any = false;
  for (size_t j = 1; j < plan.predicates.size(); ++j) {
    if (plan.predicates[j] == nullptr) continue;
    std::vector<ExprPtr> conjuncts;
    FlattenConjuncts(plan.predicates[j], &conjuncts);
    for (ExprPtr& c : conjuncts) {
      Conjunct entry;
      entry.expr = c;
      std::string key = c->ToString();
      auto it = dedup.find(key);
      if (it != dedup.end()) {
        entry.kernel = it->second.first;
        entry.cache_slot = it->second.second;
      } else {
        auto kernel = PredicateKernel::Compile(c, schema);
        if (kernel != nullptr) {
          entry.kernel = kernel.get();
          entry.cache_slot = out->num_slots_++;
          out->kernels_.push_back(std::move(kernel));
        }
        dedup.emplace(std::move(key),
                      std::make_pair(entry.kernel, entry.cache_slot));
      }
      if (entry.kernel != nullptr) any = true;
      out->elements_[j].push_back(std::move(entry));
    }
  }
  if (!any) return nullptr;
  return out;
}

/// Per-matcher evaluator: block-cached kernel verdicts plus the
/// interpreter for everything else.  Single-threaded by contract.
/// Defined at namespace scope (not anonymous) so the header's friend
/// declaration names this exact class.
class VectorizedElementEvaluator final : public ElementEvaluator {
 public:
  explicit VectorizedElementEvaluator(const VectorizedPlanEval* plan)
      : plan_(plan), slots_(plan->num_slots_) {}

  bool Test(int j, const SequenceView& seq, int64_t pos,
            const std::vector<GroupSpan>& spans, int64_t) override {
    const auto& conjuncts = plan_->elements_[j];
    SQLTS_CHECK(!conjuncts.empty()) << "Test on TRUE element " << j;
    for (const auto& c : conjuncts) {
      bool sat;
      if (c.kernel != nullptr) {
        sat = TestKernel(c, seq, pos);
      } else {
        EvalContext ctx;
        ctx.seq = &seq;
        ctx.pos = pos;
        ctx.spans = &spans;
        sat = EvalPredicate(*c.expr, ctx);
      }
      if (!sat) return false;  // conjunction: first non-TRUE decides
    }
    return true;
  }

 private:
  bool TestKernel(const VectorizedPlanEval::Conjunct& c,
                  const SequenceView& seq, int64_t pos) {
    const int64_t pos0 = pos / kKernelBlock * kKernelBlock;
    auto [block, fresh] = slots_[c.cache_slot].try_emplace(pos0);
    if (fresh) {
      // The batch view is complete: one sweep fills the block for good.
      const int lane_end =
          static_cast<int>(std::min<int64_t>(kKernelBlock, seq.size() - pos0));
      c.kernel->EvalBlock(seq, pos0, 0, lane_end, &scratch_, &block->second);
    }
    return block->second.True(static_cast<int>(pos - pos0));
  }

  const VectorizedPlanEval* plan_;
  /// Per kernel slot: verdict blocks keyed by their first position.
  std::vector<std::unordered_map<int64_t, BlockVerdict>> slots_;
  KernelScratch scratch_;
};

std::unique_ptr<ElementEvaluator> VectorizedPlanEval::MakeEvaluator() const {
  return std::make_unique<VectorizedElementEvaluator>(this);
}

}  // namespace sqlts
