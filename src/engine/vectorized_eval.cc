#include "engine/vectorized_eval.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "engine/predicate_catalog.h"
#include "expr/eval.h"

namespace sqlts {

VectorizedPlanEval::~VectorizedPlanEval() = default;

std::unique_ptr<VectorizedPlanEval> VectorizedPlanEval::Create(
    const PatternPlan& plan, const Schema& schema) {
  auto out = std::unique_ptr<VectorizedPlanEval>(new VectorizedPlanEval());
  out->elements_.resize(plan.predicates.size());
  // Dedup by structure: conjuncts with one PredicateFingerprint (the
  // same ops, literals, columns and offsets, whatever their variable
  // names, e.g. the symmetric halves of a double bottom) share one
  // kernel and one per-cluster verdict cache.  Sound because a kernel
  // conjunct is tuple-local: its verdict depends on the position only.
  std::map<std::string, std::pair<const PredicateKernel*, int>> dedup;
  bool any = false;
  for (size_t j = 1; j < plan.predicates.size(); ++j) {
    if (plan.predicates[j] == nullptr) continue;
    std::vector<ExprPtr> conjuncts;
    FlattenConjuncts(plan.predicates[j], &conjuncts);
    for (ExprPtr& c : conjuncts) {
      Conjunct entry;
      entry.expr = c;
      std::string key = PredicateFingerprint(c);
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
/// interpreter for everything else.  Single-threaded by contract, and
/// bound to the one view its matcher scans: verdicts are cached per
/// position.  Defined at namespace scope (not anonymous) so the
/// header's friend declaration names this exact class.
class VectorizedElementEvaluator final : public ElementEvaluator {
 public:
  explicit VectorizedElementEvaluator(const VectorizedPlanEval* plan)
      : plan_(plan) {}

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
    if (blocks_ == nullptr) {
      // Sized from the view on first use: one block per kKernelBlock
      // positions for every kernel slot.
      num_blocks_ = (seq.size() + kKernelBlock - 1) / kKernelBlock;
      const int64_t total = num_blocks_ * plan_->num_slots_;
      blocks_ = std::make_unique_for_overwrite<BlockVerdict[]>(total);
      filled_.assign((total + 63) / 64, 0);
    }
    const int64_t b = pos / kKernelBlock;
    SQLTS_CHECK(b < num_blocks_) << "position " << pos << " past the view";
    const int64_t i = c.cache_slot * num_blocks_ + b;
    BlockVerdict& block = blocks_[i];
    if (((filled_[i >> 6] >> (i & 63)) & 1) == 0) {
      // The batch view is complete: one sweep fills the block for good.
      const int64_t pos0 = b * kKernelBlock;
      const int lane_end =
          static_cast<int>(std::min<int64_t>(kKernelBlock, seq.size() - pos0));
      c.kernel->EvalBlock(seq, pos0, 0, lane_end, &scratch_, &block);
      filled_[i >> 6] |= uint64_t{1} << (i & 63);
    }
    return block.True(static_cast<int>(pos - b * kKernelBlock));
  }

  const VectorizedPlanEval* plan_;
  /// Verdict block b of kernel slot s at [s * num_blocks_ + b]; a bit
  /// of filled_ per block says it has been evaluated.
  int64_t num_blocks_ = 0;
  std::unique_ptr<BlockVerdict[]> blocks_;
  std::vector<uint64_t> filled_;
  KernelScratch scratch_;
};

std::unique_ptr<ElementEvaluator> VectorizedPlanEval::MakeEvaluator() const {
  return std::make_unique<VectorizedElementEvaluator>(this);
}

}  // namespace sqlts
