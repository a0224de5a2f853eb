#include "engine/shared_cache.h"

#include <algorithm>

namespace sqlts {

QueryConjuncts RegisterQueryConjuncts(const CompiledQuery& query,
                                      SharedPredicateCatalog* catalog) {
  QueryConjuncts out;
  out.elements.resize(query.elements.size() + 1);
  for (size_t i = 0; i < query.elements.size(); ++i) {
    for (const ExprPtr& c : query.elements[i].conjuncts) {
      QueryConjuncts::Conjunct entry;
      entry.expr = c;
      entry.shared_id = catalog->Register(c);
      out.elements[i + 1].push_back(std::move(entry));
    }
  }
  return out;
}

StatusOr<std::string> ScanGroupSignature(const Schema& schema,
                                         const CompiledQuery& query) {
  std::string sig = "c";
  for (const std::string& name : query.cluster_by) {
    SQLTS_ASSIGN_OR_RETURN(int col, schema.FindColumn(name));
    sig += ":" + std::to_string(col);
  }
  sig += "|s";
  for (const std::string& name : query.sequence_by) {
    SQLTS_ASSIGN_OR_RETURN(int col, schema.FindColumn(name));
    sig += ":" + std::to_string(col);
  }
  return sig;
}

SharedClusterCache::SharedClusterCache(const SharedPredicateCatalog* catalog,
                                       int64_t window, bool kernels)
    : catalog_(catalog), window_(window < 1 ? 1 : window), kernels_(kernels) {}

bool SharedClusterCache::Test(int pred_id, const EvalContext& ctx,
                              int64_t abs_pos,
                              MultiQueryCounters* counters) {
  counters->shared_lookups.fetch_add(1, std::memory_order_relaxed);
  // The catalog can grow between batches (AddQuery); rings follow.
  if (static_cast<int>(rings_.size()) < catalog_->size()) {
    rings_.resize(catalog_->size());
  }
  std::vector<Slot>& ring = Ring(pred_id);
  Slot& slot = ring[abs_pos % window_];
  if (slot.holds(abs_pos)) {
    counters->cache_hits.fetch_add(1, std::memory_order_relaxed);
    if (slot.inferred()) {
      counters->inferred_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return slot.val();
  }
  counters->shared_evals.fetch_add(1, std::memory_order_relaxed);
  const SharedPredicate& pred = catalog_->predicate(pred_id);
  // A TRUE verdict certifies every read value exists; predicates the
  // catalog proves implied (with reference subsets) are TRUE there too.
  auto seed_implied = [&](int64_t at) {
    for (int q : pred.implies) {
      Slot& qslot = Ring(q)[at % window_];
      if (!qslot.holds(at)) qslot.Set(at, true, true);
    }
  };

  if (kernels_ && pred.kernel != nullptr) {
    // Vectorized fill: one kernel sweep computes a contiguous run of
    // verdicts starting at the missed position.  Every filled position
    // p' >= ctx.pos lies in the current view, and since p' + off is
    // bracketed by ctx.pos + min_offset (>= 0, the matcher only tests
    // positions whose references are buffered) and p' (< size), each
    // verdict reads only live cells — so it equals what the interpreter
    // would answer at query time (the buffered-view argument of
    // docs/MULTIQUERY.md extends to the whole run).  Only the queried
    // lane counts as an eval; prefilled lanes surface as cache hits.
    const int64_t n = std::min<int64_t>(
        std::min<int64_t>(kKernelBlock, window_),
        ctx.seq->size() - ctx.pos);
    BlockVerdict verdict;  // n <= kKernelBlock: one block, no heap
    pred.kernel->EvalBlock(*ctx.seq, ctx.pos, 0, static_cast<int>(n),
                           &scratch_, &verdict);
    for (int64_t i = 0; i < n; ++i) {
      Slot& s = ring[(abs_pos + i) % window_];
      if (i != 0 && s.holds(abs_pos + i)) continue;  // keep cached slots
      s.Set(abs_pos + i, verdict.True(static_cast<int>(i)), false);
      if (s.val()) seed_implied(abs_pos + i);
    }
    return ring[abs_pos % window_].val();
  }

  bool val = EvalPredicate(*pred.expr, ctx);
  slot.Set(abs_pos, val, false);
  if (val) seed_implied(abs_pos);
  return val;
}

std::vector<SharedClusterCache::Slot>& SharedClusterCache::Ring(
    int pred_id) {
  std::vector<Slot>& ring = rings_[pred_id];
  if (ring.empty()) ring.resize(window_);
  return ring;
}

bool MultiQueryEvaluator::Test(int j, const SequenceView& seq, int64_t pos,
                               const std::vector<GroupSpan>& spans,
                               int64_t abs_pos) {
  EvalContext ctx;
  ctx.seq = &seq;
  ctx.pos = pos;
  ctx.spans = &spans;
  for (const QueryConjuncts::Conjunct& c : conjuncts_->elements[j]) {
    bool sat;
    if (c.shared_id >= 0) {
      sat = cache_->Test(c.shared_id, ctx, abs_pos, counters_);
    } else {
      counters_->private_evals.fetch_add(1, std::memory_order_relaxed);
      sat = EvalPredicate(*c.expr, ctx);
    }
    if (!sat) return false;
  }
  return true;
}

}  // namespace sqlts
