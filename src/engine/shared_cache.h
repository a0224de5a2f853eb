#ifndef SQLTS_ENGINE_SHARED_CACHE_H_
#define SQLTS_ENGINE_SHARED_CACHE_H_

#include <string>
#include <vector>

#include "engine/predicate_catalog.h"
#include "engine/shared_eval.h"
#include "expr/eval.h"
#include "parser/analyzer.h"

namespace sqlts {

/// One query's pattern elements mapped into a shared predicate id
/// space: element j's conjuncts, each carrying its catalog id (or -1
/// when the conjunct is private to the query and always evaluated
/// directly).
struct QueryConjuncts {
  struct Conjunct {
    ExprPtr expr;
    int shared_id = -1;
  };
  /// Indexed by 1-based pattern element (slot 0 unused), mirroring
  /// PatternPlan::predicates.
  std::vector<std::vector<Conjunct>> elements;
};

/// Registers every pattern-element conjunct of `query` in `catalog`.
QueryConjuncts RegisterQueryConjuncts(const CompiledQuery& query,
                                      SharedPredicateCatalog* catalog);

/// Scan-group signature of a query: the resolved column indexes of its
/// CLUSTER BY and SEQUENCE BY lists.  Queries with equal signatures
/// partition the input identically, so they share one clustering pass,
/// one predicate catalog, and per-cluster caches.
StatusOr<std::string> ScanGroupSignature(const Schema& schema,
                                         const CompiledQuery& query);

/// Memo of shared-predicate verdicts for one cluster, keyed by
/// (predicate id, absolute sequence position).  A ring window per
/// predicate bounds memory: an evicted slot only costs a re-evaluation,
/// never correctness, because cached values are query-independent (a
/// tuple-local conjunct shared by two queries reads the same tuple
/// neighborhood in both — see docs/MULTIQUERY.md for the buffered-view
/// argument).  Not thread-safe: a batch scan builds one per cluster on
/// the worker scanning it, and a streaming engine keeps one per cluster
/// and registration epoch on the shard worker that owns the cluster.
class SharedClusterCache {
 public:
  /// `window` slots per tested predicate: the cluster length in batch
  /// mode (exact once-per-tuple memoization), a fixed horizon in
  /// streaming mode.  With `kernels` false every miss is interpreted,
  /// one position at a time (ExecOptions::vectorize = false).
  SharedClusterCache(const SharedPredicateCatalog* catalog, int64_t window,
                     bool kernels = true);

  /// Returns the TRUE-collapsed verdict of predicate `pred_id` at
  /// absolute position `abs_pos`, evaluating under `ctx` only on a
  /// miss.  A TRUE verdict seeds the slots of every predicate the
  /// catalog proves subsumed.
  bool Test(int pred_id, const EvalContext& ctx, int64_t abs_pos,
            MultiQueryCounters* counters);

 private:
  /// One cached verdict in 8 bytes: (pos + 1) << 2 | inferred << 1 |
  /// val, so the all-zero slot is empty and distinct from position 0.
  class Slot {
   public:
    bool holds(int64_t pos) const {
      return (word_ >> 2) == static_cast<uint64_t>(pos) + 1;
    }
    bool val() const { return (word_ & 1) != 0; }
    bool inferred() const { return (word_ & 2) != 0; }  // subsumption seed
    void Set(int64_t pos, bool val, bool inferred) {
      word_ = (static_cast<uint64_t>(pos) + 1) << 2 |
              static_cast<uint64_t>(inferred) << 1 |
              static_cast<uint64_t>(val);
    }

   private:
    uint64_t word_ = 0;
  };

  /// Predicate `pred_id`'s ring, allocated on first use.
  std::vector<Slot>& Ring(int pred_id);

  const SharedPredicateCatalog* catalog_;
  int64_t window_;
  bool kernels_;
  /// [pred id][abs_pos % window]
  std::vector<std::vector<Slot>> rings_;
  KernelScratch scratch_;  // kernel work area
};

/// ElementEvaluator for one (query, cluster) pair: splits the element
/// predicate into its conjuncts, answering shared ones through the
/// cluster cache and private ones directly.  Answer-preserving: under
/// Kleene semantics the AND of conjuncts is TRUE iff every conjunct is
/// TRUE, which is exactly the per-conjunct collapse this reproduces.
class MultiQueryEvaluator : public ElementEvaluator {
 public:
  MultiQueryEvaluator(const QueryConjuncts* conjuncts,
                      SharedClusterCache* cache,
                      MultiQueryCounters* counters)
      : conjuncts_(conjuncts), cache_(cache), counters_(counters) {}

  bool Test(int j, const SequenceView& seq, int64_t pos,
            const std::vector<GroupSpan>& spans, int64_t abs_pos) override;

 private:
  const QueryConjuncts* conjuncts_;
  SharedClusterCache* cache_;
  MultiQueryCounters* counters_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_SHARED_CACHE_H_
