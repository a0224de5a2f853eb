#ifndef SQLTS_MULTIQUERY_MULTI_EXECUTOR_H_
#define SQLTS_MULTIQUERY_MULTI_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "engine/executor.h"
#include "engine/predicate_catalog.h"
#include "storage/table.h"

namespace sqlts {

/// Result of running a set of SQL-TS queries over one input: each
/// query's ordinary QueryResult (output rows bit-identical to running
/// it alone) plus the workload-level sharing accounting.
struct QuerySetResult {
  std::vector<QueryResult> per_query;
  MultiQueryStats stats;
};

/// Batch shared multi-query execution: compiles every query, groups
/// them by (CLUSTER BY, SEQUENCE BY) signature so each group clusters
/// the input once, canonicalizes all pattern-element conjuncts of a
/// group into one SharedPredicateCatalog, and drives every query's OPS
/// matcher over each cluster behind a per-cluster memo — a predicate
/// shared by several queries is evaluated at most once per tuple.
///
/// Each scan group is one run of the batch scan driver
/// (engine/scan_driver.h) with the group's queries as its members: a
/// worker runs all of them over its cluster against one shared cache,
/// and rows merge back per query in cluster first-appearance order.
///
/// Output equivalence: per-query rows and SearchStats are identical to
/// running the query alone with the same options, at any thread count.
/// A group with a LIMIT member runs its clusters in order, each query
/// with its own remaining budget, so a LIMIT query does exactly the
/// work of its solo run.  collect_trace is not supported here (traces
/// are per-query sequential logs); per-query traces come back empty.
class MultiQueryExecutor {
 public:
  static StatusOr<QuerySetResult> Execute(
      const Table& input, const std::vector<std::string>& queries,
      const ExecOptions& options = {});
};

/// EXPLAIN for a query set: each query's full compilation report plus
/// the shared predicate catalog — distinct predicates, merge/edge
/// counts, and per-predicate registration fan-in.
StatusOr<std::string> ExplainQuerySet(const Schema& schema,
                                      const std::vector<std::string>& queries,
                                      const ExecOptions& options = {});

}  // namespace sqlts

#endif  // SQLTS_MULTIQUERY_MULTI_EXECUTOR_H_
