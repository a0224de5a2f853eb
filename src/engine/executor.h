#ifndef SQLTS_ENGINE_EXECUTOR_H_
#define SQLTS_ENGINE_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/governance.h"
#include "common/statusor.h"
#include "engine/matcher.h"
#include "engine/shard_pool.h"
#include "engine/shared_eval.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"
#include "storage/table.h"

namespace sqlts {

/// Which search algorithm the executor drives.
enum class SearchAlgorithm {
  kOps,    ///< the paper's optimized pattern search (default)
  kNaive,  ///< backtracking baseline
};

/// Execution knobs.
struct ExecOptions {
  CompileOptions compile;
  SearchAlgorithm algorithm = SearchAlgorithm::kOps;
  /// Record every predicate test (expensive; Figure-5 style analysis).
  bool collect_trace = false;
  /// Worker threads for clustered execution.  Batch (every batch
  /// executor, through engine/scan_driver.h): min(N, clusters) workers,
  /// the calling thread among them, claim clusters in order and the
  /// rows merge back in cluster first-appearance order, so output and
  /// stats are identical at any N.  A scan with a LIMIT member or
  /// collect_trace runs its clusters in order on the calling thread,
  /// whose early termination and trace order are inherently
  /// sequential.  Streaming: N > 1 hash-partitions clusters over N
  /// shard workers.
  int num_threads = 1;
  /// Streaming only: bound (in tasks) of each shard's input queue; Push
  /// blocks when the owning shard is this far behind (backpressure).
  int64_t shard_queue_capacity = 1024;
  /// Per-query resource governance: buffer budgets (streaming), a
  /// deadline, cooperative cancellation, bad-input policy, and the
  /// testing-only fault hook.  See common/governance.h.
  ExecGovernance governance;
  /// Vectorized predicate tier (ROADMAP item 1): compile each
  /// vectorizable tuple-local conjunct into a type-specialized batch
  /// kernel (expr/kernel.h) and answer element tests from per-block
  /// 3VL verdict bitmasks behind the ElementEvaluator seam.  Answer-
  /// preserving — output and SearchStats are bit-identical with the
  /// interpreter, which remains the fallback for non-vectorizable
  /// conjuncts (and the oracle the differential fuzzer compares
  /// against).  Single-query batch and columnar scans use it through
  /// engine/vectorized_eval.h.  Streaming execution (one query or a
  /// set) answers element tests from its scan group's per-cluster
  /// predicate cache (engine/shared_cache.h), whose misses run the
  /// catalog's kernels when this is set and the interpreter otherwise.
  /// The batch multi-query executor always uses the catalog kernels.
  bool vectorize = true;
};

/// The result of running a SQL-TS query: the projected output rows plus
/// cost accounting (and optionally the full test trace).
struct QueryResult {
  Table output;
  SearchStats stats;
  SearchTrace trace;          // only when collect_trace
  PatternPlan plan;           // the compiled pattern, for EXPLAIN
  int num_clusters = 0;
  /// Malformed input rows dropped under BadInputPolicy::kSkipAndCount
  /// on the way into this query (e.g. by a CSV load feeding it).
  int64_t rows_skipped = 0;
  /// Per-worker counters (clusters, tuples_pushed, search); empty
  /// when the query ran on one worker.
  std::vector<ShardStats> shard_stats;
};

/// True when the hoisted cluster filters accept this cluster (evaluated
/// on its first tuple; cluster columns are constant within a cluster).
/// Shared with the multi-query driver (src/multiquery/).
bool ClusterAccepted(const CompiledQuery& query, const SequenceView& seq);

/// Projects one match of `seq` through `query`'s SELECT list, coercing
/// each value to the declared output column type.
Row ProjectMatch(const CompiledQuery& query, const SequenceView& seq,
                 const Match& match);

/// End-to-end SQL-TS execution engine: parse → analyze → compile the
/// pattern → cluster & sort → match per cluster → evaluate the SELECT
/// list per match.
class QueryExecutor {
 public:
  /// Runs `query_text` against `input`.
  static StatusOr<QueryResult> Execute(const Table& input,
                                       std::string_view query_text,
                                       const ExecOptions& options = {});

  /// Runs an already-analyzed query (used by benchmarks to amortize
  /// parsing/compilation across runs).
  static StatusOr<QueryResult> ExecuteCompiled(const Table& input,
                                               const CompiledQuery& query,
                                               const ExecOptions& options = {});

  /// Loads `path` as CSV against `schema` and runs `query_text` on it.
  /// The load honors options.governance.bad_input: under kSkipAndCount
  /// malformed records are dropped and reported in
  /// QueryResult::rows_skipped instead of failing the query.
  static StatusOr<QueryResult> ExecuteCsvFile(const std::string& path,
                                              const Schema& schema,
                                              std::string_view query_text,
                                              const ExecOptions& options = {});
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_EXECUTOR_H_
