#ifndef SQLTS_ENGINE_SCAN_DRIVER_H_
#define SQLTS_ENGINE_SCAN_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"

namespace sqlts {

/// Searches `plan` over `seq` with `search_opts` (OPS or naive, per
/// `algorithm`), adds the search counters to `*stats`, and appends each
/// match, projected through `query`'s SELECT list, to `*rows`.  The
/// one place batch execution picks the search algorithm.
void SearchAndProject(const CompiledQuery& query, const PatternPlan& plan,
                      const SequenceView& seq, SearchAlgorithm algorithm,
                      const SearchOptions& search_opts, SearchStats* stats,
                      std::vector<Row>* rows, SearchTrace* trace = nullptr);

/// One query of a scan: its LIMIT comes from `query`; its rows and
/// counters are merged into `result->output` and `result->stats`.
struct ScanMember {
  const CompiledQuery* query;
  QueryResult* result;
};

/// What one cluster contributed, per member (indexed like the scan's
/// members).
struct ClusterOutput {
  std::vector<std::vector<Row>> rows;  ///< projected matches, match order
  std::vector<SearchStats> stats;
  int64_t tuples = 0;  ///< cluster length (ShardStats::tuples_pushed)
};

/// The batch scan driver shared by the in-memory, multi-query and
/// columnar executors.  SQL-TS searches each CLUSTER BY partition
/// independently, so a scan is: visit every cluster, search and project
/// each member query in it, merge the rows in cluster order.  The
/// caller defines what a cluster is (a ClusterFn); the driver owns
/// everything else:
///
///  - Pool: min(num_threads, clusters) workers, the calling thread
///    among them, claim cluster indexes in increasing order from one
///    atomic counter.
///  - LIMIT: when any member has a LIMIT, or a trace is requested, the
///    clusters run in order on the calling thread and each member gets
///    its remaining budget, so early termination (and the stats) are
///    those of a one-thread run.  Otherwise the clusters run in
///    parallel.
///  - Errors: governance (deadline, cancellation) is checked and the
///    "scan.cluster" fault site fired before each cluster, and
///    governance again once every cluster ran.  An exception escaping
///    a ClusterFn becomes kInternal.  The failing cluster with the
///    lowest index decides the error, as in an in-order run; the
///    caller then returns that error and no result.
///  - Merge: per-cluster rows and counters are merged into the
///    members' results in cluster order, so output is identical at any
///    thread count.
class ScanDriver {
 public:
  /// Budget value meaning "do not search this member in this cluster".
  static constexpr int64_t kSkip = -1;

  /// Runs the members over cluster `cluster` on worker `worker` (in
  /// [0, num_workers())), filling `out` (pre-sized to the members).
  /// `budgets[k]` is member k's match budget in this cluster: kSkip,
  /// 0 = unlimited, or n > 0 = at most n matches.  Called only when
  /// some member has a budget; concurrent calls get distinct workers.
  using ClusterFn =
      std::function<Status(int worker, int cluster,
                           const std::vector<int64_t>& budgets,
                           ClusterOutput* out)>;

  /// Reads num_threads, collect_trace and governance from `options`;
  /// the members' queries and results must outlive Run().
  ScanDriver(int num_clusters, std::vector<ScanMember> members,
             const ExecOptions& options);

  int num_workers() const { return num_workers_; }

  /// Scans every cluster with `fn`.  With more than one worker,
  /// `shard_stats` (when set) receives one ShardStats per worker
  /// (clusters, tuples_pushed, search); otherwise it is left empty.
  Status Run(const ClusterFn& fn,
             std::vector<ShardStats>* shard_stats = nullptr);

 private:
  /// Fills `budgets` for the next cluster; false when every member is
  /// done (LIMIT reached or LIMIT 0).
  bool Budgets(std::vector<int64_t>* budgets) const;
  /// One cluster behind the worker boundary: governance, fault site,
  /// `fn`, and exception conversion.
  Status RunCluster(const ClusterFn& fn, int worker, int cluster,
                    const std::vector<int64_t>& budgets,
                    ClusterOutput* out) const;
  Status Merge(ClusterOutput* out);

  int num_clusters_;
  std::vector<ScanMember> members_;
  ExecGovernance governance_;
  int num_workers_ = 1;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_SCAN_DRIVER_H_
