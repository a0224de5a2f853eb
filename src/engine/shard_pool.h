#ifndef SQLTS_ENGINE_SHARD_POOL_H_
#define SQLTS_ENGINE_SHARD_POOL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/match.h"
#include "storage/cluster_key.h"  // EncodeClusterKey: what ShardFor hashes
#include "storage/table.h"

namespace sqlts {

/// Per-shard execution counters layered on top of SearchStats: one
/// entry per worker of a sharded run, aggregated at Finish() time.
struct ShardStats {
  int64_t tuples_pushed = 0;     ///< tasks enqueued to this shard
  int64_t clusters = 0;          ///< clusters owned by this shard
  int64_t queue_high_water = 0;  ///< max queue depth observed
  int64_t rows_skipped = 0;      ///< bad rows dropped under kSkipAndCount
  /// Sum of the per-cluster matcher buffering high-water marks (an
  /// upper bound on tuples/bytes this shard held live at once).
  int64_t buffered_tuples_high = 0;
  int64_t buffered_bytes_high = 0;
  SearchStats search;            ///< matcher counters (evals, matches, ...)

  ShardStats& operator+=(const ShardStats& o) {
    tuples_pushed += o.tuples_pushed;
    clusters += o.clusters;
    queue_high_water = std::max(queue_high_water, o.queue_high_water);
    rows_skipped += o.rows_skipped;
    buffered_tuples_high += o.buffered_tuples_high;
    buffered_bytes_high += o.buffered_bytes_high;
    search += o.search;
    return *this;
  }
};

/// Sum of the per-shard matcher counters.
SearchStats TotalSearchStats(const std::vector<ShardStats>& shards);

/// Fixed-size pool of shard workers for per-cluster parallelism in
/// streaming execution (batch scans use engine/scan_driver.h).
///
/// Clusters are hash-partitioned across N shards (ShardFor); each shard
/// runs one dedicated worker thread that consumes a bounded MPSC queue
/// of Tasks in FIFO order.  Because a cluster's tasks always land on
/// the same shard, per-cluster matcher state needs no locking: the
/// owning worker is the only thread that touches it.
///
/// Push() blocks while the target queue is full (backpressure bounds
/// memory).  Finish() is the barrier: it drains every queue, joins the
/// workers, and makes all worker-side state visible to the caller.
class ShardPool {
 public:
  /// One unit of work: a row routed to the cluster with ordinal
  /// `cluster`.  `tag` is a producer-assigned sequence number used for
  /// the ordered result merge; `takers` marks, per standing query, the
  /// ones the producer routed the row to.
  struct Task {
    Row row;
    uint64_t cluster = 0;
    uint64_t tag = 0;
    std::vector<char> takers = {};
  };

  /// Consumes one task on the shard's worker thread.  Handlers must
  /// only touch shard-local state (plus read-only shared data); errors
  /// are recorded shard-locally and surfaced after Finish().
  ///
  /// A handler that throws does NOT tear down the pool: the worker
  /// catches the exception at its boundary, converts it to an Internal
  /// Status (see first_error()), and keeps draining its queue without
  /// invoking the handler again — producers stay unblocked and the pool
  /// stays joinable.
  using TaskHandler = std::function<void(int shard, Task&& task)>;

  /// Starts `num_shards` workers, each with a queue bounded at
  /// `queue_capacity` tasks.
  ShardPool(int num_shards, int64_t queue_capacity, TaskHandler handler);

  /// Joins outstanding workers (equivalent to Finish()).
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Shard owning the cluster with encoded key `key`.
  int ShardFor(std::string_view key) const;

  /// Enqueues `task` on `shard`, blocking while its queue is full.
  void Push(int shard, Task task);

  /// Barrier: waits for every queued task to be consumed and joins the
  /// workers.  Idempotent.  After Finish() returns, everything the
  /// handlers wrote is visible to the calling thread.
  void Finish();

  /// Quiesces the pool without closing it: blocks until every queue is
  /// empty and every worker is idle.  On return all handler effects so
  /// far are visible to the caller, and — provided the caller is the
  /// only producer and pushes nothing meanwhile — the workers stay
  /// idle.  Used to take a consistent checkpoint mid-stream.
  void Drain();

  /// First error recorded by any worker's exception boundary (OK when
  /// every handler returned normally).  Stable after Drain()/Finish().
  Status first_error() const;

  /// Tasks pushed to `shard` so far (producer-side counter).
  int64_t pushed(int shard) const;
  /// Highest queue depth `shard` ever reached (valid after Finish()).
  int64_t queue_high_water(int shard) const;

 private:
  struct Shard {
    ts::Mutex mu;
    ts::CondVar not_empty;
    ts::CondVar not_full;
    ts::CondVar idle;  // queue empty and worker not busy
    std::deque<Task> queue GUARDED_BY(mu);
    bool closed GUARDED_BY(mu) = false;  // producer finished; drain and exit
    bool busy GUARDED_BY(mu) = false;    // worker is inside the handler
    /// First exception caught at the worker boundary.
    Status error GUARDED_BY(mu);
    int64_t pushed GUARDED_BY(mu) = 0;
    int64_t high_water GUARDED_BY(mu) = 0;
    // Written once before the worker starts, joined after it exits:
    // never touched concurrently, so not guarded.
    std::thread worker;
  };

  void WorkerLoop(int shard);

  TaskHandler handler_;
  int64_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Producer-thread-only (Finish/dtor run on the owning thread), so
  // not guarded.
  bool finished_ = false;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_SHARD_POOL_H_
