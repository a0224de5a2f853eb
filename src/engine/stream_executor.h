#ifndef SQLTS_ENGINE_STREAM_EXECUTOR_H_
#define SQLTS_ENGINE_STREAM_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/governance.h"
#include "common/statusor.h"
#include "engine/checkpoint.h"
#include "engine/executor.h"
#include "engine/predicate_catalog.h"
#include "engine/shard_pool.h"
#include "engine/shared_cache.h"
#include "engine/stream.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"

namespace sqlts {

class StreamEngine;

/// One standing query of a StreamEngine, as its owner sees it.
class StreamMember {
 public:
  /// Matcher statistics over its clusters (after Finish() only, when
  /// num_threads > 1).
  SearchStats stats() const;
  const Schema& output_schema() const { return query_.output_schema; }
  /// Rows delivered to the callback so far.  Checkpointed after the
  /// flush, so the k-th row of a resumed run is the k-th of an
  /// uninterrupted one (replicated consumers deduplicate by it).
  int64_t rows_emitted() const { return rows_emitted_; }
  /// Malformed rows dropped under BadInputPolicy::kSkipAndCount.
  int64_t rows_skipped() const { return rows_skipped_; }
  /// Outcome of StreamEngine::Finish() for this member.
  const Status& final_status() const { return final_status_; }
  /// Per-shard counters, one entry per shard, filled by Finish().
  const std::vector<ShardStats>& shard_stats() const {
    return final_shard_stats_;
  }

 private:
  friend class StreamEngine;
  StreamMember() = default;

  const StreamEngine* engine_ = nullptr;
  int index_ = 0;  // slot in the engine and in every cluster matcher
  int64_t epoch_ = 0;
  CompiledQuery query_;
  PatternPlan plan_;
  int min_offset_ = 0;        // reach back of its predicates and SELECT
  QueryConjuncts conjuncts_;  // element conjuncts in the catalog id space
  std::function<void(const Row&)> on_row_;
  ExecGovernance governance_;
  ResourceLedger ledger_;  // its reachable tuples/bytes, all clusters
  bool removed_ = false;
  /// Set once by the router when the member refused a tuple that other
  /// members took; read by shard workers only after that tuple.
  Status stopped_;
  int64_t rows_skipped_ = 0;
  int64_t rows_emitted_ = 0;
  Status final_status_;
  SearchStats final_stats_;
  std::vector<ShardStats> final_shard_stats_;
};

/// Streaming execution of one scan group: the standing queries that
/// share CLUSTER BY and SEQUENCE BY (ScanGroupSignature) — the paper's
/// "user-defined aggregate over a stream" deployment with the full
/// language on top.  One router checks each tuple's arity, types and
/// SEQUENCE BY order once; in its cluster, one row buffer drives one
/// cursor per member (OpsStreamMatcher), and each match is projected
/// through its member's SELECT list to that member's callback.  Element
/// tests go through the group's SharedPredicateCatalog, with one cache
/// per cluster and registration epoch.  StreamingQueryExecutor is the
/// K = 1 case.
///
/// With ExecOptions::num_threads > 1 one ShardPool hash-partitions the
/// clusters; output rows are buffered and delivered during Finish() or
/// Save() in the single-threaded order (by completing push, then
/// end-of-stream matches in encoded-key order), so each member's rows
/// are the same at every thread count.  Each member has its own
/// ExecGovernance and fails on its own.  Not thread-safe (one caller;
/// MultiStreamExecutor locks).  Tuples must arrive in SEQUENCE BY order
/// within each cluster; predicates must not look ahead.
class StreamEngine {
 public:
  using RowCallback = std::function<void(const Row&)>;

  /// A member's failure on one Push.
  struct MemberError {
    int index;
    Status status;
  };

  /// An engine for queries with the CLUSTER BY / SEQUENCE BY of
  /// `first`.  Applies options.compile, num_threads,
  /// shard_queue_capacity and vectorize (false: the caches interpret
  /// every miss); governance comes with each member.
  static StatusOr<std::unique_ptr<StreamEngine>> Create(
      const Schema& schema, const CompiledQuery& first,
      const ExecOptions& options);

  ~StreamEngine();

  /// Registers a member at the current stream position: in each
  /// cluster its floor is the next tuple, as for a standalone executor
  /// created now.  Members of one `epoch` share predicate caches.
  /// Refuses provably empty queries and lookahead predicates.  Quiesces
  /// the pool.  Returns the member's index.
  StatusOr<int> AddMember(CompiledQuery query, RowCallback on_row,
                          const ExecGovernance& governance, int64_t epoch);

  /// Cancels member `index`: its cursors and pending rows are dropped
  /// without end-of-stream completion; its epoch's caches go with the
  /// epoch's last member.  Quiesces the pool.
  void RemoveMember(int index);

  /// Processes the next stream tuple; a member that fails on it is
  /// reported in `errors`.  Cancellation, the deadline, fault sites and
  /// malformed rows (under each member's BadInputPolicy) surface here;
  /// with num_threads > 1 the tuple is only routed and enqueued, and
  /// matcher errors surface from Finish().  A member refused at a
  /// router gate on a tuple other members take stops for good, since
  /// its cursors would find the tuple buffered; its error is reported
  /// on every later push.  Fails only after Finish().
  Status Push(Row row, std::vector<MemberError>* errors);

  /// End-of-stream: drains the pool, closes trailing star groups (not
  /// those of a member that failed there) and delivers buffered rows.
  /// Each member's outcome is its final_status(); returns the first
  /// error.  Idempotent.
  Status Finish();

  /// Serializes all live state — routing, SEQUENCE BY watermarks,
  /// stream position, member counters, each cluster's rows and cursors
  /// — after flushing buffered rows, so the bytes are the same at every
  /// thread count.  Fails once a member has failed on a shard.
  Status Save(CheckpointWriter* writer);

  /// Reinstates Save() on an engine with the same members (same
  /// queries, epochs and removals, in order) and no tuple pushed yet.
  Status Load(CheckpointReader* reader);

  /// Live (epoch, cluster) predicate caches.  Quiesces the pool.
  int64_t num_epoch_caches();

  const StreamMember* member(int index) const {
    return members_[index].get();
  }
  int num_live_members() const;
  const Schema& schema() const { return schema_; }
  const SharedPredicateCatalog& catalog() const { return catalog_; }
  const MultiQueryCounters& counters() const { return counters_; }
  /// Tuples some member took past its governance checks, skipped ones
  /// included: the position a resumed producer continues from.
  int64_t rows_consumed() const { return consumed_; }
  int num_clusters() const { return static_cast<int>(routes_.size()); }

 private:
  friend class StreamMember;

  /// Router-side cluster bookkeeping; touched only by the Push caller.
  struct RouteInfo {
    uint64_t ordinal = 0;  // dense, in first-appearance order
    int shard = 0;
    std::vector<int8_t> accepts;  // by member: -1 undecided, 0 no, 1 yes
    std::vector<Value> last_seq_key;  // full SEQUENCE BY tuple
    bool has_last = false;
  };

  /// One cluster, owned by exactly one shard worker.
  struct ClusterState {
    explicit ClusterState(const Schema& schema) : stream(schema) {}
    OpsStreamMatcher stream;  // one buffer, a cursor per member slot
    /// Predicate caches by registration epoch, and the evaluators the
    /// cursors test through (by member).
    std::map<int64_t, std::unique_ptr<SharedClusterCache>> caches;
    std::vector<std::unique_ptr<MultiQueryEvaluator>> evaluators;
  };

  /// A buffered output row with its deterministic merge position.
  struct TaggedRow {
    int member;
    uint64_t tag;  // push (or finish) event that completed the match
    int64_t seq;   // the member's match count in the cluster
    Row row;
  };

  /// Everything one shard worker owns (index = shard id).
  struct ShardState {
    std::map<uint64_t, ClusterState> clusters;  // keyed by ordinal
    std::vector<TaggedRow> out;   // sharded mode: buffered emissions
    std::vector<Status> errors;   // by member: first matcher error
    uint64_t current_tag = 0;     // tag of the task being processed
    int64_t processed = 0;        // tasks consumed
  };

  StreamEngine(const Schema& schema, std::vector<int> cluster_cols,
               std::vector<int> sequence_cols, const ExecOptions& options);

  /// Looks up (or creates) the routing entry for `row`'s cluster.
  RouteInfo* RouteFor(const Row& row);
  /// Member `k`'s cluster filter verdict for `info`'s cluster.
  bool Accepts(RouteInfo* info, int k, const Row& row);
  /// Rejects rows that regress on the full SEQUENCE BY tuple.
  Status CheckSequenceOrder(const Row& row, RouteInfo* info);
  /// Gives member `k` a cursor in `cs`, testing through its epoch's
  /// cache.
  void MakeCursor(int shard, uint64_t ordinal, ClusterState* cs, int k);
  /// Consumes one routed tuple on its owning shard: a taker without a
  /// cursor in the cluster gets one, a cursor whose member is no longer
  /// a taker retires.
  void ProcessTask(int shard, ShardPool::Task& task);
  /// Match callback: projects the SELECT list and emits or buffers.
  void EmitRow(int shard, uint64_t ordinal, int k, const Match& match,
               const SequenceView& view, int64_t base);
  /// Delivers the buffered rows of members with `deliver[k]` in
  /// (tag, seq) order and clears every buffer (pool quiescent).
  void FlushBufferedRows(const std::vector<char>& deliver);
  /// Blocks until the shard workers are idle (no-op without a pool).
  void Quiesce();

  Schema schema_;
  std::vector<int> cluster_cols_;
  std::vector<int> sequence_cols_;
  int num_threads_;
  CompileOptions compile_;
  bool vectorize_;
  SharedPredicateCatalog catalog_;  // grows only while workers are idle
  MultiQueryCounters counters_;     // atomics: shard workers add to them
  std::vector<std::unique_ptr<StreamMember>> members_;
  std::map<std::string, RouteInfo> routes_;  // keyed by EncodeClusterKey
  std::string route_key_;  // RouteFor scratch: the pushed row's key
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<char> taking_;  // Push scratch: members taking the tuple
  uint64_t push_tag_ = 0;     // global push counter (merge tag source)
  int64_t consumed_ = 0;
  bool finished_ = false;
  /// Declared last: its destructor joins workers that reference the
  /// members above.
  std::unique_ptr<ShardPool> pool_;
};

/// End-to-end streaming execution of one SQL-TS query: a StreamEngine
/// with one member.  Checkpoint() writes the versioned container of
/// engine/checkpoint.h; Restore() on a fresh executor reinstates it,
/// and the resumed run is bit-identical to an uninterrupted one at any
/// thread count on either side (docs/OPERATIONS.md).
class StreamingQueryExecutor {
 public:
  /// Receives one projected output row per match, on the calling
  /// thread: during Push()/Finish() when num_threads == 1, during
  /// Finish() and Checkpoint() only when num_threads > 1.
  using RowCallback = StreamEngine::RowCallback;

  /// Parses and compiles `query_text` against `schema`.  Streaming
  /// applies options.compile, num_threads, shard_queue_capacity,
  /// governance and vectorize.
  static StatusOr<std::unique_ptr<StreamingQueryExecutor>> Create(
      std::string_view query_text, const Schema& schema,
      RowCallback on_row, const ExecOptions& options = {});

  /// Processes the next stream tuple (StreamEngine::Push).
  Status Push(Row row);
  /// Signals end-of-stream; returns the first error of any shard,
  /// exceptions caught at the worker boundary included.  Idempotent.
  Status Finish() { return engine_->Finish(); }
  /// Serializes all live state; fails after Finish.
  Status Checkpoint(std::string* out);
  /// Reinstates Checkpoint() on a freshly created executor for the
  /// same query text and input schema (thread count may differ).
  /// IoError/InvalidArgument on corrupted or mismatched bytes.
  Status Restore(std::string_view bytes);

  SearchStats stats() const { return member().stats(); }
  const std::vector<ShardStats>& shard_stats() const {
    return member().shard_stats();
  }
  /// Tuples offered to Push() so far, skipped ones included.
  int64_t rows_consumed() const { return engine_->rows_consumed(); }
  int64_t rows_emitted() const { return member().rows_emitted(); }
  int64_t rows_skipped() const { return member().rows_skipped(); }
  int num_clusters() const { return engine_->num_clusters(); }
  const Schema& output_schema() const { return member().output_schema(); }

 private:
  StreamingQueryExecutor(std::string query_text,
                         std::unique_ptr<StreamEngine> engine)
      : query_text_(std::move(query_text)), engine_(std::move(engine)) {}
  const StreamMember& member() const { return *engine_->member(0); }

  std::string query_text_;  // verbatim, for checkpoint identity
  std::unique_ptr<StreamEngine> engine_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_STREAM_EXECUTOR_H_
