#ifndef SQLTS_REPLICATION_CLUSTER_H_
#define SQLTS_REPLICATION_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "engine/executor.h"
#include "replication/log.h"
#include "server/metrics.h"
#include "storage/table.h"

namespace sqlts {
namespace replication {

// Concurrency contract (docs/STATIC_ANALYSIS.md): this layer is
// single-threaded by design.  The multi-node cluster runs in one
// process under a deterministic driver — one thread owns every node,
// the transport, and the sinks — so these classes deliberately carry
// no capabilities (no ts::Mutex, no GUARDED_BY): an unannotated class
// here documents "not safe to share across threads", and the only
// cross-thread-visible state is ReplicationMetrics, whose counters are
// atomics folded in by FoldMetrics().  Engines *inside* a node (the
// sharded streaming executors) keep their own annotated locking.

/// The streaming-engine surface the cluster replicates: a
/// MultiStreamExecutor query set, one output channel per query (a
/// single query is the set of one).  An engine instance is single-use: a node
/// creates one fresh, then either InitFresh() (empty start) or
/// Restore() (from a replicated checkpoint), and pushes from there.
class ReplicatedEngine {
 public:
  virtual ~ReplicatedEngine() = default;
  /// Registers the workload on an empty engine (no-op for adapters that
  /// register at construction).
  virtual Status InitFresh() = 0;
  virtual Status Push(const Row& row) = 0;
  virtual Status Finish() = 0;
  virtual Status Checkpoint(std::string* out) = 0;
  virtual Status Restore(std::string_view bytes) = 0;
  /// Source position the engine has consumed (checkpoint coverage).
  virtual int64_t rows_consumed() const = 0;
  /// Rows emitted per output channel so far (the dedup watermarks).
  virtual std::vector<int64_t> watermarks() const = 0;
  /// Canonical rendering of the post-Finish matcher statistics; the
  /// failover contract requires it bit-identical to an uninterrupted
  /// run's (replays re-earn exactly the evaluations the checkpoint did
  /// not persist, so totals line up).
  virtual std::string StatsFingerprint() const = 0;
};

/// Per-engine-instance output callbacks, one per channel; the cluster
/// wires these to its watermark-stamping dedup path.
using EngineSinks = std::vector<std::function<void(const Row&)>>;

/// Builds a fresh engine whose channel c delivers to sinks[c].
using EngineFactory =
    std::function<StatusOr<std::unique_ptr<ReplicatedEngine>>(
        const EngineSinks& sinks)>;

/// Factory over one streaming query (one output channel): the query
/// set of one.
EngineFactory MakeSingleQueryEngineFactory(std::string query_text,
                                           Schema schema,
                                           ExecOptions options);

/// Factory over a query set on one MultiStreamExecutor (channel i =
/// queries[i]).  All queries must be streaming-eligible.
EngineFactory MakeMultiQueryEngineFactory(std::vector<std::string> queries,
                                          Schema schema, ExecOptions options);

/// The consumer's half of exactly-once: rows arrive stamped with their
/// global emission sequence; a row below the cursor is a replay — it is
/// verified bit-identical against what was originally delivered, then
/// dropped — and a row above the cursor means output was lost, which
/// Accept reports as a hard error.  Single-threaded (the harness driver
/// owns it).
class DedupSink {
 public:
  /// Delivers, drops-and-verifies, or rejects one stamped row.
  Status Accept(int64_t seq, const Row& row);

  const std::vector<Row>& delivered() const { return delivered_; }
  int64_t duplicates_dropped() const { return dups_; }
  int64_t next_expected() const {
    return static_cast<int64_t>(delivered_.size());
  }

 private:
  std::vector<Row> delivered_;
  std::vector<std::string> fingerprints_;  // of delivered_, by seq
  int64_t dups_ = 0;
};

/// Canonical row rendering used for duplicate verification.
std::string FingerprintRow(const Row& row);

struct ClusterOptions {
  int num_standbys = 2;
  /// Standby acks required per entry; -1 = majority of the full
  /// (primary + standbys) cluster, the smallest quorum that guarantees
  /// a most-caught-up survivor holds every committed entry.
  int quorum_acks = -1;
  /// Tuples between replicated checkpoint entries.
  int64_t checkpoint_interval = 16;
  /// Ticks between heartbeats (one tick per consumed tuple).
  int64_t heartbeat_interval = 4;
  /// A standby suspects the primary after this many heartbeat-free ticks.
  int64_t lease_ticks = 12;
  TransportOptions transport;
  /// Engine execution options (thread count etc.) for every node.
  ExecOptions exec;
  uint64_t seed = 0;
};

/// In-process primary/standby harness for replicated streaming with
/// exactly-once failover (docs/REPLICATION.md).  The driver owns the
/// source (a replayable tuple vector — the durable upstream any
/// replicated consumer needs) and single-steps the cluster:
///
///   Step()          consume one source tuple on the primary, heartbeat
///                   and replicate checkpoints on their cadences
///   KillPrimary()   process death: all primary in-memory state is gone
///   Promote(draw)   advance ticks until every surviving standby's
///                   lease has expired, deterministically pick the
///                   promotion target (most-caught-up set by default,
///                   any standby when allow_lagging — the watermark
///                   makes even that exact), restore it from its newest
///                   replicated entry, and replay the uncovered source
///                   suffix
///   Finish()        end-of-stream on the current primary
///
/// Output goes through per-channel DedupSinks; after Finish, sink(c)
/// holds exactly the rows an uninterrupted run would have delivered —
/// zero lost, zero duplicated — for any kill/promotion schedule.
class ReplicatedCluster {
 public:
  ReplicatedCluster(EngineFactory factory, int num_channels,
                    const std::vector<Row>* source, ClusterOptions options,
                    ReplicationMetrics* metrics = nullptr);
  ~ReplicatedCluster();

  /// Creates the standby set and the initial primary (term 1, offset 0).
  Status Start();

  /// Consumes source[position()] on the primary.  InvalidArgument when
  /// no primary is alive or the source is exhausted.
  Status Step();

  /// Kills the primary process (its engine and all in-memory state).
  Status KillPrimary();

  /// Lease-expiry failure detection followed by deterministic
  /// promotion; `draw` selects uniformly within the eligible set.
  /// Returns the promoted node id.
  StatusOr<int> Promote(uint64_t draw, bool allow_lagging = false);

  /// End-of-stream on the primary (emits trailing matches).
  Status Finish();

  bool primary_alive() const { return primary_ != nullptr; }
  /// Next source offset the cluster will consume.
  int64_t position() const { return position_; }
  int64_t source_size() const {
    return static_cast<int64_t>(source_->size());
  }
  const DedupSink& sink(int channel) const { return sinks_[channel]; }
  int64_t duplicates_dropped() const;
  int failovers() const { return failovers_; }
  const ReplicationCounters& counters() const { return log_->counters(); }
  uint64_t committed_index() const { return log_->committed_index(); }
  int num_standbys_alive() const { return log_->num_standbys(); }
  /// Post-Finish stats of the current primary's engine.
  std::string StatsFingerprint() const;

 private:
  /// One node's engine plus its watermark bases (seq stamping state).
  struct PrimaryState {
    std::unique_ptr<ReplicatedEngine> engine;
    std::vector<int64_t> seq_base;
    std::vector<int64_t> seq_count;
  };

  void OnEmit(int channel, const Row& row);
  Status ReplicateCheckpoint();
  /// Builds a fresh engine wired to this cluster's emission path.
  StatusOr<std::unique_ptr<ReplicatedEngine>> MakeEngine();
  /// Installs `node`'s replicated state into a fresh engine and replays
  /// the uncovered source suffix.
  Status RestoreAndReplay(const StandbyNode* node);
  /// Publishes log counters and cluster gauges into metrics_ (if any).
  void FoldMetrics();

  EngineFactory factory_;
  int num_channels_;
  const std::vector<Row>* source_;
  ClusterOptions options_;
  ReplicationMetrics* metrics_;  // may be null

  std::vector<std::unique_ptr<StandbyNode>> standbys_;
  std::unique_ptr<ReplicationLog> log_;
  std::unique_ptr<PrimaryState> primary_;
  std::vector<DedupSink> sinks_;
  Status sink_error_;  // first dedup violation (lost/mismatched row)

  uint64_t term_ = 0;
  uint64_t next_index_ = 1;
  int64_t position_ = 0;  // source offset consumed by the cluster
  int64_t tick_ = 0;
  int failovers_ = 0;
  int lagging_promotions_ = 0;
  int64_t rows_replayed_ = 0;
  bool finished_ = false;
  bool started_ = false;
};

}  // namespace replication
}  // namespace sqlts

#endif  // SQLTS_REPLICATION_CLUSTER_H_
