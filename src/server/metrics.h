#ifndef SQLTS_SERVER_METRICS_H_
#define SQLTS_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "engine/predicate_catalog.h"
#include "server/json.h"

namespace sqlts {

/// Replication-layer counters and gauges (src/replication/), updated
/// lock-free by the cluster driver and snapshotted into the METRICS
/// reply next to the service counters.  The gauges make failover state
/// observable: `standbys_active` drops when a primary is promoted,
/// `committed_index`/`output_watermark` advance monotonically, and
/// `rows_deduplicated` counts the replayed rows the output watermark
/// suppressed — the externally visible half of the exactly-once
/// argument (docs/REPLICATION.md).
struct ReplicationMetrics {
  // Log traffic.
  std::atomic<int64_t> entries_appended{0};
  std::atomic<int64_t> entries_committed{0};
  std::atomic<int64_t> entries_dropped{0};      // transport chaos
  std::atomic<int64_t> entries_delayed{0};
  std::atomic<int64_t> entries_retransmitted{0};
  std::atomic<int64_t> stale_entries_ignored{0};  // reordered/duplicate
  std::atomic<int64_t> heartbeats_sent{0};
  // Failover lifecycle.
  std::atomic<int64_t> failovers{0};
  std::atomic<int64_t> lagging_promotions{0};
  std::atomic<int64_t> rows_replayed{0};
  std::atomic<int64_t> rows_deduplicated{0};
  // Gauges.
  std::atomic<int64_t> standbys_active{0};
  std::atomic<int64_t> committed_index{0};
  std::atomic<int64_t> output_watermark{0};

  /// One JSON object with every counter above.
  Json Snapshot() const;
};

/// Live service counters, updated lock-free on the hot paths and
/// snapshotted into the METRICS reply (catalog in docs/SERVER.md).
/// Gauges must return to their idle values after a drain — the metrics
/// test asserts queries_in_flight == 0 and sessions_active == 0 once
/// every client is gone, which is what makes leaks observable.
struct ServerMetrics {
  // Session lifecycle.
  std::atomic<int64_t> sessions_active{0};     // gauge
  std::atomic<int64_t> sessions_peak{0};
  std::atomic<int64_t> sessions_admitted{0};
  std::atomic<int64_t> sessions_waiting{0};    // gauge: admission queue
  std::atomic<int64_t> sessions_rejected{0};   // backlog overflow
  // Query lifecycle (batch + streaming).
  std::atomic<int64_t> queries_in_flight{0};   // gauge
  std::atomic<int64_t> queries_completed{0};
  std::atomic<int64_t> queries_cancelled{0};
  std::atomic<int64_t> queries_rejected{0};    // admission (in-flight cap)
  std::atomic<int64_t> queries_failed{0};      // typed ERROR replies
  // Wire accounting.
  std::atomic<int64_t> rows_sent{0};
  std::atomic<int64_t> frames_received{0};
  std::atomic<int64_t> protocol_errors{0};     // malformed frames/messages
  // Columnar storage (src/colstore/): datasets served from `.sqlc`
  // containers and their cumulative block/byte accounting (loads plus
  // any columnar query execution folded in via NoteStorage).
  std::atomic<int64_t> storage_datasets_columnar{0};
  std::atomic<int64_t> storage_blocks_total{0};
  std::atomic<int64_t> storage_blocks_skipped{0};
  std::atomic<int64_t> storage_bytes_read{0};
  // Replicated-stream counters (zero while no cluster runs in-process).
  ReplicationMetrics replication;

  /// Raises sessions_peak to at least `active` (call after increment).
  void NotePeak(int64_t active) {
    int64_t peak = sessions_peak.load(std::memory_order_relaxed);
    while (active > peak &&
           !sessions_peak.compare_exchange_weak(peak, active,
                                                std::memory_order_relaxed)) {
    }
  }

  /// Folds one columnar storage operation (dataset load or columnar
  /// query) into the storage counters.
  void NoteStorage(int64_t blocks_total, int64_t blocks_skipped,
                   int64_t bytes_read) {
    storage_blocks_total.fetch_add(blocks_total, std::memory_order_relaxed);
    storage_blocks_skipped.fetch_add(blocks_skipped,
                                     std::memory_order_relaxed);
    storage_bytes_read.fetch_add(bytes_read, std::memory_order_relaxed);
  }

  /// Counts one typed failure reply by status-code name.
  void NoteError(const std::string& code) {
    queries_failed.fetch_add(1, std::memory_order_relaxed);
    ts::MutexLock lock(mu_);
    ++errors_by_code_[code];
  }

  /// Folds one finished scan group's workload stats into the totals
  /// (batch coalescer after each Execute; stream hub per generation).
  void AccumulateWorkload(const MultiQueryStats& stats) {
    ts::MutexLock lock(mu_);
    workload_.shared_lookups += stats.shared_lookups;
    workload_.shared_evals += stats.shared_evals;
    workload_.cache_hits += stats.cache_hits;
    workload_.inferred_hits += stats.inferred_hits;
    workload_.private_evals += stats.private_evals;
    workload_.tuples_scanned += stats.tuples_scanned;
    coalesced_runs_ += 1;
  }

  /// One JSON object with every counter above plus the accumulated
  /// workload dedup stats; `live` (if non-null) is folded into the
  /// dedup totals as the still-running generations' snapshot.
  Json Snapshot(const MultiQueryStats* live = nullptr) const;

 private:
  mutable ts::Mutex mu_;
  std::map<std::string, int64_t> errors_by_code_ GUARDED_BY(mu_);
  /// Accumulated finished-run totals.  Non-atomic aggregates: writers
  /// (coalescer worker, hub teardown) and the Snapshot reader must all
  /// hold mu_ — GUARDED_BY makes a lock-free gauge read a build error.
  MultiQueryStats workload_ GUARDED_BY(mu_);
  int64_t coalesced_runs_ GUARDED_BY(mu_) = 0;
};

}  // namespace sqlts

#endif  // SQLTS_SERVER_METRICS_H_
