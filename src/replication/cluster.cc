#include "replication/cluster.h"

#include <algorithm>
#include <utility>

#include "multiquery/multi_stream.h"

namespace sqlts {
namespace replication {
namespace {

/// Canonical SearchStats rendering.
std::string StatsString(const SearchStats& s) {
  return "evals=" + std::to_string(s.evaluations) +
         ";presat=" + std::to_string(s.presat_skips) +
         ";jumps=" + std::to_string(s.jumps) +
         ";matches=" + std::to_string(s.matches);
}

/// Adapter over a MultiStreamExecutor query set (channel i = query i);
/// a single query is the set of one.
/// Construction creates the empty executor; InitFresh registers the
/// query set, Restore reinstates a replicated checkpoint instead (the
/// MultiStreamExecutor::Restore contract requires a fresh instance with
/// no queries registered).
class MultiQueryEngine : public ReplicatedEngine {
 public:
  MultiQueryEngine(std::unique_ptr<MultiStreamExecutor> exec,
                   std::vector<std::string> queries, EngineSinks sinks)
      : exec_(std::move(exec)),
        queries_(std::move(queries)),
        sinks_(std::move(sinks)) {}

  Status InitFresh() override {
    for (size_t i = 0; i < queries_.size(); ++i) {
      SQLTS_ASSIGN_OR_RETURN(int id, exec_->AddQuery(queries_[i], sinks_[i]));
      if (id != static_cast<int>(i)) {
        return Status::Internal("multi-query registration id " +
                                std::to_string(id) + " != channel " +
                                std::to_string(i));
      }
    }
    return Status::OK();
  }
  Status Push(const Row& row) override { return exec_->Push(row); }
  Status Finish() override { return exec_->Finish(); }
  Status Checkpoint(std::string* out) override {
    return exec_->Checkpoint(out);
  }
  Status Restore(std::string_view bytes) override {
    return exec_->Restore(bytes, [this](int index, const std::string&) {
      return sinks_[index];
    });
  }
  int64_t rows_consumed() const override { return exec_->rows_consumed(); }
  std::vector<int64_t> watermarks() const override {
    std::vector<int64_t> wm(queries_.size(), 0);
    for (size_t i = 0; i < queries_.size(); ++i) {
      StatusOr<int64_t> emitted = exec_->rows_emitted(static_cast<int>(i));
      wm[i] = emitted.ok() ? *emitted : 0;
    }
    return wm;
  }
  std::string StatsFingerprint() const override {
    // Per-query matcher stats only: deterministic at every thread count
    // and persisted across Checkpoint/Restore, unlike the shared-cache
    // hit counters (which legitimately differ when a replayed suffix
    // re-populates the memo caches).
    std::string fp;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const StreamMember* q = exec_->query(static_cast<int>(i));
      if (!fp.empty()) fp += "|";
      fp += q != nullptr ? StatsString(q->stats()) : "removed";
    }
    return fp;
  }

 private:
  std::unique_ptr<MultiStreamExecutor> exec_;
  std::vector<std::string> queries_;
  EngineSinks sinks_;
};

}  // namespace

EngineFactory MakeSingleQueryEngineFactory(std::string query_text,
                                           Schema schema,
                                           ExecOptions options) {
  return MakeMultiQueryEngineFactory({std::move(query_text)},
                                     std::move(schema), std::move(options));
}

EngineFactory MakeMultiQueryEngineFactory(std::vector<std::string> queries,
                                          Schema schema, ExecOptions options) {
  return [queries = std::move(queries), schema = std::move(schema),
          options](const EngineSinks& sinks)
             -> StatusOr<std::unique_ptr<ReplicatedEngine>> {
    if (sinks.size() != queries.size()) {
      return Status::InvalidArgument(
          "multi-query engine factory needs " +
          std::to_string(queries.size()) + " sinks, got " +
          std::to_string(sinks.size()));
    }
    SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<MultiStreamExecutor> exec,
                           MultiStreamExecutor::Create(schema, options));
    return std::unique_ptr<ReplicatedEngine>(
        new MultiQueryEngine(std::move(exec), queries, sinks));
  };
}

std::string FingerprintRow(const Row& row) {
  std::string fp = std::to_string(row.size());
  for (const Value& v : row) {
    fp += '\x1f';
    fp += v.ToString();
  }
  return fp;
}

Status DedupSink::Accept(int64_t seq, const Row& row) {
  const int64_t next = next_expected();
  if (seq < next) {
    // Replayed output below the watermark: exactly-once requires it to
    // be bit-identical to what was originally delivered at this seq.
    if (FingerprintRow(row) != fingerprints_[seq]) {
      return Status::Internal(
          "replayed row at seq " + std::to_string(seq) +
          " differs from the originally delivered row");
    }
    ++dups_;
    return Status::OK();
  }
  if (seq > next) {
    return Status::Internal("output gap: received seq " +
                            std::to_string(seq) + " while expecting " +
                            std::to_string(next) + " (rows lost)");
  }
  fingerprints_.push_back(FingerprintRow(row));
  delivered_.push_back(row);
  return Status::OK();
}

ReplicatedCluster::ReplicatedCluster(EngineFactory factory, int num_channels,
                                     const std::vector<Row>* source,
                                     ClusterOptions options,
                                     ReplicationMetrics* metrics)
    : factory_(std::move(factory)),
      num_channels_(num_channels),
      source_(source),
      options_(options),
      metrics_(metrics),
      sinks_(num_channels) {}

ReplicatedCluster::~ReplicatedCluster() = default;

StatusOr<std::unique_ptr<ReplicatedEngine>> ReplicatedCluster::MakeEngine() {
  EngineSinks sinks;
  sinks.reserve(num_channels_);
  for (int c = 0; c < num_channels_; ++c) {
    sinks.push_back([this, c](const Row& row) { OnEmit(c, row); });
  }
  return factory_(sinks);
}

void ReplicatedCluster::OnEmit(int channel, const Row& row) {
  const int64_t seq =
      primary_->seq_base[channel] + primary_->seq_count[channel]++;
  Status s = sinks_[channel].Accept(seq, row);
  if (!s.ok() && sink_error_.ok()) sink_error_ = s;
}

Status ReplicatedCluster::Start() {
  if (started_) {
    return Status::InvalidArgument("cluster already started");
  }
  started_ = true;
  for (int i = 0; i < options_.num_standbys; ++i) {
    standbys_.push_back(std::make_unique<StandbyNode>(i));
  }
  std::vector<StandbyNode*> ptrs;
  for (auto& s : standbys_) ptrs.push_back(s.get());
  // Majority of the full cluster (primary + standbys), expressed as
  // standby acks: the smallest quorum under which any majority of
  // survivors contains a node holding every committed entry.
  int quorum = options_.quorum_acks >= 0 ? options_.quorum_acks
                                         : (options_.num_standbys + 1) / 2;
  quorum = std::min(quorum, options_.num_standbys);
  log_ = std::make_unique<ReplicationLog>(options_.seed, options_.transport,
                                          std::move(ptrs), quorum);
  term_ = 1;
  primary_ = std::make_unique<PrimaryState>();
  primary_->seq_base.assign(num_channels_, 0);
  primary_->seq_count.assign(num_channels_, 0);
  SQLTS_ASSIGN_OR_RETURN(primary_->engine, MakeEngine());
  SQLTS_RETURN_IF_ERROR(primary_->engine->InitFresh());
  FoldMetrics();
  return Status::OK();
}

Status ReplicatedCluster::Step() {
  if (!started_ || finished_) {
    return Status::InvalidArgument("cluster not running");
  }
  if (primary_ == nullptr) {
    return Status::InvalidArgument("no primary alive (promote a standby)");
  }
  if (position_ >= source_size()) {
    return Status::InvalidArgument("source exhausted");
  }
  if (options_.heartbeat_interval > 0 &&
      tick_ % options_.heartbeat_interval == 0) {
    log_->Heartbeat(term_, tick_);
  }
  SQLTS_RETURN_IF_ERROR(primary_->engine->Push((*source_)[position_]));
  ++position_;
  ++tick_;
  log_->Tick(tick_);
  SQLTS_RETURN_IF_ERROR(sink_error_);
  if (options_.checkpoint_interval > 0 &&
      primary_->engine->rows_consumed() % options_.checkpoint_interval == 0) {
    SQLTS_RETURN_IF_ERROR(ReplicateCheckpoint());
  }
  FoldMetrics();
  return Status::OK();
}

Status ReplicatedCluster::ReplicateCheckpoint() {
  LogEntry entry;
  entry.term = term_;
  entry.index = next_index_++;
  // Checkpoint() flushes buffered output rows first (they are "before"
  // the checkpoint), so the watermarks read afterwards cover exactly
  // the rows a restored engine will not re-emit.
  SQLTS_RETURN_IF_ERROR(primary_->engine->Checkpoint(&entry.checkpoint));
  SQLTS_RETURN_IF_ERROR(sink_error_);
  entry.covered_offset = primary_->engine->rows_consumed();
  entry.watermarks = primary_->engine->watermarks();
  return log_->Append(entry);
}

Status ReplicatedCluster::KillPrimary() {
  if (primary_ == nullptr) {
    return Status::InvalidArgument("no primary to kill");
  }
  // Process death: the engine and every in-memory structure vanish.
  // Only the replicated log entries on the standbys survive.
  primary_.reset();
  FoldMetrics();
  return Status::OK();
}

StatusOr<int> ReplicatedCluster::Promote(uint64_t draw, bool allow_lagging) {
  if (primary_ != nullptr) {
    return Status::InvalidArgument("primary still alive");
  }
  if (standbys_.empty()) {
    return Status::Internal("no standby left to promote");
  }
  // Failure detection: advance time (no heartbeats are flowing) until
  // every surviving standby's lease has expired and all in-flight
  // transport deliveries from the dead term have landed.
  auto all_expired = [&] {
    for (const auto& s : standbys_) {
      if (!s->LeaseExpired(tick_, options_.lease_ticks)) return false;
    }
    return true;
  };
  while (!all_expired()) {
    ++tick_;
    log_->Tick(tick_);
  }
  for (int64_t i = 0; i < options_.transport.max_delay_ticks + 1; ++i) {
    ++tick_;
    log_->Tick(tick_);
  }

  // Eligibility: by default only the most-caught-up standbys (maximal
  // (term, index)); with allow_lagging any standby, to prove the
  // watermark protocol keeps even a stale promotion exactly-once.
  uint64_t best_term = 0, best_index = 0;
  for (const auto& s : standbys_) {
    if (s->latest_term() > best_term ||
        (s->latest_term() == best_term && s->latest_index() > best_index)) {
      best_term = s->latest_term();
      best_index = s->latest_index();
    }
  }
  std::vector<size_t> eligible;
  for (size_t i = 0; i < standbys_.size(); ++i) {
    if (allow_lagging || (standbys_[i]->latest_term() == best_term &&
                          standbys_[i]->latest_index() == best_index)) {
      eligible.push_back(i);
    }
  }
  const size_t pick = eligible[draw % eligible.size()];
  std::unique_ptr<StandbyNode> node = std::move(standbys_[pick]);
  standbys_.erase(standbys_.begin() + pick);
  log_->RemoveStandby(node->id());
  if (node->latest_term() != best_term || node->latest_index() != best_index) {
    ++lagging_promotions_;
  }

  term_ = std::max(term_, best_term) + 1;
  ++failovers_;
  SQLTS_RETURN_IF_ERROR(RestoreAndReplay(node.get()));
  FoldMetrics();
  return node->id();
}

Status ReplicatedCluster::RestoreAndReplay(const StandbyNode* node) {
  primary_ = std::make_unique<PrimaryState>();
  primary_->seq_base.assign(num_channels_, 0);
  primary_->seq_count.assign(num_channels_, 0);
  SQLTS_ASSIGN_OR_RETURN(primary_->engine, MakeEngine());

  int64_t from = 0;
  if (node->latest() != nullptr) {
    const LogEntry& entry = *node->latest();
    SQLTS_RETURN_IF_ERROR(primary_->engine->Restore(entry.checkpoint));
    from = entry.covered_offset;
    // Cross-check: the engine's restored watermarks must equal the ones
    // the entry was replicated with — the exactly-once invariant that
    // checkpoint bytes and coverage metadata never drift apart.
    const std::vector<int64_t> restored = primary_->engine->watermarks();
    if (restored != entry.watermarks) {
      return Status::Internal(
          "restored watermarks disagree with replicated entry " +
          std::to_string(entry.index));
    }
  } else {
    // A standby that never received an entry restarts from scratch
    // (only reachable with allow_lagging); the full stream is replayed
    // and the dedup watermark suppresses everything already delivered.
    SQLTS_RETURN_IF_ERROR(primary_->engine->InitFresh());
  }
  primary_->seq_base = primary_->engine->watermarks();
  primary_->seq_count.assign(num_channels_, 0);

  // Replay the uncovered source suffix.  Normal checkpoint cadence
  // applies — the new primary replicates to the surviving standbys as
  // it catches up, so a second failover mid-replay stays covered.
  for (int64_t i = from; i < position_; ++i) {
    SQLTS_RETURN_IF_ERROR(primary_->engine->Push((*source_)[i]));
    ++rows_replayed_;
    SQLTS_RETURN_IF_ERROR(sink_error_);
    if (options_.checkpoint_interval > 0 &&
        primary_->engine->rows_consumed() % options_.checkpoint_interval ==
            0) {
      SQLTS_RETURN_IF_ERROR(ReplicateCheckpoint());
    }
  }
  return sink_error_;
}

Status ReplicatedCluster::Finish() {
  if (!started_ || finished_) {
    return Status::InvalidArgument("cluster not running");
  }
  if (primary_ == nullptr) {
    return Status::InvalidArgument("no primary alive (promote a standby)");
  }
  finished_ = true;
  SQLTS_RETURN_IF_ERROR(primary_->engine->Finish());
  SQLTS_RETURN_IF_ERROR(sink_error_);
  FoldMetrics();
  return Status::OK();
}

int64_t ReplicatedCluster::duplicates_dropped() const {
  int64_t total = 0;
  for (const DedupSink& s : sinks_) total += s.duplicates_dropped();
  return total;
}

std::string ReplicatedCluster::StatsFingerprint() const {
  return primary_ != nullptr ? primary_->engine->StatsFingerprint()
                             : std::string();
}

void ReplicatedCluster::FoldMetrics() {
  if (metrics_ == nullptr) return;
  const ReplicationCounters& c = log_->counters();
  metrics_->entries_appended.store(c.entries_appended);
  metrics_->entries_committed.store(
      static_cast<int64_t>(log_->committed_index()));
  metrics_->entries_dropped.store(c.drops);
  metrics_->entries_delayed.store(c.delays);
  metrics_->entries_retransmitted.store(c.retransmits);
  metrics_->stale_entries_ignored.store(c.stale_ignored);
  metrics_->heartbeats_sent.store(c.heartbeats);
  metrics_->failovers.store(failovers_);
  metrics_->lagging_promotions.store(lagging_promotions_);
  metrics_->rows_replayed.store(rows_replayed_);
  metrics_->rows_deduplicated.store(duplicates_dropped());
  metrics_->standbys_active.store(log_->num_standbys());
  metrics_->committed_index.store(static_cast<int64_t>(log_->committed_index()));
  int64_t watermark = 0;
  for (const DedupSink& s : sinks_) watermark += s.next_expected();
  metrics_->output_watermark.store(watermark);
}

}  // namespace replication
}  // namespace sqlts
