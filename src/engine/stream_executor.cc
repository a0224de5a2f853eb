#include "engine/stream_executor.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "analysis/linter.h"
#include "expr/eval.h"
#include "storage/cluster_key.h"

namespace sqlts {
namespace {

/// Streaming memo horizon per predicate per cluster and epoch: one
/// kernel block.  The cursors of one cluster test each new tuple on the
/// same push, so cross-query re-tests land near the stream head; a
/// wrapped slot only costs a re-evaluation.
constexpr int64_t kStreamCacheWindow = 256;

/// Cluster filters are constant per cluster: evaluate them on any one
/// tuple of it (they were rewritten to offset-0 references).
bool AcceptsRow(const CompiledQuery& query, const Row& row) {
  if (query.cluster_filters.empty()) return true;
  Table one(query.input_schema);
  SQLTS_CHECK_OK(one.AppendRow(row));
  return ClusterAccepted(query, SequenceView(&one, std::vector<int64_t>{0}));
}

/// How far before an attempt's start its SELECT list can read: a
/// `previous` step on a group's first tuple.  Rows it needs must stay
/// buffered (and checkpointed) as long as the pattern's own reach.
int SelectReachBack(const CompiledQuery& query) {
  int min_offset = 0;
  for (const SelectItem& item : query.select) {
    VisitColumnRefs(item.expr, [&](const ColumnRef& r) {
      min_offset = std::min(min_offset, r.nav_offset);
    });
  }
  return min_offset;
}

}  // namespace

SearchStats StreamMember::stats() const {
  const StreamEngine& e = *engine_;
  if (e.finished_) return final_stats_;
  if (e.pool_ != nullptr) return SearchStats{};  // meaningful after Finish
  SearchStats total;
  for (const auto& [ordinal, cs] : e.shards_[0]->clusters) {
    if (cs.stream.has_cursor(index_)) total += cs.stream.stats(index_);
  }
  return total;
}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    const Schema& schema, const CompiledQuery& first,
    const ExecOptions& options) {
  std::vector<int> cluster_cols, sequence_cols;
  for (const std::string& c : first.cluster_by) {
    SQLTS_ASSIGN_OR_RETURN(int idx, schema.FindColumn(c));
    cluster_cols.push_back(idx);
  }
  for (const std::string& c : first.sequence_by) {
    SQLTS_ASSIGN_OR_RETURN(int idx, schema.FindColumn(c));
    sequence_cols.push_back(idx);
  }
  return std::unique_ptr<StreamEngine>(new StreamEngine(
      schema, std::move(cluster_cols), std::move(sequence_cols), options));
}

StreamEngine::StreamEngine(const Schema& schema, std::vector<int> cluster_cols,
                           std::vector<int> sequence_cols,
                           const ExecOptions& options)
    : schema_(schema),
      cluster_cols_(std::move(cluster_cols)),
      sequence_cols_(std::move(sequence_cols)),
      num_threads_(std::max(1, options.num_threads)),
      compile_(options.compile),
      vectorize_(options.vectorize),
      catalog_(schema, options.compile.oracle) {
  shards_.reserve(num_threads_);
  for (int s = 0; s < num_threads_; ++s) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ShardPool>(
        num_threads_, options.shard_queue_capacity,
        [this](int shard, ShardPool::Task&& task) {
          ProcessTask(shard, task);
        });
  }
}

StreamEngine::~StreamEngine() {
  if (pool_ != nullptr) pool_->Finish();
}

void StreamEngine::Quiesce() {
  if (pool_ != nullptr && !finished_) pool_->Drain();
}

StatusOr<int> StreamEngine::AddMember(CompiledQuery query, RowCallback on_row,
                                      const ExecGovernance& governance,
                                      int64_t epoch) {
  if (finished_) return Status::InvalidArgument("AddQuery after Finish");
  SQLTS_RETURN_IF_ERROR(RefuseProvablyEmpty(query, compile_));
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan, CompilePattern(query, compile_));
  SQLTS_ASSIGN_OR_RETURN(int min_offset, OpsStreamMatcher::ReachBack(plan));
  // Shard workers read the member table and the catalog between
  // pushes: let them go idle before either grows.
  Quiesce();
  if (pool_ != nullptr) SQLTS_RETURN_IF_ERROR(pool_->first_error());
  auto m = std::unique_ptr<StreamMember>(new StreamMember());
  m->engine_ = this;
  m->index_ = static_cast<int>(members_.size());
  m->epoch_ = epoch;
  m->conjuncts_ = RegisterQueryConjuncts(query, &catalog_);
  m->min_offset_ = std::min(min_offset, SelectReachBack(query));
  m->query_ = std::move(query);
  m->plan_ = std::move(plan);
  m->on_row_ = std::move(on_row);
  m->governance_ = governance;
  members_.push_back(std::move(m));
  for (auto& st : shards_) st->errors.resize(members_.size());
  return static_cast<int>(members_.size()) - 1;
}

void StreamEngine::RemoveMember(int index) {
  Quiesce();
  StreamMember& m = *members_[index];
  m.removed_ = true;
  m.on_row_ = nullptr;
  const bool epoch_live =
      std::any_of(members_.begin(), members_.end(), [&m](const auto& o) {
        return !o->removed_ && o->epoch_ == m.epoch_;
      });
  for (auto& st : shards_) {
    for (auto& [ordinal, cs] : st->clusters) {
      cs.stream.DropCursor(index);
      if (index < static_cast<int>(cs.evaluators.size())) {
        cs.evaluators[index].reset();
      }
      // The epoch's last member took the last evaluator pointing in.
      if (!epoch_live) cs.caches.erase(m.epoch_);
    }
    std::erase_if(st->out,
                  [index](const TaggedRow& r) { return r.member == index; });
  }
}

int StreamEngine::num_live_members() const {
  int live = 0;
  for (const auto& m : members_) live += m->removed_ ? 0 : 1;
  return live;
}

StreamEngine::RouteInfo* StreamEngine::RouteFor(const Row& row) {
  EncodeClusterKey(row, cluster_cols_, &route_key_);
  auto it = routes_.find(route_key_);
  if (it != routes_.end()) return &it->second;
  RouteInfo info;
  info.ordinal = static_cast<uint64_t>(routes_.size());
  info.shard = pool_ != nullptr ? pool_->ShardFor(route_key_) : 0;
  return &routes_.emplace(route_key_, std::move(info)).first->second;
}

bool StreamEngine::Accepts(RouteInfo* info, int k, const Row& row) {
  if (static_cast<int>(info->accepts.size()) <= k) {
    info->accepts.resize(k + 1, -1);
  }
  if (info->accepts[k] < 0) {
    info->accepts[k] = AcceptsRow(members_[k]->query_, row) ? 1 : 0;
  }
  return info->accepts[k] == 1;
}

Status StreamEngine::CheckSequenceOrder(const Row& row, RouteInfo* info) {
  if (sequence_cols_.empty()) return Status::OK();
  if (info->has_last) {
    // Lexicographic comparison of the full SEQUENCE BY tuple; a NULL or
    // incomparable component ends the comparison (conservative accept).
    int verdict = 0;
    for (size_t k = 0; k < sequence_cols_.size(); ++k) {
      const Value& cur = row[sequence_cols_[k]];
      const Value& prev = info->last_seq_key[k];
      if (cur.is_null() || prev.is_null()) break;
      auto cmp = cur.Compare(prev);
      if (!cmp.ok()) break;
      if (*cmp != 0) {
        verdict = *cmp;
        break;
      }
    }
    if (verdict < 0) {
      return Status::InvalidArgument(
          "stream tuple out of SEQUENCE BY order within its cluster");
    }
  }
  info->last_seq_key.clear();
  for (int c : sequence_cols_) info->last_seq_key.push_back(row[c]);
  info->has_last = true;
  return Status::OK();
}

Status StreamEngine::Push(Row row, std::vector<MemberError>* errors) {
  if (finished_) return Status::InvalidArgument("Push after Finish");
  const int n = static_cast<int>(members_.size());
  const size_t refusals = errors->size();  // this push's errors start here
  taking_.assign(n, 0);
  bool any = false;
  for (int k = 0; k < n; ++k) {
    StreamMember& m = *members_[k];
    if (m.removed_) continue;
    Status st = m.stopped_;
    if (st.ok()) st = m.governance_.Check();
    if (st.ok()) st = m.governance_.Fault("stream.push");
    if (!st.ok()) {
      errors->push_back({k, std::move(st)});
      continue;
    }
    taking_[k] = 1;
    any = true;
  }
  if (!any) return Status::OK();
  ++consumed_;
  // Arity, types and order are properties of the tuple, not of a
  // member: a malformed tuple is buffered for nobody, and each member
  // taking it counts or reports it under its own policy.
  Status bad = CheckStreamRow(schema_, &row);
  RouteInfo* info = bad.ok() ? RouteFor(row) : nullptr;
  if (info != nullptr) {
    bool accepted = false;
    for (int k = 0; k < n; ++k) {
      if (taking_[k]) taking_[k] = Accepts(info, k, row);
      accepted = accepted || taking_[k];
    }
    if (!accepted) return Status::OK();
    bad = CheckSequenceOrder(row, info);
  }
  if (!bad.ok()) {
    for (int k = 0; k < n; ++k) {
      if (!taking_[k]) continue;
      if (members_[k]->governance_.bad_input ==
          BadInputPolicy::kSkipAndCount) {
        ++members_[k]->rows_skipped_;
      } else {
        errors->push_back({k, bad});
      }
    }
    return Status::OK();
  }
  ++push_tag_;
  if (pool_ != nullptr) {
    bool enqueue = false;
    for (int k = 0; k < n; ++k) {
      if (!taking_[k]) continue;
      Status st = members_[k]->governance_.Fault("shard.enqueue");
      taking_[k] = st.ok();
      enqueue = enqueue || st.ok();
      if (!st.ok()) errors->push_back({k, std::move(st)});
    }
    if (!enqueue) return Status::OK();
  }
  // The tuple enters its cluster's buffer: a member that refused it
  // would find it there on its next tuple, so it stops here for good.
  for (size_t e = refusals; e < errors->size(); ++e) {
    Status& stopped = members_[(*errors)[e].index]->stopped_;
    if (stopped.ok()) stopped = (*errors)[e].status;
  }
  ShardPool::Task task{std::move(row), info->ordinal, push_tag_,
                       std::move(taking_)};
  if (pool_ != nullptr) {
    pool_->Push(info->shard, std::move(task));
    return Status::OK();
  }
  ProcessTask(0, task);
  taking_ = std::move(task.takers);
  // Single-threaded, a member's matcher error surfaces on every push
  // that reaches it (the sharded path surfaces it from Finish).
  const ShardState& st = *shards_[0];
  for (int k = 0; k < n; ++k) {
    if (taking_[k] && !st.errors[k].ok()) errors->push_back({k, st.errors[k]});
  }
  return Status::OK();
}

void StreamEngine::MakeCursor(int shard, uint64_t ordinal, ClusterState* cs,
                              int k) {
  StreamMember& m = *members_[k];
  std::unique_ptr<SharedClusterCache>& cache = cs->caches[m.epoch_];
  if (cache == nullptr) {
    cache = std::make_unique<SharedClusterCache>(&catalog_, kStreamCacheWindow,
                                                 vectorize_);
  }
  if (static_cast<int>(cs->evaluators.size()) <= k) {
    cs->evaluators.resize(k + 1);
  }
  cs->evaluators[k] = std::make_unique<MultiQueryEvaluator>(
      &m.conjuncts_, cache.get(), &counters_);
  cs->stream.AddCursor(
      k, &m.plan_, m.min_offset_,
      [this, shard, ordinal, k](const Match& match, const SequenceView& v,
                                int64_t base) {
        EmitRow(shard, ordinal, k, match, v, base);
      },
      &m.governance_, &m.ledger_, cs->evaluators[k].get());
}

void StreamEngine::ProcessTask(int shard, ShardPool::Task& task) {
  ShardState& st = *shards_[shard];
  ClusterState& cs =
      st.clusters.try_emplace(task.cluster, schema_).first->second;
  for (int k = 0; k < static_cast<int>(task.takers.size()); ++k) {
    if (!st.errors[k].ok()) continue;
    if (task.takers[k] && !cs.stream.has_cursor(k)) {
      // The member's first tuple of this cluster since it joined: its
      // cursor's floor is here.
      MakeCursor(shard, task.cluster, &cs, k);
    } else if (!task.takers[k] && cs.stream.has_cursor(k)) {
      // Stopped at the router (its cluster filter never changes): the
      // cursor must not see this tuple, so it retires on it.
      st.errors[k] = members_[k]->stopped_;
    }
  }
  st.current_tag = task.tag;
  ++st.processed;
  cs.stream.Push(std::move(task.row), &st.errors);
}

void StreamEngine::EmitRow(int shard, uint64_t ordinal, int k,
                           const Match& match, const SequenceView& view,
                           int64_t base) {
  StreamMember& m = *members_[k];
  if (!m.on_row_) return;
  // Translate spans into view coordinates for SELECT evaluation.
  std::vector<GroupSpan> rel(match.spans.size());
  for (size_t e = 0; e < match.spans.size(); ++e) {
    rel[e] = GroupSpan{match.spans[e].first - base,
                       match.spans[e].last - base};
  }
  EvalContext ctx;
  ctx.seq = &view;
  ctx.pos = 0;
  ctx.spans = &rel;
  Row out;
  out.reserve(m.query_.select.size());
  for (const SelectItem& item : m.query_.select) {
    out.push_back(EvalExpr(*item.expr, ctx));
  }
  if (pool_ == nullptr) {
    ++m.rows_emitted_;
    m.on_row_(out);
    return;
  }
  ShardState& st = *shards_[shard];
  const int64_t seq = st.clusters.at(ordinal).stream.stats(k).matches;
  st.out.push_back(TaggedRow{k, st.current_tag, seq, std::move(out)});
}

void StreamEngine::FlushBufferedRows(const std::vector<char>& deliver) {
  std::vector<TaggedRow> all;
  for (const auto& st : shards_) {
    for (TaggedRow& tr : st->out) all.push_back(std::move(tr));
    st->out.clear();
  }
  // Deterministic ordered merge: each member gets its rows exactly as
  // the single-threaded path emits them (by completing push, then by
  // per-cluster emission order).
  std::sort(all.begin(), all.end(),
            [](const TaggedRow& a, const TaggedRow& b) {
              return std::tie(a.member, a.tag, a.seq) <
                     std::tie(b.member, b.tag, b.seq);
            });
  for (const TaggedRow& tr : all) {
    if (!deliver[tr.member]) continue;
    StreamMember& m = *members_[tr.member];
    ++m.rows_emitted_;
    m.on_row_(tr.row);
  }
}

Status StreamEngine::Finish() {
  if (!finished_) {
    finished_ = true;
    if (pool_ != nullptr) pool_->Finish();  // barrier: drains and joins
    std::vector<char> deliver(members_.size(), 0);
    for (int k = 0; k < static_cast<int>(members_.size()); ++k) {
      StreamMember& m = *members_[k];
      if (m.removed_) continue;
      const Status gov = m.governance_.Check();
      deliver[k] = gov.ok();
      // Close trailing star groups.  Clusters finish in encoded-key
      // order, with Finish-time emissions tagged after every push so
      // the merge keeps them last.
      // A member that failed stays as it stopped.
      uint64_t tag = push_tag_;
      for (auto& [key, info] : routes_) {
        if (!gov.ok() || !m.stopped_.ok()) break;
        ShardState& st = *shards_[info.shard];
        auto it = st.clusters.find(info.ordinal);
        if (!st.errors[k].ok() || it == st.clusters.end() ||
            !it->second.stream.has_cursor(k)) {
          continue;
        }
        st.current_tag = ++tag;
        const Status finished = it->second.stream.FinishCursor(k);
        if (!finished.ok()) {
          // Cancelled or out of time part-way: rows already delivered
          // stay delivered; the remaining clusters are not finished.
          if (st.errors[k].ok()) st.errors[k] = finished;
          break;
        }
      }
      // Statistics and outcome: the first shard error, then a router
      // stop, then exceptions caught at the worker boundary, then
      // governance.
      m.final_shard_stats_.assign(shards_.size(), ShardStats{});
      Status status = Status::OK();
      for (size_t s = 0; s < shards_.size(); ++s) {
        const ShardState& st = *shards_[s];
        ShardStats& out = m.final_shard_stats_[s];
        out.tuples_pushed = st.processed;
        out.queue_high_water =
            pool_ != nullptr ? pool_->queue_high_water(static_cast<int>(s))
                             : 0;
        for (const auto& [ordinal, cs] : st.clusters) {
          if (!cs.stream.has_cursor(k)) continue;
          ++out.clusters;
          out.search += cs.stream.stats(k);
          out.buffered_tuples_high += cs.stream.peak_buffered();
          out.buffered_bytes_high += cs.stream.peak_buffered_bytes();
        }
        if (status.ok()) status = st.errors[k];
      }
      // The router counts skips (thread-count independent); attribute
      // them to the first shard's entry so they survive aggregation.
      m.final_shard_stats_[0].rows_skipped = m.rows_skipped_;
      if (status.ok()) status = m.stopped_;
      if (status.ok() && pool_ != nullptr) status = pool_->first_error();
      m.final_status_ = status.ok() ? gov : status;
      m.final_stats_ = TotalSearchStats(m.final_shard_stats_);
    }
    if (pool_ != nullptr) FlushBufferedRows(deliver);
  }
  for (const auto& m : members_) {
    if (!m->removed_ && !m->final_status_.ok()) return m->final_status_;
  }
  return Status::OK();
}

Status StreamEngine::Save(CheckpointWriter* w) {
  if (finished_) return Status::InvalidArgument("Checkpoint after Finish");
  if (pool_ != nullptr) {
    pool_->Drain();  // quiesce: workers idle, their state visible
    SQLTS_RETURN_IF_ERROR(pool_->first_error());
  }
  for (int k = 0; k < static_cast<int>(members_.size()); ++k) {
    if (members_[k]->removed_) continue;
    SQLTS_RETURN_IF_ERROR(members_[k]->stopped_);
    for (const auto& st : shards_) SQLTS_RETURN_IF_ERROR(st->errors[k]);
  }
  // Buffered output precedes the checkpoint: deliver it now so a
  // resumed run never re-emits it (exactly-once), and so the payload
  // below is identical at every thread count.
  if (pool_ != nullptr) {
    FlushBufferedRows(std::vector<char>(members_.size(), 1));
  }
  w->WriteI64(consumed_);
  w->WriteU64(push_tag_);
  w->WriteU64(members_.size());
  for (const auto& m : members_) {
    w->WriteI64(m->rows_skipped_);
    w->WriteI64(m->rows_emitted_);
  }
  w->WriteU64(routes_.size());
  for (const auto& [key, info] : routes_) {
    w->WriteString(key);
    w->WriteBool(info.has_last);
    w->WriteU32(static_cast<uint32_t>(info.last_seq_key.size()));
    for (const Value& v : info.last_seq_key) w->WriteValue(v);
    const ShardState& st = *shards_[info.shard];
    auto it = st.clusters.find(info.ordinal);
    w->WriteBool(it != st.clusters.end());
    if (it != st.clusters.end()) it->second.stream.Checkpoint(w);
  }
  return Status::OK();
}

Status StreamEngine::Load(CheckpointReader* r) {
  if (finished_ || consumed_ != 0 || push_tag_ != 0 || !routes_.empty()) {
    return Status::InvalidArgument(
        "Restore requires a freshly created executor");
  }
  SQLTS_ASSIGN_OR_RETURN(consumed_, r->ReadI64());
  SQLTS_ASSIGN_OR_RETURN(push_tag_, r->ReadU64());
  SQLTS_ASSIGN_OR_RETURN(uint64_t members, r->ReadU64());
  if (members != members_.size()) {
    return Status::IoError("checkpoint has " + std::to_string(members) +
                           " queries, this executor " +
                           std::to_string(members_.size()));
  }
  for (auto& m : members_) {
    SQLTS_ASSIGN_OR_RETURN(m->rows_skipped_, r->ReadI64());
    SQLTS_ASSIGN_OR_RETURN(m->rows_emitted_, r->ReadI64());
  }
  SQLTS_ASSIGN_OR_RETURN(uint64_t route_count, r->ReadU64());
  for (uint64_t n = 0; n < route_count; ++n) {
    SQLTS_ASSIGN_OR_RETURN(std::string key, r->ReadString());
    RouteInfo info;
    info.ordinal = static_cast<uint64_t>(routes_.size());
    // Shard placement is a property of this engine's pool, not of the
    // checkpoint: recompute it, so thread counts may differ across the
    // kill/restore boundary.
    info.shard = pool_ != nullptr ? pool_->ShardFor(key) : 0;
    SQLTS_ASSIGN_OR_RETURN(info.has_last, r->ReadBool());
    SQLTS_ASSIGN_OR_RETURN(uint32_t seq_vals, r->ReadU32());
    for (uint32_t k = 0; k < seq_vals; ++k) {
      SQLTS_ASSIGN_OR_RETURN(Value v, r->ReadValue());
      info.last_seq_key.push_back(std::move(v));
    }
    SQLTS_ASSIGN_OR_RETURN(bool has_cluster, r->ReadBool());
    if (has_cluster) {
      ClusterState cs(schema_);
      SQLTS_RETURN_IF_ERROR(cs.stream.RestoreState(r, [&](int k) {
        if (k < 0 || k >= static_cast<int>(members_.size()) ||
            members_[k]->removed_ || cs.stream.has_cursor(k)) {
          return Status::IoError("checkpoint cursor has no live query");
        }
        MakeCursor(info.shard, info.ordinal, &cs, k);
        return Status::OK();
      }));
      // Workers are parked: the first task for this shard is enqueued
      // under its mutex, which publishes this insert to the worker.
      shards_[info.shard]->clusters.emplace(info.ordinal, std::move(cs));
    }
    if (!routes_.emplace(std::move(key), std::move(info)).second) {
      return Status::IoError("checkpoint contains a duplicate cluster key");
    }
  }
  return Status::OK();
}

int64_t StreamEngine::num_epoch_caches() {
  Quiesce();
  int64_t total = 0;
  for (const auto& st : shards_) {
    for (const auto& [ordinal, cs] : st->clusters) total += cs.caches.size();
  }
  return total;
}

StatusOr<std::unique_ptr<StreamingQueryExecutor>>
StreamingQueryExecutor::Create(std::string_view query_text,
                               const Schema& schema, RowCallback on_row,
                               const ExecOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(query_text, schema));
  SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<StreamEngine> engine,
                         StreamEngine::Create(schema, query, options));
  SQLTS_RETURN_IF_ERROR(engine
                            ->AddMember(std::move(query), std::move(on_row),
                                        options.governance, /*epoch=*/0)
                            .status());
  return std::unique_ptr<StreamingQueryExecutor>(new StreamingQueryExecutor(
      std::string(query_text), std::move(engine)));
}

Status StreamingQueryExecutor::Push(Row row) {
  std::vector<StreamEngine::MemberError> errors;
  SQLTS_RETURN_IF_ERROR(engine_->Push(std::move(row), &errors));
  return errors.empty() ? Status::OK() : errors.front().status;
}

Status StreamingQueryExecutor::Checkpoint(std::string* out) {
  CheckpointWriter w;
  w.WriteString(query_text_);
  w.WriteString(engine_->schema().ToString());
  SQLTS_RETURN_IF_ERROR(engine_->Save(&w));
  *out = w.Finalize();
  return Status::OK();
}

Status StreamingQueryExecutor::Restore(std::string_view bytes) {
  SQLTS_ASSIGN_OR_RETURN(std::string_view payload, OpenCheckpoint(bytes));
  CheckpointReader r(payload);
  SQLTS_ASSIGN_OR_RETURN(std::string query_text, r.ReadString());
  if (query_text != query_text_) {
    return Status::InvalidArgument(
        "checkpoint was taken by a different query text");
  }
  const std::string schema = engine_->schema().ToString();
  SQLTS_ASSIGN_OR_RETURN(std::string schema_text, r.ReadString());
  if (schema_text != schema) {
    return Status::InvalidArgument("checkpoint input schema [" + schema_text +
                                   "] does not match this executor's [" +
                                   schema + "]");
  }
  SQLTS_RETURN_IF_ERROR(engine_->Load(&r));
  if (r.remaining() != 0) {
    return Status::IoError("checkpoint has " + std::to_string(r.remaining()) +
                           " trailing bytes after the last cluster");
  }
  return Status::OK();
}

}  // namespace sqlts
