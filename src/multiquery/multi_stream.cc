#include "multiquery/multi_stream.h"

#include <algorithm>
#include <utility>

#include "engine/checkpoint.h"
#include "engine/shared_cache.h"

namespace sqlts {

StatusOr<std::unique_ptr<MultiStreamExecutor>> MultiStreamExecutor::Create(
    Schema schema, const ExecOptions& options) {
  return std::unique_ptr<MultiStreamExecutor>(
      new MultiStreamExecutor(std::move(schema), options));
}

StatusOr<int> MultiStreamExecutor::AddQuery(std::string_view query_text,
                                            RowCallback on_row,
                                            const ExecGovernance* governance) {
  ts::MutexLock lock(mu_);
  return AddQueryLocked(query_text, std::move(on_row), pushed_, governance);
}

StatusOr<int> MultiStreamExecutor::AddQueryLocked(
    std::string_view query_text, RowCallback on_row, int64_t epoch,
    const ExecGovernance* governance) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompileQueryText(query_text, schema_));
  SQLTS_ASSIGN_OR_RETURN(std::string sig,
                         ScanGroupSignature(schema_, compiled));
  auto group = std::find_if(groups_.begin(), groups_.end(),
                            [&sig](const auto& g) { return g.first == sig; });
  std::unique_ptr<StreamEngine> fresh;
  StreamEngine* engine = nullptr;
  if (group != groups_.end()) {
    engine = group->second.get();
  } else {
    SQLTS_ASSIGN_OR_RETURN(fresh,
                           StreamEngine::Create(schema_, compiled, options_));
    engine = fresh.get();
  }
  SQLTS_ASSIGN_OR_RETURN(
      int member,
      engine->AddMember(std::move(compiled), std::move(on_row),
                        governance != nullptr ? *governance
                                              : options_.governance,
                        epoch));
  if (fresh != nullptr) groups_.emplace_back(std::move(sig), std::move(fresh));
  queries_.push_back({std::string(query_text), epoch, engine, member});
  return static_cast<int>(queries_.size()) - 1;
}

int MultiStreamExecutor::QueryId(const StreamEngine* engine,
                                 int member) const {
  for (size_t id = 0; id < queries_.size(); ++id) {
    if (queries_[id].engine == engine && queries_[id].member == member) {
      return static_cast<int>(id);
    }
  }
  return -1;
}

const MultiStreamExecutor::Registered* MultiStreamExecutor::LiveLocked(
    int id) const {
  if (id < 0 || id >= static_cast<int>(queries_.size()) ||
      queries_[id].engine == nullptr) {
    return nullptr;
  }
  return &queries_[id];
}

Status MultiStreamExecutor::RemoveQuery(int id) {
  ts::MutexLock lock(mu_);
  if (LiveLocked(id) == nullptr) {
    return Status::InvalidArgument("no live query with id " +
                                   std::to_string(id));
  }
  // Cancel: drop the cursors without Finish(), so no end-of-stream
  // matches are emitted.  The catalog keeps its registrations (stale
  // entries are harmless; a re-added identical query re-merges).
  queries_[id].engine->RemoveMember(queries_[id].member);
  queries_[id].engine = nullptr;
  return Status::OK();
}

Status MultiStreamExecutor::Push(Row row) {
  ts::MutexLock lock(mu_);
  std::vector<QueryError> errors;
  Status st = PushLocked(std::move(row), &errors);
  if (!st.ok()) return st;
  return errors.empty() ? Status::OK() : errors.front().status;
}

Status MultiStreamExecutor::Push(Row row, std::vector<QueryError>* errors) {
  ts::MutexLock lock(mu_);
  return PushLocked(std::move(row), errors);
}

Status MultiStreamExecutor::PushLocked(Row row,
                                       std::vector<QueryError>* errors) {
  ++pushed_;
  std::vector<StreamEngine::MemberError> failed;
  for (size_t g = 0; g < groups_.size(); ++g) {
    StreamEngine& engine = *groups_[g].second;
    if (engine.num_live_members() == 0) continue;
    failed.clear();
    Status st = g + 1 < groups_.size() ? engine.Push(row, &failed)
                                       : engine.Push(std::move(row), &failed);
    if (!st.ok()) return st;
    for (StreamEngine::MemberError& e : failed) {
      errors->push_back({QueryId(&engine, e.index), std::move(e.status)});
    }
  }
  return Status::OK();
}

Status MultiStreamExecutor::Finish() {
  ts::MutexLock lock(mu_);
  for (auto& group : groups_) (void)group.second->Finish();
  for (const Registered& r : queries_) {
    if (r.engine == nullptr) continue;
    const Status& st = r.engine->member(r.member)->final_status();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status MultiStreamExecutor::Checkpoint(std::string* out) {
  ts::MutexLock lock(mu_);
  CheckpointWriter w;
  w.WriteU64(static_cast<uint64_t>(queries_.size()));
  for (const Registered& r : queries_) {
    w.WriteString(r.text);
    w.WriteI64(r.epoch);
    w.WriteBool(r.engine != nullptr);
  }
  w.WriteI64(pushed_);
  for (auto& group : groups_) SQLTS_RETURN_IF_ERROR(group.second->Save(&w));
  MultiQueryStats s = StatsLocked();
  w.WriteI64(s.shared_lookups);
  w.WriteI64(s.shared_evals);
  w.WriteI64(s.cache_hits);
  w.WriteI64(s.inferred_hits);
  w.WriteI64(s.private_evals);
  *out = w.Finalize();
  return Status::OK();
}

Status MultiStreamExecutor::Restore(std::string_view bytes,
                                    const CallbackResolver& resolver) {
  ts::MutexLock lock(mu_);
  if (!queries_.empty() || pushed_ != 0) {
    return Status::InvalidArgument(
        "Restore requires a freshly created multi-stream executor");
  }
  SQLTS_ASSIGN_OR_RETURN(std::string_view payload, OpenCheckpoint(bytes));
  CheckpointReader r(payload);
  SQLTS_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  for (uint64_t i = 0; i < count; ++i) {
    SQLTS_ASSIGN_OR_RETURN(std::string text, r.ReadString());
    SQLTS_ASSIGN_OR_RETURN(int64_t epoch, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(bool live, r.ReadBool());
    // The original epoch carries over: restored cursors resume their
    // saved floors, so cache sharing is decided by where each query
    // originally joined the stream, not by the restore point.  A
    // removed query is re-registered and removed again, so ids, scan
    // groups and member slots line up with the saved ones.
    SQLTS_ASSIGN_OR_RETURN(
        int id, AddQueryLocked(text, live ? resolver(static_cast<int>(i), text)
                                          : nullptr,
                               epoch, nullptr));
    if (!live) {
      queries_[id].engine->RemoveMember(queries_[id].member);
      queries_[id].engine = nullptr;
    }
  }
  SQLTS_ASSIGN_OR_RETURN(pushed_, r.ReadI64());
  for (auto& group : groups_) SQLTS_RETURN_IF_ERROR(group.second->Load(&r));
  // Shared-cache counters restart at zero in the fresh engines; carry
  // the saved totals so stats() stays cumulative.
  SQLTS_ASSIGN_OR_RETURN(baseline_.shared_lookups, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.shared_evals, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.cache_hits, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.inferred_hits, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(baseline_.private_evals, r.ReadI64());
  if (r.remaining() != 0) {
    return Status::IoError("checkpoint has " + std::to_string(r.remaining()) +
                           " trailing bytes");
  }
  return Status::OK();
}

MultiQueryStats MultiStreamExecutor::StatsLocked() const {
  MultiQueryStats s = baseline_;
  s.num_scan_groups = static_cast<int>(groups_.size());
  s.tuples_scanned = pushed_;
  for (const Registered& r : queries_) {
    if (r.engine != nullptr) ++s.num_queries;
  }
  for (const auto& group : groups_) {
    s.AddCatalog(group.second->catalog().stats());
    s.SnapshotCounters(group.second->counters());
  }
  return s;
}

MultiQueryStats MultiStreamExecutor::stats() const {
  ts::MutexLock lock(mu_);
  return StatsLocked();
}

int MultiStreamExecutor::num_queries() const {
  ts::MutexLock lock(mu_);
  int live = 0;
  for (const Registered& r : queries_) {
    if (r.engine != nullptr) ++live;
  }
  return live;
}

int64_t MultiStreamExecutor::rows_consumed() const {
  ts::MutexLock lock(mu_);
  return pushed_;
}

StatusOr<int64_t> MultiStreamExecutor::query_epoch(int id) const {
  ts::MutexLock lock(mu_);
  if (id < 0 || id >= static_cast<int>(queries_.size())) {
    return Status::InvalidArgument("no query with id " + std::to_string(id));
  }
  return queries_[id].epoch;
}

StatusOr<int64_t> MultiStreamExecutor::rows_emitted(int id) const {
  ts::MutexLock lock(mu_);
  const Registered* r = LiveLocked(id);
  if (r == nullptr) {
    return Status::InvalidArgument("no live query with id " +
                                   std::to_string(id));
  }
  return r->engine->member(r->member)->rows_emitted();
}

int64_t MultiStreamExecutor::num_epoch_caches() const {
  ts::MutexLock lock(mu_);
  int64_t total = 0;
  for (const auto& group : groups_) total += group.second->num_epoch_caches();
  return total;
}

const StreamMember* MultiStreamExecutor::query(int id) const {
  ts::MutexLock lock(mu_);
  const Registered* r = LiveLocked(id);
  return r != nullptr ? r->engine->member(r->member) : nullptr;
}

}  // namespace sqlts
