#include "server/registry.h"

#include <chrono>
#include <utility>

#include "parser/analyzer.h"
#include "server/protocol.h"

namespace sqlts {
namespace {

Json CancelledMessage(int64_t req_id) {
  Json msg = Json::Obj();
  msg.Set("type", Json::Str("CANCELLED"));
  msg.Set("id", Json::Int(req_id));
  return msg;
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchCoalescer
// ---------------------------------------------------------------------------

BatchCoalescer::BatchCoalescer(std::string dataset, const Table* table,
                               ExecOptions base, ServerMetrics* metrics)
    : dataset_(std::move(dataset)),
      table_(table),
      base_(std::move(base)),
      metrics_(metrics),
      worker_([this] { WorkerLoop(); }) {}

BatchCoalescer::~BatchCoalescer() { Stop(); }

void BatchCoalescer::Submit(std::shared_ptr<BatchRequest> req) {
  {
    ts::MutexLock lock(mu_);
    if (stopping_) {
      // Late submit during shutdown: terminate it right here so the
      // in-flight gauge still drains to zero.
      ReplyTerminal(*req, Status::Cancelled("server shutting down"));
      return;
    }
    pending_.push_back(std::move(req));
  }
  cv_.NotifyOne();
}

void BatchCoalescer::Stop() {
  {
    ts::MutexLock lock(mu_);
    if (stopping_) {
      // Already stopped; worker may have been joined by the first call.
    }
    stopping_ = true;
    run_cancel_.RequestCancel();
  }
  cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

void BatchCoalescer::WorkerLoop() {
  while (true) {
    std::vector<std::shared_ptr<BatchRequest>> batch;
    {
      ts::MutexLock lock(mu_);
      while (!stopping_ && pending_.empty()) cv_.Wait(mu_);
      if (stopping_) {
        // Drain: every queued request still gets its terminal reply.
        while (!pending_.empty()) {
          ReplyTerminal(*pending_.front(),
                        Status::Cancelled("server shutting down"));
          pending_.pop_front();
        }
        return;
      }
      batch.assign(pending_.begin(), pending_.end());
      pending_.clear();
      // Fresh set-level token per sweep; Stop() trips it so shutdown
      // never waits out a long shared scan.
      run_cancel_ = CancelToken::Cancellable();
    }
    Process(std::move(batch));
  }
}

void BatchCoalescer::Process(std::vector<std::shared_ptr<BatchRequest>> batch) {
  std::vector<std::shared_ptr<BatchRequest>> shared;
  std::vector<std::shared_ptr<BatchRequest>> solo;
  for (auto& req : batch) {
    if (req->gov.cancel.cancel_requested()) {
      ReplyTerminal(*req, Status::Cancelled("cancelled before execution"));
      continue;
    }
    // Pre-validate so one client's typo can't fail the whole shared
    // set: compile errors terminate only their own request.
    StatusOr<CompiledQuery> compiled =
        CompileQueryText(req->text, table_->schema());
    if (!compiled.ok()) {
      ReplyTerminal(*req, compiled.status());
      continue;
    }
    const bool needs_own_governance =
        req->solo || req->gov.has_deadline() ||
        req->gov.max_buffered_tuples > 0 || req->gov.max_buffered_bytes > 0;
    (needs_own_governance ? solo : shared).push_back(std::move(req));
  }

  if (shared.size() == 1) {
    // A lone shareable request gains nothing from the multi-query
    // driver; run it on the plain executor.
    solo.push_back(std::move(shared.front()));
    shared.clear();
  }
  if (!shared.empty()) {
    std::vector<std::string> texts;
    texts.reserve(shared.size());
    for (const auto& req : shared) texts.push_back(req->text);
    ExecOptions options = base_;
    {
      ts::MutexLock lock(mu_);
      options.governance.cancel = run_cancel_;
    }
    StatusOr<QuerySetResult> run =
        MultiQueryExecutor::Execute(*table_, texts, options);
    if (!run.ok()) {
      for (const auto& req : shared) ReplyTerminal(*req, run.status());
    } else {
      metrics_->AccumulateWorkload(run->stats);
      for (size_t i = 0; i < shared.size(); ++i) {
        if (shared[i]->gov.cancel.cancel_requested()) {
          // Cancelled while the set ran: the result is discarded.
          ReplyTerminal(*shared[i],
                        Status::Cancelled("cancelled during execution"));
        } else {
          ReplyResult(*shared[i], run->per_query[i]);
        }
      }
    }
  }

  for (const auto& req : solo) {
    if (req->gov.cancel.cancel_requested()) {
      ReplyTerminal(*req, Status::Cancelled("cancelled before execution"));
      continue;
    }
    ExecOptions options = base_;
    options.governance = req->gov;
    StatusOr<QueryResult> result =
        QueryExecutor::Execute(*table_, req->text, options);
    if (!result.ok()) {
      ReplyTerminal(*req, result.status());
    } else {
      ReplyResult(*req, *result);
    }
  }
}

void BatchCoalescer::ReplyTerminal(const BatchRequest& req, const Status& st) {
  if (st.code() == StatusCode::kCancelled) {
    req.sink->Send(CancelledMessage(req.req_id));
    metrics_->queries_cancelled.fetch_add(1, std::memory_order_relaxed);
  } else {
    req.sink->Send(MakeErrorMessage(req.req_id, st));
    metrics_->NoteError(std::string(StatusCodeToString(st.code())));
  }
  metrics_->queries_in_flight.fetch_sub(1, std::memory_order_relaxed);
  if (req.done) req.done();
}

void BatchCoalescer::ReplyResult(const BatchRequest& req,
                                 const QueryResult& result) {
  Json rows = Json::Arr();
  for (int64_t r = 0; r < result.output.num_rows(); ++r) {
    rows.mutable_array()->push_back(EncodeRow(result.output.GetRow(r)));
  }
  Json stats = Json::Obj();
  stats.Set("matches", Json::Int(result.stats.matches));
  stats.Set("evaluations", Json::Int(result.stats.evaluations));
  stats.Set("presat_skips", Json::Int(result.stats.presat_skips));
  stats.Set("jumps", Json::Int(result.stats.jumps));
  stats.Set("blocks_total", Json::Int(result.stats.blocks_total));
  stats.Set("blocks_skipped", Json::Int(result.stats.blocks_skipped));
  stats.Set("bytes_read", Json::Int(result.stats.bytes_read));
  stats.Set("num_clusters", Json::Int(result.num_clusters));
  stats.Set("num_shards",
            Json::Int(static_cast<int64_t>(result.shard_stats.size())));
  Json msg = Json::Obj();
  msg.Set("type", Json::Str("RESULT"));
  msg.Set("id", Json::Int(req.req_id));
  msg.Set("columns", EncodeSchema(result.output.schema()));
  msg.Set("rows_returned", Json::Int(result.output.num_rows()));
  msg.Set("rows", std::move(rows));
  msg.Set("stats", std::move(stats));
  if (msg.Dump().size() + 4 > kMaxFrameBytes) {
    ReplyTerminal(req, Status::ResourceExhausted(
                           "result exceeds the 16 MiB frame limit"));
    return;
  }
  if (req.sink->Send(msg)) {
    req.sink->NoteRows(result.output.num_rows());
    metrics_->rows_sent.fetch_add(result.output.num_rows(),
                                  std::memory_order_relaxed);
  }
  metrics_->queries_completed.fetch_add(1, std::memory_order_relaxed);
  metrics_->queries_in_flight.fetch_sub(1, std::memory_order_relaxed);
  if (req.done) req.done();
}

// ---------------------------------------------------------------------------
// StreamHub
// ---------------------------------------------------------------------------

StreamHub::StreamHub(std::string dataset, const Table* table, ExecOptions base,
                     ServerMetrics* metrics, int delay_us)
    : dataset_(std::move(dataset)),
      table_(table),
      base_(std::move(base)),
      metrics_(metrics),
      delay_us_(delay_us) {}

StreamHub::~StreamHub() { Stop(); }

Status StreamHub::Subscribe(std::shared_ptr<ReplySink> sink, int64_t req_id,
                            const std::string& text, const ExecGovernance& gov,
                            std::function<void()> done) {
  ts::MutexLock lock(mu_);
  if (stopping_) return Status::Cancelled("server shutting down");
  if (exec_ == nullptr) {
    // New generation.  The previous replay thread (if any) has already
    // torn down — it never re-acquires mu_ after that — so the join
    // here is a formality that cannot deadlock.
    if (replay_.joinable()) replay_.join();
    SQLTS_ASSIGN_OR_RETURN(exec_,
                           MultiStreamExecutor::Create(table_->schema(), base_));
    next_row_ = 0;
    ++generation_;
    replay_ = std::thread(&StreamHub::ReplayLoop, this, generation_);
  }
  auto failed = std::make_shared<std::atomic<bool>>(false);
  ServerMetrics* metrics = metrics_;
  MultiStreamExecutor::RowCallback on_row =
      [sink, failed, req_id, metrics](const Row& row) {
        Json msg = Json::Obj();
        msg.Set("type", Json::Str("ROW"));
        msg.Set("id", Json::Int(req_id));
        msg.Set("row", EncodeRow(row));
        if (sink->Send(msg)) {
          sink->NoteRows(1);
          metrics->rows_sent.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Overflow or vanished session: the subscriber lost a row, so
          // the replay loop must drop it (a gap is never acceptable).
          failed->store(true, std::memory_order_relaxed);
        }
      };
  SQLTS_ASSIGN_OR_RETURN(int query_id,
                         exec_->AddQuery(text, std::move(on_row), &gov));
  SQLTS_ASSIGN_OR_RETURN(int64_t epoch, exec_->query_epoch(query_id));
  Sub sub;
  sub.sink = std::move(sink);
  sub.req_id = req_id;
  sub.query_id = query_id;
  sub.send_failed = std::move(failed);
  sub.done = std::move(done);
  Json start = Json::Obj();
  start.Set("type", Json::Str("STREAM_START"));
  start.Set("id", Json::Int(req_id));
  start.Set("epoch", Json::Int(epoch));
  start.Set("generation", Json::Int(generation_));
  start.Set("columns", EncodeSchema(exec_->query(query_id)->output_schema()));
  sub.sink->Send(start);
  subs_.push_back(std::move(sub));
  return Status::OK();
}

bool StreamHub::Cancel(const ReplySink* sink, int64_t req_id) {
  ts::MutexLock lock(mu_);
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (subs_[i].sink.get() == sink && subs_[i].req_id == req_id) {
      DropSubLocked(i, nullptr);
      return true;
    }
  }
  return false;
}

void StreamHub::DropSession(const ReplySink* sink) {
  ts::MutexLock lock(mu_);
  for (size_t i = subs_.size(); i-- > 0;) {
    if (subs_[i].sink.get() != sink) continue;
    if (exec_ != nullptr) (void)exec_->RemoveQuery(subs_[i].query_id);
    metrics_->queries_cancelled.fetch_add(1, std::memory_order_relaxed);
    metrics_->queries_in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (subs_[i].done) subs_[i].done();
    subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void StreamHub::Stop() {
  // The replay handle is guarded (Subscribe writes it when a generation
  // starts): swap it out under the lock, join outside — the replay
  // thread re-acquires mu_ every sweep, so joining while holding it
  // would deadlock, and joining without the lock would race the write.
  std::thread replay;
  {
    ts::MutexLock lock(mu_);
    stopping_ = true;
    replay.swap(replay_);
  }
  if (replay.joinable()) replay.join();
  ts::MutexLock lock(mu_);
  if (exec_ != nullptr || !subs_.empty()) TeardownLocked();
}

MultiQueryStats StreamHub::live_stats() const {
  ts::MutexLock lock(mu_);
  return exec_ != nullptr ? exec_->stats() : MultiQueryStats{};
}

int64_t StreamHub::num_epoch_caches() const {
  ts::MutexLock lock(mu_);
  return exec_ != nullptr ? exec_->num_epoch_caches() : 0;
}

void StreamHub::ReplayLoop(int64_t generation) {
  while (true) {
    {
      ts::MutexLock lock(mu_);
      if (stopping_ || generation_ != generation || exec_ == nullptr) {
        if (generation_ == generation && exec_ != nullptr) TeardownLocked();
        return;
      }
      // Prune subscribers whose sink rejected a row since the last
      // push (queue overflow or a vanished session).
      for (size_t i = subs_.size(); i-- > 0;) {
        if (subs_[i].send_failed->load(std::memory_order_relaxed)) {
          Status st = Status::ResourceExhausted(
              "outbound queue overflowed; stream dropped");
          DropSubLocked(i, &st);
        }
      }
      if (subs_.empty()) {
        TeardownLocked();
        return;
      }
      if (next_row_ >= table_->num_rows()) {
        // End of data: completion matches, then STREAM_END terminals.
        (void)exec_->Finish();
        for (size_t i = subs_.size(); i-- > 0;) {
          if (subs_[i].send_failed->load(std::memory_order_relaxed)) {
            Status st = Status::ResourceExhausted(
                "outbound queue overflowed; stream dropped");
            DropSubLocked(i, &st);
          }
        }
        for (Sub& sub : subs_) {
          const StreamMember* q = exec_->query(sub.query_id);
          Json end = Json::Obj();
          end.Set("type", Json::Str("STREAM_END"));
          end.Set("id", Json::Int(sub.req_id));
          Json stats = Json::Obj();
          stats.Set("matches", Json::Int(q->stats().matches));
          stats.Set("evaluations", Json::Int(q->stats().evaluations));
          end.Set("stats", std::move(stats));
          // Count the query done before its client can read that it is.
          metrics_->queries_completed.fetch_add(1, std::memory_order_relaxed);
          metrics_->queries_in_flight.fetch_sub(1, std::memory_order_relaxed);
          sub.sink->Send(end);
          if (sub.done) sub.done();
        }
        subs_.clear();
        TeardownLocked();
        return;
      }
      std::vector<MultiStreamExecutor::QueryError> errors;
      Status st = exec_->Push(table_->GetRow(next_row_), &errors);
      ++next_row_;
      if (!st.ok()) {
        // The executor itself is unusable: fail every subscriber.
        for (size_t i = subs_.size(); i-- > 0;) DropSubLocked(i, &st);
        TeardownLocked();
        return;
      }
      for (const auto& err : errors) {
        for (size_t i = 0; i < subs_.size(); ++i) {
          if (subs_[i].query_id == err.id) {
            DropSubLocked(i, &err.status);
            break;
          }
        }
      }
    }
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    }
  }
}

void StreamHub::TeardownLocked() {
  if (exec_ != nullptr) {
    metrics_->AccumulateWorkload(exec_->stats());
    exec_.reset();
  }
  // Leftover subscribers (shutdown path) still retire their request
  // ids so the in-flight gauge drains.
  for (Sub& sub : subs_) {
    metrics_->queries_cancelled.fetch_add(1, std::memory_order_relaxed);
    metrics_->queries_in_flight.fetch_sub(1, std::memory_order_relaxed);
    sub.sink->Send(CancelledMessage(sub.req_id));
    if (sub.done) sub.done();
  }
  subs_.clear();
  cv_.NotifyAll();
}

void StreamHub::DropSubLocked(size_t i, const Status* st) {
  Sub sub = std::move(subs_[i]);
  subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
  if (exec_ != nullptr) (void)exec_->RemoveQuery(sub.query_id);
  // As for STREAM_END: the counters move before the terminal is sent.
  Json terminal;
  if (st == nullptr || st->code() == StatusCode::kCancelled) {
    terminal = CancelledMessage(sub.req_id);
    metrics_->queries_cancelled.fetch_add(1, std::memory_order_relaxed);
  } else {
    terminal = MakeErrorMessage(sub.req_id, *st);
    metrics_->NoteError(std::string(StatusCodeToString(st->code())));
  }
  metrics_->queries_in_flight.fetch_sub(1, std::memory_order_relaxed);
  sub.sink->Send(terminal);
  if (sub.done) sub.done();
}

}  // namespace sqlts
