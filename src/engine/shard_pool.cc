#include "engine/shard_pool.h"

#include <exception>

#include "common/logging.h"

namespace sqlts {

SearchStats TotalSearchStats(const std::vector<ShardStats>& shards) {
  SearchStats total;
  for (const ShardStats& s : shards) total += s.search;
  return total;
}

ShardPool::ShardPool(int num_shards, int64_t queue_capacity,
                     TaskHandler handler)
    : handler_(std::move(handler)),
      capacity_(queue_capacity > 0 ? queue_capacity : 1) {
  SQLTS_CHECK(num_shards > 0);
  SQLTS_CHECK(handler_ != nullptr);
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (int s = 0; s < num_shards; ++s) {
    shards_[s]->worker = std::thread([this, s] { WorkerLoop(s); });
  }
}

ShardPool::~ShardPool() { Finish(); }

int ShardPool::ShardFor(std::string_view key) const {
  // Finalizer step of splitmix64 on top of the library hash, so that
  // near-identical keys still spread across shards.
  uint64_t h = std::hash<std::string_view>{}(key);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<int>(h % static_cast<uint64_t>(shards_.size()));
}

void ShardPool::Push(int shard, Task task) {
  SQLTS_CHECK(shard >= 0 && shard < num_shards());
  Shard& s = *shards_[shard];
  {
    ts::MutexLock lock(s.mu);
    SQLTS_CHECK(!s.closed) << "Push after Finish";
    while (static_cast<int64_t>(s.queue.size()) >= capacity_) {
      s.not_full.Wait(s.mu);
    }
    s.queue.push_back(std::move(task));
    ++s.pushed;
    s.high_water =
        std::max(s.high_water, static_cast<int64_t>(s.queue.size()));
  }
  s.not_empty.NotifyOne();
}

void ShardPool::WorkerLoop(int shard) {
  Shard& s = *shards_[shard];
  // Once a handler has thrown, this worker stops invoking it and just
  // drains its queue: producers never block on a dead shard, Finish()
  // can still join, and the first exception is surfaced as a Status.
  bool poisoned = false;
  while (true) {
    Task task;
    {
      ts::MutexLock lock(s.mu);
      s.busy = false;
      if (s.queue.empty()) s.idle.NotifyAll();
      while (s.queue.empty() && !s.closed) s.not_empty.Wait(s.mu);
      if (s.queue.empty()) return;  // closed and drained
      task = std::move(s.queue.front());
      s.queue.pop_front();
      s.busy = true;
    }
    s.not_full.NotifyOne();
    if (poisoned) continue;
    try {
      handler_(shard, std::move(task));
    } catch (const std::exception& e) {
      poisoned = true;
      ts::MutexLock lock(s.mu);
      s.error = Status::Internal(
          std::string("shard worker caught exception: ") + e.what());
    } catch (...) {
      poisoned = true;
      ts::MutexLock lock(s.mu);
      s.error = Status::Internal(
          "shard worker caught an exception not derived from "
          "std::exception");
    }
  }
}

void ShardPool::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& s : shards_) {
    {
      ts::MutexLock lock(s->mu);
      s->closed = true;
    }
    s->not_empty.NotifyOne();
  }
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
}

void ShardPool::Drain() {
  for (auto& s : shards_) {
    ts::MutexLock lock(s->mu);
    while (!s->queue.empty() || s->busy) s->idle.Wait(s->mu);
  }
}

Status ShardPool::first_error() const {
  for (const auto& s : shards_) {
    ts::MutexLock lock(s->mu);
    if (!s->error.ok()) return s->error;
  }
  return Status::OK();
}

int64_t ShardPool::pushed(int shard) const {
  SQLTS_CHECK(shard >= 0 && shard < num_shards());
  Shard& s = *shards_[shard];
  ts::MutexLock lock(s.mu);
  return s.pushed;
}

int64_t ShardPool::queue_high_water(int shard) const {
  SQLTS_CHECK(shard >= 0 && shard < num_shards());
  Shard& s = *shards_[shard];
  ts::MutexLock lock(s.mu);
  return s.high_water;
}

}  // namespace sqlts
