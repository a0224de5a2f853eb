#include "engine/scan_driver.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

namespace sqlts {

void SearchAndProject(const CompiledQuery& query, const PatternPlan& plan,
                      const SequenceView& seq, SearchAlgorithm algorithm,
                      const SearchOptions& search_opts, SearchStats* stats,
                      std::vector<Row>* rows, SearchTrace* trace) {
  std::vector<Match> matches =
      algorithm == SearchAlgorithm::kOps
          ? OpsSearch(seq, plan, stats, trace, search_opts)
          : NaiveSearch(seq, plan, stats, trace, search_opts);
  rows->reserve(rows->size() + matches.size());
  for (const Match& match : matches) {
    rows->push_back(ProjectMatch(query, seq, match));
  }
}

ScanDriver::ScanDriver(int num_clusters, std::vector<ScanMember> members,
                       const ExecOptions& options)
    : num_clusters_(num_clusters),
      members_(std::move(members)),
      governance_(options.governance) {
  const bool ordered =
      options.collect_trace ||
      std::any_of(members_.begin(), members_.end(),
                  [](const ScanMember& m) { return m.query->limit > 0; });
  if (!ordered) {
    num_workers_ = std::max(1, std::min(options.num_threads, num_clusters));
  }
}

bool ScanDriver::Budgets(std::vector<int64_t>* budgets) const {
  budgets->resize(members_.size());
  bool any = false;
  for (size_t k = 0; k < members_.size(); ++k) {
    const CompiledQuery& q = *members_[k].query;
    int64_t budget = 0;
    if (q.limit_zero) {
      budget = kSkip;
    } else if (q.limit > 0) {
      budget = q.limit - members_[k].result->output.num_rows();
      if (budget <= 0) budget = kSkip;
    }
    (*budgets)[k] = budget;
    any = any || budget != kSkip;
  }
  return any;
}

Status ScanDriver::RunCluster(const ClusterFn& fn, int worker, int cluster,
                              const std::vector<int64_t>& budgets,
                              ClusterOutput* out) const {
  out->rows.resize(members_.size());
  out->stats.resize(members_.size());
  try {
    SQLTS_RETURN_IF_ERROR(governance_.Check());
    SQLTS_RETURN_IF_ERROR(governance_.Fault("scan.cluster"));
    return fn(worker, cluster, budgets, out);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("scan worker caught exception: ") +
                            e.what());
  } catch (...) {
    return Status::Internal(
        "scan worker caught an exception not derived from std::exception");
  }
}

Status ScanDriver::Merge(ClusterOutput* out) {
  for (size_t k = 0; k < members_.size(); ++k) {
    QueryResult* r = members_[k].result;
    for (Row& row : out->rows[k]) {
      SQLTS_RETURN_IF_ERROR(r->output.AppendRow(std::move(row)));
    }
    r->stats += out->stats[k];
  }
  return Status::OK();
}

Status ScanDriver::Run(const ClusterFn& fn,
                       std::vector<ShardStats>* shard_stats) {
  std::vector<int64_t> budgets;
  if (num_workers_ == 1) {
    // In order on the calling thread: merging after each cluster keeps
    // every LIMIT budget exact.
    for (int c = 0; c < num_clusters_ && Budgets(&budgets); ++c) {
      ClusterOutput out;
      SQLTS_RETURN_IF_ERROR(RunCluster(fn, 0, c, budgets, &out));
      SQLTS_RETURN_IF_ERROR(Merge(&out));
    }
    return governance_.Check();
  }

  // No member has a LIMIT, so the budgets never change.
  if (!Budgets(&budgets)) return governance_.Check();
  std::vector<ClusterOutput> outs(num_clusters_);
  std::vector<Status> status(num_clusters_);
  std::vector<ShardStats> workers(num_workers_);
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  auto work = [&](int w) {
    ShardStats& ss = workers[w];
    while (!failed.load(std::memory_order_relaxed)) {
      const int c = next.fetch_add(1);
      if (c >= num_clusters_) return;
      status[c] = RunCluster(fn, w, c, budgets, &outs[c]);
      if (!status[c].ok()) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      ++ss.clusters;
      ss.tuples_pushed += outs[c].tuples;
      for (const SearchStats& s : outs[c].stats) ss.search += s;
    }
  };
  {
    std::vector<std::thread> threads;
    threads.reserve(num_workers_ - 1);
    for (int w = 1; w < num_workers_; ++w) {
      // Without another thread the running workers claim its clusters.
      try {
        threads.emplace_back(work, w);
      } catch (const std::system_error&) {
        break;
      }
    }
    work(0);
    for (std::thread& t : threads) t.join();
  }
  for (const Status& s : status) SQLTS_RETURN_IF_ERROR(s);
  SQLTS_RETURN_IF_ERROR(governance_.Check());
  for (ClusterOutput& out : outs) SQLTS_RETURN_IF_ERROR(Merge(&out));
  if (shard_stats != nullptr) *shard_stats = std::move(workers);
  return Status::OK();
}

}  // namespace sqlts
