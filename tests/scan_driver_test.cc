/// The batch scan driver (engine/scan_driver.h): its pool, LIMIT rule,
/// ordered merge and error boundary, and the "scan.cluster" fault site
/// as seen through every batch executor.

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "colstore/columnar_executor.h"
#include "colstore/reader.h"
#include "colstore/writer.h"
#include "common/logging.h"
#include "engine/executor.h"
#include "engine/scan_driver.h"
#include "multiquery/multi_executor.h"
#include "workload/generators.h"

namespace sqlts {
namespace {

/// Output of the synthetic scans below: one INT64 column.
Schema OneColumn() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("c", TypeKind::kInt64));
  return s;
}

QueryResult EmptyResult() {
  return QueryResult{Table(OneColumn()), {}, {}, {}, 0, 0, {}};
}

std::vector<int64_t> Column(const Table& t) {
  std::vector<int64_t> out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(t.at(r, 0).int64_value());
  }
  return out;
}

/// A cluster function whose cluster `c` holds `c % 3` matches, each
/// projected to the row {c}, and `c + 1` tuples.
Status ThreeWay(int, int c, const std::vector<int64_t>& budgets,
                ClusterOutput* out) {
  out->tuples = c + 1;
  for (size_t k = 0; k < budgets.size(); ++k) {
    if (budgets[k] == ScanDriver::kSkip) continue;
    for (int i = 0; i < c % 3; ++i) {
      if (budgets[k] > 0 && i >= budgets[k]) break;
      out->rows[k].push_back({Value::Int64(c)});
      ++out->stats[k].matches;
    }
  }
  return Status::OK();
}

TEST(ScanDriver, MergesInClusterOrderAtAnyThreadCount) {
  const int kClusters = 50;
  std::vector<int64_t> want;
  for (int c = 0; c < kClusters; ++c) {
    for (int i = 0; i < c % 3; ++i) want.push_back(c);
  }
  for (int threads : {1, 3, 8, 64}) {
    CompiledQuery q;
    QueryResult r = EmptyResult();
    ExecOptions opt;
    opt.num_threads = threads;
    ScanDriver driver(kClusters, {{&q, &r}}, opt);
    EXPECT_EQ(driver.num_workers(), std::min(threads, kClusters));
    std::vector<ShardStats> shards;
    ASSERT_TRUE(driver.Run(ThreeWay, &shards).ok());
    EXPECT_EQ(Column(r.output), want) << "threads=" << threads;
    EXPECT_EQ(r.stats.matches, static_cast<int64_t>(want.size()));
    if (threads == 1) {
      EXPECT_TRUE(shards.empty());
      continue;
    }
    ASSERT_EQ(static_cast<int>(shards.size()), driver.num_workers());
    int64_t clusters = 0, tuples = 0;
    for (const ShardStats& s : shards) {
      clusters += s.clusters;
      tuples += s.tuples_pushed;
    }
    EXPECT_EQ(clusters, kClusters);
    EXPECT_EQ(tuples, kClusters * (kClusters + 1) / 2);
    EXPECT_EQ(TotalSearchStats(shards).matches, r.stats.matches);
  }
}

TEST(ScanDriver, LimitRunsInOrderOnTheCallingThreadWithBudgets) {
  // Member 0 is unlimited, member 1 has LIMIT 4, member 2 LIMIT 0.
  CompiledQuery unlimited, limited, zero;
  limited.limit = 4;
  zero.limit_zero = true;
  QueryResult r0 = EmptyResult(), r1 = EmptyResult(), r2 = EmptyResult();
  ExecOptions opt;
  opt.num_threads = 8;
  ScanDriver driver(20, {{&unlimited, &r0}, {&limited, &r1}, {&zero, &r2}},
                    opt);
  EXPECT_EQ(driver.num_workers(), 1);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> visited;
  std::vector<int64_t> limited_budgets;
  std::vector<ShardStats> shards;
  ASSERT_TRUE(driver
                  .Run(
                      [&](int w, int c, const std::vector<int64_t>& budgets,
                          ClusterOutput* out) {
                        EXPECT_EQ(w, 0);
                        EXPECT_EQ(std::this_thread::get_id(), caller);
                        EXPECT_EQ(budgets[0], 0);
                        EXPECT_EQ(budgets[2], ScanDriver::kSkip);
                        visited.push_back(c);
                        limited_budgets.push_back(budgets[1]);
                        return ThreeWay(w, c, budgets, out);
                      },
                      &shards)
                  .ok());
  EXPECT_TRUE(shards.empty());
  // Clusters 1, 2, 4 and 5 hold 1 + 2 + 1 + 2 matches: the budget
  // shrinks 4, 4, 3, 1, 1, 0 (skip) and stays there.
  ASSERT_EQ(visited.size(), 20u);
  for (int c = 0; c < 20; ++c) EXPECT_EQ(visited[c], c);
  const std::vector<int64_t> head(limited_budgets.begin(),
                                  limited_budgets.begin() + 7);
  EXPECT_EQ(head, (std::vector<int64_t>{4, 4, 3, 1, 1, ScanDriver::kSkip,
                                        ScanDriver::kSkip}));
  EXPECT_EQ(Column(r1.output), (std::vector<int64_t>{1, 2, 2, 4}));
  EXPECT_EQ(r1.stats.matches, 4);
  EXPECT_EQ(r0.output.num_rows(), 19);
  EXPECT_EQ(r2.output.num_rows(), 0);
}

TEST(ScanDriver, StopsOnceEveryMemberIsDone) {
  CompiledQuery limited;
  limited.limit = 1;
  QueryResult r = EmptyResult();
  int calls = 0;
  ScanDriver driver(100, {{&limited, &r}}, ExecOptions{});
  ASSERT_TRUE(driver
                  .Run([&](int w, int c, const std::vector<int64_t>& budgets,
                           ClusterOutput* out) {
                    ++calls;
                    return ThreeWay(w, c, budgets, out);
                  })
                  .ok());
  EXPECT_EQ(calls, 2);  // cluster 1 holds the first match
  EXPECT_EQ(Column(r.output), std::vector<int64_t>{1});
}

TEST(ScanDriver, LowestFailingClusterDecidesTheError) {
  for (int threads : {1, 4}) {
    CompiledQuery q;
    QueryResult r = EmptyResult();
    ExecOptions opt;
    opt.num_threads = threads;
    ScanDriver driver(40, {{&q, &r}}, opt);
    Status st = driver.Run([](int w, int c,
                              const std::vector<int64_t>& budgets,
                              ClusterOutput* out) {
      if (c == 29) return Status::IoError("cluster 29");
      if (c == 11) return Status::ParseError("cluster 11");
      return ThreeWay(w, c, budgets, out);
    });
    EXPECT_EQ(st, Status::ParseError("cluster 11")) << "threads=" << threads;
  }
}

TEST(ScanDriver, ExceptionBecomesInternal) {
  for (int threads : {1, 4}) {
    CompiledQuery q;
    QueryResult r = EmptyResult();
    ExecOptions opt;
    opt.num_threads = threads;
    ScanDriver driver(16, {{&q, &r}}, opt);
    Status st = driver.Run([](int w, int c,
                              const std::vector<int64_t>& budgets,
                              ClusterOutput* out) -> Status {
      if (c == 9) throw std::runtime_error("boom");
      return ThreeWay(w, c, budgets, out);
    });
    EXPECT_EQ(st.code(), StatusCode::kInternal) << "threads=" << threads;
    EXPECT_NE(st.message().find("boom"), std::string::npos) << st;
  }
}

// ---------------------------------------------------------------------------
// The "scan.cluster" fault site through the three batch executors.
// ---------------------------------------------------------------------------

const char kRise[] =
    "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y) WHERE Y.price > 1.02 * X.price";

/// Eight instruments, 40 days each.
Table EightInstruments() {
  Table t(QuoteSchema());
  for (int n = 0; n < 8; ++n) {
    std::vector<double> prices;
    for (int d = 0; d < 40; ++d) prices.push_back(50.0 + (n * 7 + d * 3) % 11);
    SQLTS_CHECK_OK(
        AppendInstrument(&t, "S" + std::to_string(n), Date(10000), prices));
  }
  return t;
}

/// Runs `kRise` through one batch executor under the given options and
/// returns its status; `rows` receives the row count of an OK result.
using ExecutorRun = std::function<Status(const ExecOptions&, int64_t* rows)>;

std::vector<std::pair<std::string, ExecutorRun>> BatchExecutors(
    const Table& table, ColumnarReader* reader) {
  return {
      {"QueryExecutor",
       [&table](const ExecOptions& opt, int64_t* rows) {
         auto r = QueryExecutor::Execute(table, kRise, opt);
         if (r.ok()) *rows = r->output.num_rows();
         return r.status();
       }},
      {"MultiQueryExecutor",
       [&table](const ExecOptions& opt, int64_t* rows) {
         auto r = MultiQueryExecutor::Execute(table, {kRise, kRise}, opt);
         if (r.ok()) *rows = r->per_query[0].output.num_rows();
         return r.status();
       }},
      {"ColumnarExecutor",
       [reader](const ExecOptions& opt, int64_t* rows) {
         ColumnarExecOptions copt;
         copt.exec = opt;
         auto r = ColumnarExecutor::Execute(*reader, kRise, copt);
         if (r.ok()) *rows = r->output.num_rows();
         return r.status();
       }},
  };
}

TEST(ScanDriver, FaultSiteSurfacesOnEveryBatchExecutor) {
  const Table table = EightInstruments();
  ColumnarWriterOptions wopts;
  wopts.cluster_by = {"name"};
  wopts.sequence_by = {"date"};
  auto reader = ColumnarReader::OpenBytes(
      ColumnarWriter::WriteBytes(table, wopts).value());
  ASSERT_TRUE(reader.ok()) << reader.status();
  const Status injected = Status::IoError("injected at the 4th cluster");

  for (auto& [name, run] : BatchExecutors(table, reader->get())) {
    for (int threads : {1, 4}) {
      ExecOptions opt;
      opt.num_threads = threads;
      int64_t clean_rows = -1;
      std::mutex mu;
      std::set<std::string> sites;
      opt.governance.fault_hook = [&](std::string_view site) {
        std::lock_guard<std::mutex> lock(mu);
        sites.insert(std::string(site));
        return Status::OK();
      };
      ASSERT_TRUE(run(opt, &clean_rows).ok()) << name;
      ASSERT_GT(clean_rows, 0) << name;
      EXPECT_EQ(sites, std::set<std::string>{"scan.cluster"}) << name;

      for (bool throws : {false, true}) {
        std::atomic<int> visits{0};
        opt.governance.fault_hook = [&](std::string_view site) -> Status {
          if (site == "scan.cluster" && visits.fetch_add(1) == 3) {
            if (throws) throw std::runtime_error("hook threw");
            return injected;
          }
          return Status::OK();
        };
        int64_t rows = -1;
        Status st = run(opt, &rows);
        if (throws) {
          EXPECT_EQ(st.code(), StatusCode::kInternal)
              << name << " threads=" << threads << ": " << st;
        } else {
          EXPECT_EQ(st, injected) << name << " threads=" << threads;
        }
        EXPECT_EQ(rows, -1) << name << ": no partial result";
      }
    }
  }
}

}  // namespace
}  // namespace sqlts
