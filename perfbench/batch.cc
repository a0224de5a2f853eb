// The two batch workloads, djia_server and portfolio_batch, and the
// layer-by-layer rebuild of QueryExecutor::Execute they share.

#include <algorithm>

#include "analysis/linter.h"
#include "bench.h"
#include "engine/executor.h"
#include "engine/matcher.h"
#include "engine/vectorized_eval.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/csv.h"
#include "storage/sequence.h"

namespace perfbench {
namespace {

using sqlts::ClusteredSequence;
using sqlts::CompiledQuery;
using sqlts::ExecOptions;
using sqlts::Json;
using sqlts::Match;
using sqlts::PatternPlan;
using sqlts::QueryExecutor;
using sqlts::QueryResult;
using sqlts::SearchStats;
using sqlts::StatusOr;

/// QueryExecutor::Execute rebuilt from the entry point of each layer,
/// with a span around every call: parse and analyze, lint (when the
/// options ask for it), pattern compile, cluster build, kernel compile,
/// then search and projection over the clusters on `num_threads`
/// workers.  Returns the output rows in the executor's order.
StatusOr<std::vector<Row>> RebuildExecute(const Table& input,
                                          const std::string& text,
                                          const ExecOptions& options,
                                          Tracer* t) {
  Scoped root(t, "op");
  StatusOr<CompiledQuery> q = Status::Internal("unset");
  {
    Scoped s(t, "parser.parse_analyze");
    q = sqlts::CompileQueryText(text, input.schema());
  }
  SQLTS_RETURN_IF_ERROR(q.status());
  if (options.compile.refuse_provably_empty) {
    Scoped s(t, "analysis.lint");
    sqlts::LintOptions lint_options;
    lint_options.oracle = options.compile.oracle;
    if (sqlts::LintQuery(*q, lint_options).has_errors()) {
      return Status::InvalidArgument("query is provably empty");
    }
  }
  StatusOr<PatternPlan> plan = Status::Internal("unset");
  {
    Scoped s(t, "pattern.compile");
    plan = sqlts::CompilePattern(*q, options.compile);
  }
  SQLTS_RETURN_IF_ERROR(plan.status());
  StatusOr<ClusteredSequence> clusters = Status::Internal("unset");
  {
    Scoped s(t, "storage.cluster_build");
    clusters = ClusteredSequence::Build(&input, q->cluster_by, q->sequence_by);
  }
  SQLTS_RETURN_IF_ERROR(clusters.status());
  const int n = clusters->num_clusters();
  t->Count("storage.clusters", n);
  std::unique_ptr<sqlts::VectorizedPlanEval> vec;
  if (options.vectorize) {
    Scoped s(t, "expr.kernel_compile");
    vec = sqlts::VectorizedPlanEval::Create(*plan, input.schema());
  }

  std::vector<std::vector<Match>> matches(n);
  std::vector<SearchStats> stats(n);
  {
    Scoped s(t, "engine.search");
    ParallelFor(options.num_threads, n, [&](int c) {
      const sqlts::SequenceView& seq = clusters->cluster(c);
      if (!sqlts::ClusterAccepted(*q, seq)) return;
      sqlts::SearchOptions so;
      std::unique_ptr<sqlts::ElementEvaluator> ev;
      if (vec != nullptr) {
        ev = vec->MakeEvaluator();
        so.evaluator = ev.get();
      }
      matches[c] = sqlts::OpsSearch(seq, *plan, &stats[c], nullptr, so);
    });
  }
  SearchStats total;
  for (const SearchStats& s : stats) total += s;
  t->Count("engine.tests", static_cast<double>(total.evaluations));
  t->Count("engine.jumps", static_cast<double>(total.jumps));
  t->Count("engine.presat_skips", static_cast<double>(total.presat_skips));

  std::vector<std::vector<Row>> rows(n);
  {
    Scoped s(t, "engine.project");
    ParallelFor(options.num_threads, n, [&](int c) {
      for (const Match& m : matches[c]) {
        rows[c].push_back(sqlts::ProjectMatch(*q, clusters->cluster(c), m));
      }
    });
  }
  std::vector<Row> out;
  for (std::vector<Row>& r : rows) {
    for (Row& row : r) out.push_back(std::move(row));
  }
  return out;
}

/// Counters of the batch workloads' traced runs.
void BatchCounts(const Tracer& t, LayerMetrics* out) {
  EngineCounts(t, out);
  for (const char* name :
       {"storage.clusters", "engine.shard_rows_skew",
        "engine.shard_queue_high_water", "server.round_trip_ms",
        "server.wire_ms", "server.reply_bytes"}) {
    (*out)[name] = t.MedianCount(name);
  }
}

/// Records the shard balance of a sharded QueryResult.
void ShardCounts(const QueryResult& r, Tracer* t) {
  if (r.shard_stats.empty()) {
    t->Count("engine.shard_rows_skew", 1.0);
    t->Count("engine.shard_queue_high_water", 0.0);
    return;
  }
  double max_rows = 0, sum_rows = 0, high = 0;
  for (const sqlts::ShardStats& s : r.shard_stats) {
    max_rows = std::max(max_rows, static_cast<double>(s.tuples_pushed));
    sum_rows += static_cast<double>(s.tuples_pushed);
    high = std::max(high, static_cast<double>(s.queue_high_water));
  }
  const double mean = sum_rows / static_cast<double>(r.shard_stats.size());
  t->Count("engine.shard_rows_skew", mean > 0 ? max_rows / mean : 0);
  t->Count("engine.shard_queue_high_water", high);
}

// ---------------------------------------------------------------------
// djia_server: paper Example 10 (relaxed double bottom) over the
// committed DJIA series, asked of an in-process sqlts server over
// loopback by one closed-loop client.  The series is real data, so the
// seed does not change this workload's input.

const char kExample10[] = R"sql(
  SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price
  FROM djia SEQUENCE BY date
  AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
  WHERE X.price >= 0.98 * X.previous.price
    AND Y.price < 0.98 * Y.previous.price
    AND 0.98 * Z.previous.price < Z.price
    AND Z.price < 1.02 * Z.previous.price
    AND T.price > 1.02 * T.previous.price
    AND 0.98 * U.previous.price < U.price
    AND U.price < 1.02 * U.previous.price
    AND V.price < 0.98 * V.previous.price
    AND 0.98 * W.previous.price < W.price
    AND W.price < 1.02 * W.previous.price
    AND R.price > 1.02 * R.previous.price
    AND S.price <= 1.02 * S.previous.price
)sql";

constexpr int kServerWarmup = 20;

class DjiaServer : public Workload {
 public:
  explicit DjiaServer(const RunConfig& cfg) : cfg_(cfg) {}
  ~DjiaServer() override { Stop(); }

  Status Setup() override {
    Stop();
    SQLTS_ASSIGN_OR_RETURN(
        table_, sqlts::ReadCsvFile(cfg_.root + "/data/djia.csv",
                                   QuoteSchema()));
    server_ = std::make_unique<sqlts::Server>(sqlts::Server::Options{});
    SQLTS_RETURN_IF_ERROR(server_->AddDataset("djia", table_));
    SQLTS_RETURN_IF_ERROR(server_->Start());
    SQLTS_ASSIGN_OR_RETURN(sqlts::SqltsClient c,
                           sqlts::SqltsClient::Connect("127.0.0.1",
                                                       server_->port()));
    client_ = std::make_unique<sqlts::SqltsClient>(std::move(c));
    SQLTS_RETURN_IF_ERROR(client_->Hello("perfbench").status());
    for (int i = 0; i < kServerWarmup; ++i) {
      std::vector<Row> rows;
      SQLTS_RETURN_IF_ERROR(Ask(&rows, nullptr, nullptr));
    }
    return Status::OK();
  }

  Status Reference() override {
    SQLTS_ASSIGN_OR_RETURN(QueryResult r,
                           QueryExecutor::Execute(table_, kExample10));
    reference_ = TableRows(r.output);
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome o;
    std::vector<Row> rows;
    int64_t tests = 0;
    const auto t0 = Clock::now();
    Status s = Ask(&rows, &tests, nullptr);
    o.ms = MsSince(t0);
    o.tuples = table_.num_rows();
    o.tests = tests;
    o.ok = s.ok() && SameRows(rows, reference_);
    if (!o.ok) o.error = s.ok() ? "rows differ from the reference" : s.ToString();
    return o;
  }

  Status TracedOp(Tracer* t, double* untraced_ms) override {
    std::vector<Row> rows;
    int64_t reply_bytes = 0;
    auto t0 = Clock::now();
    SQLTS_RETURN_IF_ERROR(Ask(&rows, nullptr, &reply_bytes));
    const double round_trip = MsSince(t0);
    if (!SameRows(rows, reference_)) return Status::Internal("server rows");

    t0 = Clock::now();
    SQLTS_ASSIGN_OR_RETURN(QueryResult direct,
                           QueryExecutor::Execute(table_, kExample10));
    *untraced_ms = MsSince(t0);
    t->Count("server.round_trip_ms", round_trip);
    t->Count("server.wire_ms", round_trip - *untraced_ms);
    t->Count("server.reply_bytes", static_cast<double>(reply_bytes));
    ShardCounts(direct, t);

    SQLTS_ASSIGN_OR_RETURN(std::vector<Row> rebuilt,
                           RebuildExecute(table_, kExample10, {}, t));
    if (!SameRows(rebuilt, reference_)) return Status::Internal("rebuilt rows");
    return Status::OK();
  }

  void LayerCounts(const Tracer& t, LayerMetrics* out) override {
    BatchCounts(t, out);
    const Json snap = server_->MetricsSnapshot();
    if (const Json* w = snap.Find("workload")) {
      (*out)["server.coalesced_runs"] =
          static_cast<double>(w->GetInt("coalesced_runs", 0));
    }
  }

  bool OneCpu() const override { return true; }
  const Table& InputTable() const override { return table_; }
  std::vector<std::string> Queries() const override { return {kExample10}; }
  std::vector<std::string> ClusterBy() const override { return {}; }
  int64_t ReferenceMatches() const override {
    return static_cast<int64_t>(reference_.size());
  }

 private:
  /// One QUERY round trip with its rows decoded.
  Status Ask(std::vector<Row>* rows, int64_t* tests, int64_t* reply_bytes) {
    SQLTS_ASSIGN_OR_RETURN(Json reply,
                           client_->Query(++next_id_, "djia", kExample10));
    if (reply.GetString("type", "") != "RESULT") {
      return Status::Internal("no RESULT for the query");
    }
    const Json* encoded = reply.Find("rows");
    if (encoded == nullptr) return Status::Internal("RESULT without rows");
    SQLTS_ASSIGN_OR_RETURN(*rows, sqlts::SqltsClient::DecodeRows(*encoded));
    if (tests != nullptr) {
      const Json* stats = reply.Find("stats");
      *tests = stats != nullptr ? stats->GetInt("evaluations", 0) : 0;
    }
    if (reply_bytes != nullptr) {
      *reply_bytes = static_cast<int64_t>(reply.Dump().size());
    }
    return Status::OK();
  }

  void Stop() {
    if (client_ != nullptr) (void)client_->Close();
    client_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  const RunConfig cfg_;
  Table table_;
  std::unique_ptr<sqlts::Server> server_;
  std::unique_ptr<sqlts::SqltsClient> client_;
  int64_t next_id_ = 0;
  std::vector<Row> reference_;
};

// ---------------------------------------------------------------------
// portfolio_batch: the E12b shape.  128 instruments x 2000 days, one
// three-element query clustered by instrument, on 4 worker threads.

const char kE12bQuery[] =
    "SELECT X.name, Y.date FROM quote CLUSTER BY name SEQUENCE BY date "
    "AS (X, Y, Z) WHERE Y.price > 1.03 * X.price AND "
    "Z.price < 0.98 * Y.price";

constexpr int kBatchInstruments = 128;
constexpr int64_t kBatchDays = 2000;
constexpr int kBatchThreads = 4;
constexpr int kBatchWarmup = 2;

class PortfolioBatch : public Workload {
 public:
  explicit PortfolioBatch(const RunConfig& cfg) : cfg_(cfg) {
    options_.num_threads = kBatchThreads;
    // As sqlts_cli runs queries: provably empty ones are refused.
    options_.compile.refuse_provably_empty = true;
  }

  Status Setup() override {
    table_ = Table(QuoteSchema());
    Rng rng(cfg_.seed);
    SeriesShape shape;
    shape.days = kBatchDays;
    shape.vol = 0.06;
    shape.reversion = 0.05;
    for (int i = 0; i < kBatchInstruments; ++i) {
      AppendSeries(&table_, "S" + std::to_string(i), shape, &rng);
    }
    for (int i = 0; i < kBatchWarmup; ++i) {
      SQLTS_RETURN_IF_ERROR(
          QueryExecutor::Execute(table_, kE12bQuery, options_).status());
    }
    return Status::OK();
  }

  Status Reference() override {
    ExecOptions one = options_;
    one.num_threads = 1;
    SQLTS_ASSIGN_OR_RETURN(QueryResult r,
                           QueryExecutor::Execute(table_, kE12bQuery, one));
    reference_ = TableRows(r.output);
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome o;
    const auto t0 = Clock::now();
    StatusOr<QueryResult> r =
        QueryExecutor::Execute(table_, kE12bQuery, options_);
    o.ms = MsSince(t0);
    o.tuples = table_.num_rows();
    if (!r.ok()) {
      o.error = r.status().ToString();
      return o;
    }
    o.tests = r->stats.evaluations;
    o.ok = SameRows(TableRows(r->output), reference_);
    if (!o.ok) o.error = "rows differ from the 1-thread reference";
    return o;
  }

  Status TracedOp(Tracer* t, double* untraced_ms) override {
    const auto t0 = Clock::now();
    SQLTS_ASSIGN_OR_RETURN(QueryResult direct,
                           QueryExecutor::Execute(table_, kE12bQuery,
                                                  options_));
    *untraced_ms = MsSince(t0);
    ShardCounts(direct, t);
    SQLTS_ASSIGN_OR_RETURN(std::vector<Row> rebuilt,
                           RebuildExecute(table_, kE12bQuery, options_, t));
    if (!SameRows(rebuilt, reference_)) return Status::Internal("rebuilt rows");
    return Status::OK();
  }

  void LayerCounts(const Tracer& t, LayerMetrics* out) override {
    BatchCounts(t, out);
  }

  const Table& InputTable() const override { return table_; }
  std::vector<std::string> Queries() const override { return {kE12bQuery}; }
  std::vector<std::string> ClusterBy() const override { return {"name"}; }
  int64_t ReferenceMatches() const override {
    return static_cast<int64_t>(reference_.size());
  }

 private:
  const RunConfig cfg_;
  ExecOptions options_;
  Table table_;
  std::vector<Row> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeDjiaServer(const RunConfig& cfg) {
  return std::make_unique<DjiaServer>(cfg);
}

std::unique_ptr<Workload> MakePortfolioBatch(const RunConfig& cfg) {
  return std::make_unique<PortfolioBatch>(cfg);
}

}  // namespace perfbench
