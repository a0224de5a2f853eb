// portfolio_stream: three standing queries over a tick stream.
//
// 32 instruments x 16384 ticks are pushed in time order into one
// MultiStreamExecutor running paper Examples 1, 2 and 8 (fixed-length,
// star-led, all-star).  An op is one round: the 32 pushes of one tick.
// A checkpoint is taken every kCheckpointEvery ticks, outside the op.
// Each pass over the ticks runs on a fresh executor, and at its end the
// emitted rows of every query are checked against the batch executor
// over the same rows.

#include <algorithm>

#include "bench.h"
#include "engine/executor.h"
#include "multiquery/multi_stream.h"

namespace perfbench {
namespace {

using sqlts::MultiStreamExecutor;
using sqlts::QueryExecutor;
using sqlts::QueryResult;

const char* const kStreamQueries[] = {
    // Example 1: a 15% jump followed by a 20% fall.
    R"sql(SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date
          AS (X, Y, Z)
          WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price)sql",
    // Example 2: a falling run that halves the price.
    R"sql(SELECT X.name, X.date AS start_date, Z.previous.date AS end_date
          FROM quote CLUSTER BY name SEQUENCE BY date
          AS (X, *Y, Z)
          WHERE Y.price < Y.previous.price
            AND Z.previous.price < 0.5 * X.price)sql",
    // Example 8: rise, fall, rise.
    R"sql(SELECT X.name, FIRST(X).date AS sdate, LAST(Z).date AS edate
          FROM quote CLUSTER BY name SEQUENCE BY date
          AS (*X, *Y, *Z)
          WHERE X.price > X.previous.price
            AND Y.price < Y.previous.price
            AND Z.price > Z.previous.price)sql",
};
constexpr int kNumQueries = 3;

constexpr int kStreamInstruments = 32;
constexpr int64_t kTicks = 16384;
constexpr int64_t kCheckpointEvery = 1024;
constexpr int64_t kWarmupTicks = 2048;

class PortfolioStream : public Workload {
 public:
  explicit PortfolioStream(const RunConfig& cfg) : cfg_(cfg) {}

  Status Setup() override {
    table_ = Table(QuoteSchema());
    Rng rng(cfg_.seed);
    SeriesShape shape;
    shape.days = kTicks;
    shape.vol = 0.02;
    shape.spike_prob = 0.0005;
    shape.crash_prob = 0.0002;
    for (int i = 0; i < kStreamInstruments; ++i) {
      AppendSeries(&table_, "S" + std::to_string(i), shape, &rng);
    }
    SQLTS_RETURN_IF_ERROR(NewPass());
    for (int64_t t = 0; t < kWarmupTicks; ++t) {
      SQLTS_RETURN_IF_ERROR(Round(nullptr, nullptr));
    }
    checkpoint_ms_.clear();
    checkpoint_bytes_.clear();
    return NewPass();
  }

  Status Reference() override {
    for (int q = 0; q < kNumQueries; ++q) {
      SQLTS_ASSIGN_OR_RETURN(QueryResult r,
                             QueryExecutor::Execute(table_, kStreamQueries[q]));
      reference_[q] = TableRows(r.output);
    }
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome o;
    Status s = Round(nullptr, &o.ms);
    o.tuples = kStreamInstruments;
    if (s.ok() && tick_ == kTicks) s = EndPass(&o);
    o.ok = s.ok();
    if (!s.ok()) o.error = s.ToString();
    return o;
  }

  Status TracedOp(Tracer* t, double* untraced_ms) override {
    OpOutcome o;
    SQLTS_RETURN_IF_ERROR(Round(nullptr, untraced_ms));
    if (tick_ == kTicks) SQLTS_RETURN_IF_ERROR(EndPass(&o));
    double traced_ms = 0;
    SQLTS_RETURN_IF_ERROR(Round(t, &traced_ms));
    if (tick_ == kTicks) SQLTS_RETURN_IF_ERROR(EndPass(&o));
    return o.failed == 0 ? Status::OK()
                         : Status::Internal("stream rows differ from batch");
  }

  void LayerCounts(const Tracer&, LayerMetrics* out) override {
    (*out)["engine.checkpoint_ms"] = Median(checkpoint_ms_);
    (*out)["engine.checkpoint_bytes"] = Median(checkpoint_bytes_);
    (*out)["engine.finish_ms"] = Median(finish_ms_);
    (*out)["multiquery.dedup_hit_rate"] = last_stats_.dedup_hit_rate();
    (*out)["multiquery.shared_evals"] =
        static_cast<double>(last_stats_.shared_evals);
    (*out)["multiquery.private_evals"] =
        static_cast<double>(last_stats_.private_evals);
    (*out)["multiquery.distinct_predicates"] =
        static_cast<double>(last_stats_.catalog.distinct_predicates);
  }

  const Table& InputTable() const override { return table_; }
  std::vector<std::string> Queries() const override {
    return {kStreamQueries, kStreamQueries + kNumQueries};
  }
  std::vector<std::string> ClusterBy() const override { return {"name"}; }
  const std::vector<double>* OpCheckpointMs() const override {
    return &checkpoint_ms_;
  }
  int64_t ReferenceMatches() const override {
    int64_t fewest = INT64_MAX;
    for (const std::vector<Row>& r : reference_) {
      fewest = std::min(fewest, static_cast<int64_t>(r.size()));
    }
    return fewest;
  }
  bool MidUnit() const override { return tick_ != 0; }

 private:
  Status NewPass() {
    sqlts::ExecOptions opts;
    opts.num_threads = 1;
    SQLTS_ASSIGN_OR_RETURN(exec_,
                           MultiStreamExecutor::Create(table_.schema(), opts));
    for (int q = 0; q < kNumQueries; ++q) {
      emitted_[q].clear();
      SQLTS_ASSIGN_OR_RETURN(
          ids_[q], exec_->AddQuery(kStreamQueries[q], [this, q](const Row& r) {
            emitted_[q].push_back(r);
          }));
    }
    tick_ = 0;
    return Status::OK();
  }

  /// Pushes the next tick of every instrument; `ms` gets the push time.
  /// A due checkpoint is taken first and timed on its own.
  Status Round(Tracer* t, double* ms) {
    if (tick_ > 0 && tick_ % kCheckpointEvery == 0) {
      std::string bytes;
      const auto t0 = Clock::now();
      SQLTS_RETURN_IF_ERROR(exec_->Checkpoint(&bytes));
      checkpoint_ms_.push_back(MsSince(t0));
      checkpoint_bytes_.push_back(static_cast<double>(bytes.size()));
    }
    std::vector<Row> rows;
    rows.reserve(kStreamInstruments);
    for (int i = 0; i < kStreamInstruments; ++i) {
      rows.push_back(table_.GetRow(i * kTicks + tick_));
    }
    Status s = Status::OK();
    const auto t0 = Clock::now();
    {
      Scoped root(t, "op");
      Scoped push(t, "multiquery.push");
      for (Row& row : rows) {
        s = exec_->Push(std::move(row));
        if (!s.ok()) break;
      }
    }
    if (ms != nullptr) *ms = MsSince(t0);
    ++tick_;
    return s;
  }

  /// Finishes the pass, checks every query's rows against the batch
  /// reference, and starts the next pass.
  Status EndPass(OpOutcome* o) {
    const auto t0 = Clock::now();
    SQLTS_RETURN_IF_ERROR(exec_->Finish());
    finish_ms_.push_back(MsSince(t0));
    last_stats_ = exec_->stats();
    bool same = true;
    for (int q = 0; q < kNumQueries; ++q) {
      o->tests += exec_->query(ids_[q])->stats().evaluations;
      same = same && SameRowMultiset(emitted_[q], reference_[q]);
    }
    // A wrong pass fails all of its rounds (this one is counted by the
    // caller through o->ok).
    if (!same) o->failed += kTicks - 1;
    SQLTS_RETURN_IF_ERROR(NewPass());
    return same ? Status::OK()
                : Status::Internal("stream rows differ from batch");
  }

  const RunConfig cfg_;
  Table table_;
  std::vector<Row> emitted_[kNumQueries];
  std::vector<Row> reference_[kNumQueries];
  // Declared after emitted_: its callbacks append there.
  std::unique_ptr<MultiStreamExecutor> exec_;
  int ids_[kNumQueries] = {};
  int64_t tick_ = 0;
  std::vector<double> checkpoint_ms_;
  std::vector<double> checkpoint_bytes_;
  std::vector<double> finish_ms_;
  sqlts::MultiQueryStats last_stats_;
};

}  // namespace

std::unique_ptr<Workload> MakePortfolioStream(const RunConfig& cfg) {
  return std::make_unique<PortfolioStream>(cfg);
}

}  // namespace perfbench
