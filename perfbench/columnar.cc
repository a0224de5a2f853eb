// columnar_scan: one anchored query over a clustered `.sqlc` file.
//
// 512 instruments x 1000 days are written once per set-up to a file
// clustered by instrument and sequenced by date, so the columnar
// executor's fast path runs: zone maps refute part of the blocks, the
// probe planner anchors a candidate prefilter, and surviving blocks are
// decoded and searched.  No cluster build happens.  The op runs on 4
// threads.  The traced run rebuilds it on one thread, and compares with
// the executor on one thread.

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "analysis/linter.h"
#include "bench.h"
#include "colstore/columnar_executor.h"
#include "colstore/probe_planner.h"
#include "colstore/reader.h"
#include "colstore/writer.h"
#include "colstore/zone_skip.h"
#include "engine/executor.h"
#include "engine/matcher.h"
#include "engine/vectorized_eval.h"
#include "expr/kernel.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"

namespace perfbench {
namespace {

using sqlts::ColumnarExecOptions;
using sqlts::ColumnarExecutor;
using sqlts::ColumnarReader;
using sqlts::QueryResult;
using sqlts::StatusOr;

const char kScanQuery[] =
    "SELECT X.name, X.date, Y.price FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, Y) "
    "WHERE X.price > 118 AND Y.price > 1.04 * X.price";

constexpr int kScanInstruments = 512;
constexpr int64_t kScanDays = 1000;
constexpr int kScanWarmup = 2;
constexpr int kScanThreads = 4;

class ColumnarScan : public Workload {
 public:
  explicit ColumnarScan(const RunConfig& cfg)
      : cfg_(cfg), path_(cfg.workdir + "/columnar_scan.sqlc") {
    // As sqlts_cli runs queries: provably empty ones are refused.
    options_.exec.compile.refuse_provably_empty = true;
    one_thread_ = options_;
    options_.exec.num_threads = kScanThreads;
  }
  ~ColumnarScan() override { std::filesystem::remove(path_); }

  Status Setup() override {
    table_ = Table(QuoteSchema());
    Rng rng(cfg_.seed);
    SeriesShape shape;
    shape.days = kScanDays;
    shape.vol = 0.02;
    for (int i = 0; i < kScanInstruments; ++i) {
      // Price levels spread evenly over 60..140: instruments that stay
      // below the query's threshold are refuted by their zone maps.
      shape.level = 60.0 + 80.0 * i / (kScanInstruments - 1);
      AppendSeries(&table_, "S" + std::to_string(i), shape, &rng);
    }
    sqlts::ColumnarWriterOptions wopts;
    wopts.cluster_by = {"name"};
    wopts.sequence_by = {"date"};
    SQLTS_RETURN_IF_ERROR(
        sqlts::ColumnarWriter::WriteFile(table_, path_, wopts));
    for (int i = 0; i < kScanWarmup; ++i) {
      SQLTS_RETURN_IF_ERROR(
          ColumnarExecutor::ExecuteFile(path_, kScanQuery, options_).status());
    }
    return Status::OK();
  }

  Status Reference() override {
    SQLTS_ASSIGN_OR_RETURN(
        QueryResult r,
        sqlts::QueryExecutor::Execute(table_, kScanQuery, options_.exec));
    reference_ = TableRows(r.output);
    return Status::OK();
  }

  OpOutcome RunOp() override {
    OpOutcome o;
    const auto t0 = Clock::now();
    StatusOr<QueryResult> r =
        ColumnarExecutor::ExecuteFile(path_, kScanQuery, options_);
    o.ms = MsSince(t0);
    o.tuples = table_.num_rows();
    if (!r.ok()) {
      o.error = r.status().ToString();
      return o;
    }
    o.tests = r->stats.evaluations;
    o.ok = SameRows(TableRows(r->output), reference_);
    if (!o.ok) o.error = "rows differ from the in-memory reference";
    return o;
  }

  Status TracedOp(Tracer* t, double* untraced_ms) override {
    auto t0 = Clock::now();
    SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarReader> direct,
                           ColumnarReader::Open(path_));
    const auto t1 = Clock::now();
    SQLTS_RETURN_IF_ERROR(
        ColumnarExecutor::Execute(*direct, kScanQuery, one_thread_).status());
    *untraced_ms = MsSince(t0);
    t->Count("colstore.execute_ms", MsSince(t1));

    SQLTS_ASSIGN_OR_RETURN(std::vector<Row> rebuilt, Rebuild(t));
    if (!SameRows(rebuilt, reference_)) return Status::Internal("rebuilt rows");
    return Status::OK();
  }

  void LayerCounts(const Tracer& t, LayerMetrics* out) override {
    EngineCounts(t, out);
    const std::vector<double> decoded = t.CountsByOp("colstore.blocks_decoded");
    std::vector<double> decode_ms = t.SelfTimesByOp()["colstore.decode"];
    decode_ms.resize(decoded.size(), 0.0);
    std::vector<double> per_block;
    for (size_t i = 0; i < decoded.size(); ++i) {
      if (decoded[i] > 0) per_block.push_back(decode_ms[i] / decoded[i]);
    }
    const double total = t.MedianCount("colstore.blocks_total");
    (*out)["colstore.decode_ms_per_block"] = Median(per_block);
    (*out)["colstore.blocks_skipped_share"] =
        total > 0 ? t.MedianCount("colstore.blocks_skipped") / total : 0;
    (*out)["colstore.bytes_read_per_row"] =
        t.MedianCount("colstore.bytes_read") /
        static_cast<double>(table_.num_rows());
    (*out)["colstore.execute_ms"] = t.MedianCount("colstore.execute_ms");
  }

  const Table& InputTable() const override { return table_; }
  std::vector<std::string> Queries() const override { return {kScanQuery}; }
  std::vector<std::string> ClusterBy() const override { return {"name"}; }
  int64_t ReferenceMatches() const override {
    return static_cast<int64_t>(reference_.size());
  }

 private:
  /// ColumnarExecutor::Execute's clustered fast path, on one thread,
  /// rebuilt from the entry point of each layer with a span around every
  /// call.
  StatusOr<std::vector<Row>> Rebuild(Tracer* t) {
    Scoped root(t, "op");
    StatusOr<std::unique_ptr<ColumnarReader>> reader =
        Status::Internal("unset");
    {
      Scoped s(t, "colstore.open");
      reader = ColumnarReader::Open(path_);
    }
    SQLTS_RETURN_IF_ERROR(reader.status());
    const sqlts::ColumnarFooter& footer = (*reader)->footer();
    StatusOr<sqlts::CompiledQuery> q = Status::Internal("unset");
    {
      Scoped s(t, "parser.parse_analyze");
      q = sqlts::CompileQueryText(kScanQuery, footer.schema);
    }
    SQLTS_RETURN_IF_ERROR(q.status());
    if (!q->cluster_filters.empty()) {
      return Status::InvalidArgument("the rebuild has no cluster filters");
    }
    {
      Scoped s(t, "analysis.lint");
      sqlts::LintOptions lint_options;
      lint_options.oracle = options_.exec.compile.oracle;
      if (sqlts::LintQuery(*q, lint_options).has_errors()) {
        return Status::InvalidArgument("query is provably empty");
      }
    }
    sqlts::ProbePlan pplan;
    {
      Scoped s(t, "colstore.plan");
      pplan = sqlts::ProbePlanner::Plan(*q, footer);
    }
    StatusOr<sqlts::PatternPlan> plan = Status::Internal("unset");
    {
      Scoped s(t, "pattern.compile");
      plan = sqlts::CompilePattern(pplan.query, options_.exec.compile);
    }
    SQLTS_RETURN_IF_ERROR(plan.status());
    std::unique_ptr<sqlts::ZoneSkipper> skipper;
    {
      Scoped s(t, "colstore.zone_skip");
      skipper = std::make_unique<sqlts::ZoneSkipper>(
          pplan.query, footer, options_.exec.compile.oracle);
    }
    std::unique_ptr<sqlts::VectorizedPlanEval> vec;
    {
      Scoped s(t, "expr.kernel_compile");
      vec = sqlts::VectorizedPlanEval::Create(*plan, footer.schema);
    }

    const int64_t bytes_before = (*reader)->bytes_read();
    sqlts::KernelScratch scratch;
    sqlts::SearchStats stats;
    int64_t skipped = 0, decoded = 0;
    std::vector<Row> out;
    for (size_t ci = 0; ci < footer.clusters.size(); ++ci) {
      const sqlts::ClusterMeta& cm = footer.clusters[ci];
      sqlts::ZoneDecision dec;
      {
        Scoped s(t, "colstore.zone_skip");
        dec = skipper->enabled() ? skipper->DecideCluster(static_cast<int>(ci))
                                 : sqlts::ZoneDecision{};
      }
      if (!skipper->enabled()) dec.skip_block.assign(cm.num_blocks, false);
      if (dec.skip_cluster) {
        skipped += cm.num_blocks;
        continue;
      }
      for (int b = 0; b < cm.num_blocks;) {
        if (dec.skip_block[b]) {
          ++skipped;
          ++b;
          continue;
        }
        int eb = b;
        while (eb + 1 < cm.num_blocks && !dec.skip_block[eb + 1]) ++eb;
        StatusOr<Table> segment = Status::Internal("unset");
        {
          Scoped s(t, "colstore.decode");
          segment = (*reader)->ReadBlockRange(cm.first_block + b, eb - b + 1);
        }
        SQLTS_RETURN_IF_ERROR(segment.status());
        decoded += eb - b + 1;
        std::vector<int64_t> idx(segment->num_rows());
        std::iota(idx.begin(), idx.end(), 0);
        sqlts::SequenceView seq(&*segment, std::move(idx));
        sqlts::SearchOptions so;
        std::unique_ptr<sqlts::ElementEvaluator> ev;
        if (vec != nullptr) {
          ev = vec->MakeEvaluator();
          so.evaluator = ev.get();
        }
        std::vector<uint64_t> candidates;
        if (pplan.anchor_kernel != nullptr) {
          Scoped s(t, "colstore.probe");
          candidates = Candidates(pplan, seq, &scratch);
          so.candidate_starts = &candidates;
        }
        std::vector<sqlts::Match> matches;
        sqlts::SearchStats segment_stats;
        {
          Scoped s(t, "engine.search");
          matches = sqlts::OpsSearch(seq, *plan, &segment_stats, nullptr, so);
        }
        stats += segment_stats;
        {
          Scoped s(t, "engine.project");
          for (const sqlts::Match& m : matches) {
            out.push_back(sqlts::ProjectMatch(pplan.query, seq, m));
          }
        }
        b = eb + 1;
      }
    }
    t->Count("colstore.blocks_total", static_cast<double>(footer.blocks.size()));
    t->Count("colstore.blocks_skipped", static_cast<double>(skipped));
    t->Count("colstore.blocks_decoded", static_cast<double>(decoded));
    t->Count("colstore.bytes_read",
             static_cast<double>((*reader)->bytes_read() - bytes_before));
    t->Count("engine.tests", static_cast<double>(stats.evaluations));
    t->Count("engine.jumps", static_cast<double>(stats.jumps));
    t->Count("engine.presat_skips", static_cast<double>(stats.presat_skips));
    return out;
  }

  /// The probe planner's candidate-start prefilter: positions whose
  /// anchor element's kernel verdict is TRUE, shifted to match starts.
  static std::vector<uint64_t> Candidates(const sqlts::ProbePlan& pplan,
                                          const sqlts::SequenceView& seq,
                                          sqlts::KernelScratch* scratch) {
    const int64_t n = seq.size();
    sqlts::TriMask mask;
    pplan.anchor_kernel->Eval(seq, 0, n, scratch, &mask);
    std::vector<uint64_t> words(static_cast<size_t>((n + 63) / 64), 0);
    const int d = pplan.anchor_element;
    for (int64_t s = 0; s + d < n; ++s) {
      if (mask.True(s + d)) {
        words[static_cast<size_t>(s >> 6)] |= uint64_t{1} << (s & 63);
      }
    }
    return words;
  }

  const RunConfig cfg_;
  const std::string path_;
  ColumnarExecOptions options_;
  ColumnarExecOptions one_thread_;  // what the one-thread rebuild mirrors
  Table table_;
  std::vector<Row> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeColumnarScan(const RunConfig& cfg) {
  return std::make_unique<ColumnarScan>(cfg);
}

}  // namespace perfbench
