// End-to-end benchmark runner.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --root DIR --workdir DIR [--commit ID]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// rebuilds each op from the public entry points of the src/ modules and
// reports per-layer metrics.  The last line of stdout is the result
// object; the line before it records the build and the sample counts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.h"
#include "colstore/writer.h"
#include "multiquery/multi_stream.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
/// Rows of the table slice the side costs are measured on.
constexpr int64_t kSliceRows = 65536;
/// Interval of the side-cost samples within the timed loop.
constexpr std::chrono::milliseconds kSideSampleEvery(1000);
/// A percentile is reported only with this many samples beyond it.
constexpr int64_t kMinBeyond = 10;

/// Every per-layer metric, reported on every workload; a layer that is
/// not on a workload's path reads 0 there.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"parser.parse_analyze_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"pattern.compile_ms", "ms"},
    {"expr.kernel_compile_ms", "ms"},
    {"storage.cluster_build_ms", "ms"},
    {"storage.clusters", "count"},
    {"engine.search_ms", "ms"},
    {"engine.tests", "count"},
    {"engine.presat_skip_share", "ratio"},
    {"engine.jumps", "count"},
    {"engine.project_ms", "ms"},
    {"engine.shard_rows_skew", "ratio"},
    {"engine.shard_queue_high_water", "count"},
    {"engine.checkpoint_ms", "ms"},
    {"engine.checkpoint_bytes", "bytes"},
    {"engine.finish_ms", "ms"},
    {"multiquery.push_ms", "ms"},
    {"multiquery.dedup_hit_rate", "ratio"},
    {"multiquery.shared_evals", "count"},
    {"multiquery.private_evals", "count"},
    {"multiquery.distinct_predicates", "count"},
    {"colstore.open_ms", "ms"},
    {"colstore.plan_ms", "ms"},
    {"colstore.zone_skip_ms", "ms"},
    {"colstore.probe_ms", "ms"},
    {"colstore.execute_ms", "ms"},
    {"colstore.decode_ms_per_block", "ms/block"},
    {"colstore.blocks_skipped_share", "ratio"},
    {"colstore.bytes_read_per_row", "bytes/row"},
    {"server.round_trip_ms", "ms"},
    {"server.wire_ms", "ms"},
    {"server.reply_bytes", "bytes"},
    {"server.coalesced_runs", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Nearest-rank percentile; `beyond` receives the samples above it.
double Percentile(std::vector<double> v, double q, int64_t* beyond) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  *beyond = static_cast<int64_t>(v.size() - idx - 1);
  return v[idx];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(1);
}

void FailIf(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

/// The side costs of a workload's table: the `.sqlc` write cost, the
/// space cost, and the checkpoint cost of its queries standing over it.
/// They are measured on the table's first kSliceRows rows and sampled
/// once a second through the timed loop, so that their medians cover
/// the same stretch of time as the ops.
class SideCosts {
 public:
  SideCosts(const Workload& w, const RunConfig& cfg)
      : w_(w), path_(cfg.workdir + "/convert.sqlc") {
    const Table& t = w.InputTable();
    slice_ = Table(t.schema());
    for (int64_t r = 0; r < std::min(t.num_rows(), kSliceRows); ++r) {
      FailIf(slice_.AppendRow(t.GetRow(r)), "slice");
    }
    if (w.OpCheckpointMs() != nullptr) return;
    sqlts::ExecOptions opts;
    opts.num_threads = 1;
    auto exec = sqlts::MultiStreamExecutor::Create(slice_.schema(), opts);
    FailIf(exec.status(), "standing executor");
    standing_ = std::move(*exec);
    for (const std::string& q : w.Queries()) {
      FailIf(standing_->AddQuery(q, [](const Row&) {}).status(), "AddQuery");
    }
    for (int64_t r = 0; r < slice_.num_rows(); ++r) {
      FailIf(standing_->Push(slice_.GetRow(r)), "Push");
    }
  }
  ~SideCosts() { std::filesystem::remove(path_); }

  void Sample() {
    sqlts::ColumnarWriterOptions opts;
    opts.cluster_by = w_.ClusterBy();
    opts.sequence_by = {"date"};
    auto t0 = Clock::now();
    FailIf(sqlts::ColumnarWriter::WriteFile(slice_, path_, opts), "convert");
    convert_ms_.push_back(MsSince(t0));
    if (standing_ != nullptr) {
      std::string bytes;
      t0 = Clock::now();
      FailIf(standing_->Checkpoint(&bytes), "Checkpoint");
      checkpoint_ms_.push_back(MsSince(t0));
    }
  }

  const std::vector<double>& convert_ms() const { return convert_ms_; }
  const std::vector<double>& checkpoint_ms() const {
    return standing_ != nullptr ? checkpoint_ms_ : *w_.OpCheckpointMs();
  }
  /// `.sqlc` bytes per CSV byte of the slice.
  double StoredBytesPerUserByte() const {
    return static_cast<double>(std::filesystem::file_size(path_)) /
           static_cast<double>(CsvBytes(slice_));
  }

 private:
  const Workload& w_;
  const std::string path_;
  Table slice_;
  std::unique_ptr<sqlts::MultiStreamExecutor> standing_;
  std::vector<double> convert_ms_;
  std::vector<double> checkpoint_ms_;
};

/// Pins the process, and every thread it starts later, to the last CPU
/// it may run on.  Returns that CPU, or -1 when affinity is unavailable.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? last : -1;
}

std::string InfoLine(const RunConfig& cfg, const std::string& commit,
                     int pinned_cpu, const std::string& samples) {
  std::ostringstream o;
  o << "{\"info\": {\"workload\": " << Quote(cfg.workload)
    << ", \"seed\": " << cfg.seed << ", \"trace\": " << (cfg.trace ? 1 : 0)
    << ", \"commit\": " << Quote(commit)
    << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << Quote(std::string("gcc ") + __VERSION__)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pinned_cpu\": " << pinned_cpu
    << ", \"samples\": {" << samples << "}}}";
  return o.str();
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--root") cfg.root = v;
    else if (k == "--workdir") cfg.workdir = v;
    else if (k == "--commit") commit = v;
    else Fail("unknown flag " + k);
  }
  std::unique_ptr<Workload> w;
  if (cfg.workload == "djia_server") w = MakeDjiaServer(cfg);
  else if (cfg.workload == "portfolio_batch") w = MakePortfolioBatch(cfg);
  else if (cfg.workload == "portfolio_stream") w = MakePortfolioStream(cfg);
  else if (cfg.workload == "columnar_scan") w = MakeColumnarScan(cfg);
  else Fail("unknown workload '" + cfg.workload + "'");
  if (cfg.seconds <= 0 || cfg.root.empty() || cfg.workdir.empty()) {
    Fail("--seconds, --root and --workdir are required");
  }
  std::filesystem::create_directories(cfg.workdir);
  const int pinned_cpu = w->OneCpu() ? PinToOneCpu() : -1;

  // Set-up is repeated; each repeat replaces the previous state.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    FailIf(w->Setup(), "setup");
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  FailIf(w->Reference(), "reference");
  if (w->ReferenceMatches() <= 0) Fail("the workload's query matches nothing");

  int64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::ostringstream samples;
  const auto seconds = std::chrono::duration<double>(cfg.seconds);

  if (!cfg.trace) {
    SideCosts side(*w, cfg);
    const auto deadline = Clock::now() + seconds;
    std::vector<double> op_ms;
    int64_t tuples = 0, tests = 0;
    double op_total_ms = 0;
    auto next_side = Clock::now();
    // Run for the measured time, and on until p90 has enough samples
    // beyond it (bounded at three times the measured time).
    const auto hard_stop = Clock::now() + 3 * seconds;
    while (Clock::now() < deadline || w->MidUnit() ||
           (op_ms.size() < 10 * kMinBeyond + 10 && Clock::now() < hard_stop)) {
      if (Clock::now() >= next_side) {
        side.Sample();
        next_side = Clock::now() + kSideSampleEvery;
      }
      OpOutcome r = w->RunOp();
      ++attempted;
      failed += r.failed + (r.ok ? 0 : 1);
      if (!r.ok && failed <= 3) {
        std::fprintf(stderr, "perfbench: op failed: %s\n", r.error.c_str());
      }
      op_ms.push_back(r.ms);
      op_total_ms += r.ms;
      tuples += r.tuples;
      tests += r.tests;
    }
    const double rss = PeakRssMb();
    int64_t beyond50 = 0, beyond90 = 0;
    const double p50 = Percentile(op_ms, 0.5, &beyond50);
    const double p90 = Percentile(op_ms, 0.9, &beyond90);
    if (beyond90 < kMinBeyond) {
      Fail("refusing op_ms_p90: only " + std::to_string(beyond90) +
           " samples beyond it");
    }
    const std::vector<double>& ckpt = side.checkpoint_ms();

    metrics.push_back({"op_ms_p50", p50, "ms"});
    metrics.push_back({"op_ms_p90", p90, "ms"});
    metrics.push_back(
        {"rows_per_s", static_cast<double>(tuples) / (op_total_ms / 1000.0),
         "rows/s"});
    metrics.push_back({"tests_per_tuple",
                       static_cast<double>(tests) /
                           static_cast<double>(std::max<int64_t>(1, tuples)),
                       "tests/tuple"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", rss, "MB"});
    metrics.push_back({"checkpoint_ms_p50", Median(ckpt), "ms"});
    metrics.push_back({"convert_ms", Median(side.convert_ms()), "ms"});
    metrics.push_back({"stored_bytes_per_user_byte",
                       side.StoredBytesPerUserByte(), "ratio"});
    samples << "\"op_ms_p50\": {\"n\": " << op_ms.size()
            << ", \"beyond\": " << beyond50 << "}, \"op_ms_p90\": {\"n\": "
            << op_ms.size() << ", \"beyond\": " << beyond90
            << "}, \"setup_s\": {\"n\": " << setup_s.size()
            << "}, \"checkpoint_ms_p50\": {\"n\": " << ckpt.size()
            << "}, \"convert_ms\": {\"n\": " << side.convert_ms().size()
            << "}, \"failed_share\": "
            << Fmt(static_cast<double>(failed) / attempted);
  } else {
    Tracer tracer;
    std::vector<double> untraced;
    const auto deadline = Clock::now() + seconds;
    while (Clock::now() < deadline || w->MidUnit() ||
           tracer.num_ops() < 20) {
      tracer.BeginOp();
      double ms = 0;
      Status s = w->TracedOp(&tracer, &ms);
      ++attempted;
      if (!s.ok()) {
        ++failed;
        if (failed <= 3) {
          std::fprintf(stderr, "perfbench: traced op: %s\n",
                       s.ToString().c_str());
        }
      }
      untraced.push_back(ms);
    }
    FailIf(tracer.Dump(cfg.workdir + "/spans-" + cfg.workload + ".jsonl"),
           "span dump");
    LayerMetrics layers;
    std::map<std::string, std::vector<double>> self = tracer.SelfTimesByOp();
    for (const auto& [name, per_op] : self) {
      if (name != "op") layers[name + "_ms"] = Median(per_op);
    }
    w->LayerCounts(tracer, &layers);
    // Coverage: the share of the rebuilt ops' wall time that falls in a
    // layer span rather than in the root span's own time.
    const std::vector<double> roots = tracer.RootTimes();
    double total = 0, uncovered = 0;
    for (double v : roots) total += v;
    for (double v : self["op"]) uncovered += v;
    layers["trace.overhead_share"] = Median(roots) / Median(untraced) - 1.0;
    layers["trace.coverage"] = total > 0 ? 1.0 - uncovered / total : 0;
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
    }
    samples << "\"traced_ops\": " << tracer.num_ops()
            << ", \"spans\": " << tracer.spans().size()
            << ", \"failed_share\": "
            << Fmt(static_cast<double>(failed) / attempted);
  }

  const bool correct = failed == 0;
  std::printf("%s\n", InfoLine(cfg, commit, pinned_cpu, samples.str()).c_str());
  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    res << (i ? ", " : "") << Quote(metrics[i].name) << ": {\"value\": "
        << Fmt(metrics[i].value) << ", \"unit\": " << Quote(metrics[i].unit)
        << "}";
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
