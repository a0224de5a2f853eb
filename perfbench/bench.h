// Shared pieces of the end-to-end benchmark: the workload interface the
// runner drives, the span recorder of the traced run, and input helpers.
//
// Every workload follows one shape.  Setup() builds the inputs from the
// seed and brings the system to a warm state; it is repeated and timed
// as `setup_s`.  Reference() computes the expected output once, by a
// different path than the op.  RunOp() performs and times one op and
// checks its output.  TracedOp() rebuilds the same op from the public
// entry points of each src/ module, recording a span around every call.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "types/schema.h"

namespace perfbench {

using sqlts::Row;
using sqlts::Schema;
using sqlts::Status;
using sqlts::Table;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;     ///< checkout root (holds data/)
  std::string workdir;  ///< working files: .sqlc outputs, span dumps
};

/// One timed op.  `ms` covers the op only, never its output check.
struct OpOutcome {
  bool ok = false;
  double ms = 0;
  int64_t tuples = 0;  ///< input tuples the op answered
  int64_t tests = 0;   ///< predicate tests the engine reported
  /// Ops found wrong by this call (a streaming pass is checked once, at
  /// its end, and a wrong pass fails all of its rounds).
  int64_t failed = 0;
  std::string error;
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// In-memory span log of the traced run.  A span names the layer whose
/// public entry point it wraps; spans of one op share `op`, and
/// `parent` is the index of the enclosing span (-1 for the op root).
class Tracer {
 public:
  struct Span {
    const char* name;  ///< a string literal
    int64_t op;
    int parent;
    double start_ms;
    double end_ms;
  };

  void BeginOp() { ++op_; }
  int Begin(const char* name);
  void End(int id);
  /// A count recorded at a layer boundary, summed per op.
  void Count(const std::string& name, double value);

  int64_t num_ops() const { return op_ + 1; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Median over ops of a count (0 for ops that did not record it).
  double MedianCount(const std::string& name) const;
  /// The per-op values of a count, one per op.
  std::vector<double> CountsByOp(const std::string& name) const;
  /// Self time (duration minus child spans) per layer and op.
  std::map<std::string, std::vector<double>> SelfTimesByOp() const;
  /// Root-span wall time per op.
  std::vector<double> RootTimes() const;
  /// Writes every span as one JSON line.
  Status Dump(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, std::vector<double>> counts_;  // per op
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name)
      : t_(t), id_(t ? t->Begin(name) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Per-layer metrics a workload reports from its traced run.
using LayerMetrics = std::map<std::string, double>;

/// Median of the OpsSearch counters the rebuilt ops recorded:
/// engine.tests, engine.jumps and engine.presat_skip_share.
void EngineCounts(const Tracer& t, LayerMetrics* out);

double Median(std::vector<double> v);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Status Setup() = 0;
  virtual Status Reference() = 0;
  virtual OpOutcome RunOp() = 0;
  /// Rebuilds one op under `tracer`; fails when it disagrees with the
  /// reference.  `untraced_ms` receives the time of the same op run
  /// through the engine's own entry point, without spans.
  virtual Status TracedOp(Tracer* tracer, double* untraced_ms) = 0;
  /// Layer metrics beyond the span self times (counts and ratios).
  virtual void LayerCounts(const Tracer& tracer, LayerMetrics* out) = 0;

  /// The table behind the op, its query texts, and its layout; used to
  /// measure the `.sqlc` write cost and the standing-query checkpoint
  /// cost of the workload's data.
  virtual const Table& InputTable() const = 0;
  virtual std::vector<std::string> Queries() const = 0;
  virtual std::vector<std::string> ClusterBy() const = 0;
  /// Checkpoint latencies taken by the op loop itself; null when the
  /// workload's ops take none.
  virtual const std::vector<double>* OpCheckpointMs() const {
    return nullptr;
  }
  /// Matches the reference holds; a run with none measures nothing.
  virtual int64_t ReferenceMatches() const = 0;
  /// True between the ops of one unit that is checked as a whole (a
  /// streaming pass); the timed loop only stops at a unit boundary.
  virtual bool MidUnit() const { return false; }
  /// True when the op hands off between threads of this process (a
  /// client and a server); the process is then pinned to one CPU, so
  /// cross-CPU wake-ups, slow and erratic on a virtual machine, stay
  /// out of its timings.
  virtual bool OneCpu() const { return false; }
};

std::unique_ptr<Workload> MakeDjiaServer(const RunConfig& cfg);
std::unique_ptr<Workload> MakePortfolioBatch(const RunConfig& cfg);
std::unique_ptr<Workload> MakePortfolioStream(const RunConfig& cfg);
std::unique_ptr<Workload> MakeColumnarScan(const RunConfig& cfg);

// ---- input and checking helpers (inputs.cc) ----

/// name STRING, date DATE, price DOUBLE (declared positive, which
/// licenses the paper's ratio reasoning over prices).
Schema QuoteSchema();

/// Splitmix64-seeded generator for the synthetic quote series.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  double Normal();   ///< standard normal

 private:
  uint64_t s_;
};

/// Appends `days` daily quotes for instrument `name`, priced in cents.
/// The log price reverts to log(level) at rate `reversion` per day, with
/// normal shocks of `vol`.  With probability `spike_prob` per day a
/// +20% / -25% spike pair is planted, and with `crash_prob` a run of
/// nine 9% declines.
struct SeriesShape {
  int64_t days = 1000;
  double vol = 0.02;
  double reversion = 0.02;
  double level = 100;
  double spike_prob = 0;
  double crash_prob = 0;
};
void AppendSeries(Table* table, const std::string& name,
                  const SeriesShape& shape, Rng* rng);

/// Row-order-sensitive equality of two row lists.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b);
/// Equality of two row lists as multisets.
bool SameRowMultiset(std::vector<Row> a, std::vector<Row> b);
std::vector<Row> TableRows(const Table& t);

/// Bytes of the table rendered as CSV with a header line.
int64_t CsvBytes(const Table& t);

/// Runs fn(i) for i in [0, n) on `threads` workers claiming indexes.
void ParallelFor(int threads, int n, const std::function<void(int)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
