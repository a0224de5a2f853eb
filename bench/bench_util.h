#ifndef SQLTS_BENCH_BENCH_UTIL_H_
#define SQLTS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <thread>

#include "bench_provenance.h"
#include "engine/executor.h"
#include "workload/generators.h"

namespace sqlts {
namespace bench_util {

/// Result of running one query under both algorithms.
struct Comparison {
  int64_t naive_evals = 0;
  int64_t ops_evals = 0;
  int64_t matches = 0;
  double speedup() const {
    return ops_evals == 0 ? 0.0
                          : static_cast<double>(naive_evals) /
                                static_cast<double>(ops_evals);
  }
};

/// Runs `query` with naive and OPS matchers; aborts on errors (bench
/// inputs are fixed).
inline Comparison CompareAlgorithms(const Table& table,
                                    const std::string& query,
                                    const ExecOptions& base = {}) {
  ExecOptions ops_opt = base;
  ops_opt.algorithm = SearchAlgorithm::kOps;
  auto ops = QueryExecutor::Execute(table, query, ops_opt);
  SQLTS_CHECK(ops.ok()) << ops.status();
  ExecOptions naive_opt = base;
  naive_opt.algorithm = SearchAlgorithm::kNaive;
  auto naive = QueryExecutor::Execute(table, query, naive_opt);
  SQLTS_CHECK(naive.ok()) << naive.status();
  SQLTS_CHECK(naive->stats.matches == ops->stats.matches)
      << "algorithms disagree: naive=" << naive->stats.matches
      << " ops=" << ops->stats.matches;
  Comparison c;
  c.naive_evals = naive->stats.evaluations;
  c.ops_evals = ops->stats.evaluations;
  c.matches = ops->stats.matches;
  return c;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void PrintComparisonRow(const char* label, const Comparison& c) {
  std::printf("%-28s matches=%6lld  naive_tests=%10lld  ops_tests=%10lld  "
              "speedup=%8.2fx\n",
              label, static_cast<long long>(c.matches),
              static_cast<long long>(c.naive_evals),
              static_cast<long long>(c.ops_evals), c.speedup());
}

/// Provenance fields for a BENCH_*.json object, without the braces:
/// the source commit (`git describe --always --dirty` when the bench
/// was built, see bench/provenance.cmake; a "-dirty" suffix means
/// uncommitted changes on top of that commit), the CMake build type and
/// the processors available.
inline std::string ProvenanceJson() {
  return std::string("\"commit\": \"") + SQLTS_SOURCE_COMMIT +
         "\", \"build_type\": \"" + SQLTS_BUILD_TYPE + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
}

}  // namespace bench_util
}  // namespace sqlts

#endif  // SQLTS_BENCH_BENCH_UTIL_H_
