// Vectorized predicate-evaluation tier (ROADMAP item 1): the relaxed
// double-bottom query's conjuncts (Example 10 — all tuple-local ratio
// predicates) evaluated over 25 years of synthetic DJIA closes, the
// interpreter's per-position tree walk vs the compiled block kernels.
//
// Two layers are measured:
//  - the predicate-eval hot loop in isolation (EvalPredicate per
//    position vs PredicateKernel::Eval per block) — the acceptance
//    gate: the kernels must be at least 5x faster, checked in-binary;
//  - the end-to-end query (ExecOptions::vectorize off vs on), which
//    must return identical matches (parity re-checked here, not just
//    in tests).
//
// Usage: bench_vectorized [out.json]   (JSON also printed to stdout;
// it records the commit, build type and processor count it ran on)

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "expr/eval.h"
#include "expr/kernel.h"
#include "parser/analyzer.h"
#include "pattern/compile.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Every vectorizable conjunct of every element of `plan`.
std::vector<ExprPtr> VectorizableConjuncts(const PatternPlan& plan,
                                           const Schema& schema,
                                           int* total) {
  std::vector<ExprPtr> out;
  *total = 0;
  for (size_t j = 1; j < plan.predicates.size(); ++j) {
    if (plan.predicates[j] == nullptr) continue;
    std::vector<ExprPtr> conjuncts;
    FlattenConjuncts(plan.predicates[j], &conjuncts);
    for (const ExprPtr& c : conjuncts) {
      ++*total;
      if (PredicateKernel::Compile(c, schema) != nullptr) out.push_back(c);
    }
  }
  return out;
}

}  // namespace
}  // namespace sqlts

int main(int argc, char** argv) {
  using namespace sqlts;
  using namespace sqlts::bench_util;

  const std::string query = PaperExampleQuery(10);
  Date start = *Date::Parse("1974-01-02");
  const int64_t days = 6300;  // ~25 trading years
  Table djia = PricesToQuoteTable("DJIA", start, SynthesizeDjia(days));

  auto compiled = CompileQueryText(query, djia.schema());
  SQLTS_CHECK(compiled.ok()) << compiled.status();
  auto plan = CompilePattern(*compiled, CompileOptions{});
  SQLTS_CHECK(plan.ok()) << plan.status();

  int total_conjuncts = 0;
  std::vector<ExprPtr> conjuncts =
      VectorizableConjuncts(*plan, djia.schema(), &total_conjuncts);
  SQLTS_CHECK(!conjuncts.empty()) << "double bottom has no vectorizable "
                                     "conjuncts; tier is dead";

  std::vector<int64_t> rows(djia.num_rows());
  for (int64_t r = 0; r < djia.num_rows(); ++r) rows[r] = r;
  SequenceView view(&djia, std::move(rows));
  const int64_t n = view.size();

  // -------------------------------------------------------------------
  // Hot loop: one full-sequence sweep per conjunct, interpreter vs
  // kernels, repeated enough to dominate timer noise.  Verdict parity
  // is asserted on the fly (both sides fold to the TRUE-collapse).
  // -------------------------------------------------------------------
  const int reps = 40;
  std::vector<std::unique_ptr<PredicateKernel>> kernels;
  for (const ExprPtr& c : conjuncts) {
    kernels.push_back(PredicateKernel::Compile(c, djia.schema()));
    SQLTS_CHECK(kernels.back() != nullptr);
  }

  int64_t interp_true = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const ExprPtr& c : conjuncts) {
      EvalContext ctx;
      ctx.seq = &view;
      ctx.spans = nullptr;
      for (int64_t pos = 0; pos < n; ++pos) {
        ctx.pos = pos;
        if (EvalPredicate(*c, ctx)) ++interp_true;
      }
    }
  }
  const double interp_ms = MsSince(t0);

  int64_t kernel_true = 0;
  KernelScratch scratch;
  TriMask mask;
  t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& k : kernels) {
      k->Eval(view, 0, n, &scratch, &mask);
      for (uint64_t word : mask.true_bits) {
        kernel_true += __builtin_popcountll(word);
      }
    }
  }
  const double kernel_ms = MsSince(t0);

  SQLTS_CHECK(interp_true == kernel_true)
      << "verdict divergence: interpreter saw " << interp_true
      << " TRUE, kernels saw " << kernel_true;
  const double hot_speedup = interp_ms / kernel_ms;

  PrintHeader("Vectorized predicate kernels: double-bottom hot loop");
  std::printf("%lld days, %zu/%d conjuncts vectorized, %d reps\n",
              static_cast<long long>(days), conjuncts.size(),
              total_conjuncts, reps);
  std::printf("interpreter: %10.2f ms   kernels: %10.2f ms   "
              "speedup: %6.2fx\n",
              interp_ms, kernel_ms, hot_speedup);

  // -------------------------------------------------------------------
  // End to end: the full OPS search with the tier off vs on.  OPS
  // itself only probes ~9k (element, position) pairs here, so the run
  // is a few ms; best-of-N tames timer noise.
  // -------------------------------------------------------------------
  const int e2e_runs = 7;
  ExecOptions off;
  off.vectorize = false;
  double e2e_interp_ms = 0, e2e_vec_ms = 0;
  StatusOr<QueryResult> interp_run = QueryExecutor::ExecuteCompiled(
      djia, *compiled, off);
  SQLTS_CHECK(interp_run.ok()) << interp_run.status();
  StatusOr<QueryResult> vec_run = QueryExecutor::ExecuteCompiled(
      djia, *compiled, ExecOptions{});
  SQLTS_CHECK(vec_run.ok()) << vec_run.status();
  for (int r = 0; r < e2e_runs; ++r) {
    t0 = std::chrono::steady_clock::now();
    auto i = QueryExecutor::ExecuteCompiled(djia, *compiled, off);
    const double ims = MsSince(t0);
    SQLTS_CHECK(i.ok()) << i.status();
    t0 = std::chrono::steady_clock::now();
    auto v = QueryExecutor::ExecuteCompiled(djia, *compiled, ExecOptions{});
    const double vms = MsSince(t0);
    SQLTS_CHECK(v.ok()) << v.status();
    if (r == 0 || ims < e2e_interp_ms) e2e_interp_ms = ims;
    if (r == 0 || vms < e2e_vec_ms) e2e_vec_ms = vms;
  }

  SQLTS_CHECK(interp_run->stats.matches == vec_run->stats.matches &&
              interp_run->stats.evaluations == vec_run->stats.evaluations)
      << "end-to-end divergence: interpreted " << interp_run->stats.matches
      << " matches / " << interp_run->stats.evaluations
      << " evals, vectorized " << vec_run->stats.matches << " / "
      << vec_run->stats.evaluations;

  PrintHeader("End-to-end double bottom (OPS search)");
  std::printf("matches=%lld evaluations=%lld\n",
              static_cast<long long>(vec_run->stats.matches),
              static_cast<long long>(vec_run->stats.evaluations));
  std::printf("interpreted: %8.2f ms   vectorized: %8.2f ms   "
              "speedup: %6.2fx\n",
              e2e_interp_ms, e2e_vec_ms, e2e_interp_ms / e2e_vec_ms);

  std::ostringstream json;
  json << "{\n  \"bench\": \"vectorized\",\n"
       << "  " << ProvenanceJson() << ",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"conjuncts_total\": " << total_conjuncts << ",\n"
       << "  \"conjuncts_vectorized\": " << conjuncts.size() << ",\n"
       << "  \"hot_loop\": {\"interpreter_ms\": " << interp_ms
       << ", \"kernel_ms\": " << kernel_ms << ", \"speedup\": " << hot_speedup
       << "},\n"
       << "  \"end_to_end\": {\"interpreted_ms\": " << e2e_interp_ms
       << ", \"vectorized_ms\": " << e2e_vec_ms
       << ", \"matches\": " << vec_run->stats.matches << "}\n}\n";
  std::printf("\n%s", json.str().c_str());
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    SQLTS_CHECK(f != nullptr) << "cannot open " << argv[1];
    std::fputs(json.str().c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }

  // Acceptance: the predicate-eval hot loop must be at least 5x faster
  // vectorized, and every conjunct of the headline query must compile.
  SQLTS_CHECK(hot_speedup >= 5.0)
      << "hot-loop speedup " << hot_speedup << "x is below the 5x gate";
  SQLTS_CHECK(static_cast<int>(conjuncts.size()) == total_conjuncts)
      << "a double-bottom conjunct fell off the vectorized path";
  return 0;
}
