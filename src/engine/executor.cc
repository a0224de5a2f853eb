#include "engine/executor.h"

#include "analysis/linter.h"
#include "engine/scan_driver.h"
#include "engine/vectorized_eval.h"
#include "storage/csv.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

/// Coerces a computed SELECT value to the declared output column type
/// (int64 results may feed double columns, etc.).
Value CoerceTo(TypeKind want, Value v) {
  if (v.is_null() || v.kind() == want) return v;
  if (want == TypeKind::kDouble && v.kind() == TypeKind::kInt64) {
    return Value::Double(static_cast<double>(v.int64_value()));
  }
  if (want == TypeKind::kInt64 && v.kind() == TypeKind::kDouble) {
    return Value::Int64(static_cast<int64_t>(v.double_value()));
  }
  return v;  // AppendRow will surface genuine type errors
}

}  // namespace

bool ClusterAccepted(const CompiledQuery& query, const SequenceView& seq) {
  if (seq.size() == 0) return false;
  EvalContext ctx;
  ctx.seq = &seq;
  ctx.pos = 0;
  ctx.spans = nullptr;
  for (const ExprPtr& f : query.cluster_filters) {
    if (!EvalPredicate(*f, ctx)) return false;
  }
  return true;
}

Row ProjectMatch(const CompiledQuery& query, const SequenceView& seq,
                 const Match& match) {
  EvalContext ctx;
  ctx.seq = &seq;
  ctx.pos = 0;
  ctx.spans = &match.spans;
  Row row;
  row.reserve(query.select.size());
  for (size_t s = 0; s < query.select.size(); ++s) {
    Value v = EvalExpr(*query.select[s].expr, ctx);
    row.push_back(
        CoerceTo(query.output_schema.column(s).type, std::move(v)));
  }
  return row;
}

StatusOr<QueryResult> QueryExecutor::Execute(const Table& input,
                                             std::string_view query_text,
                                             const ExecOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(query_text, input.schema()));
  return ExecuteCompiled(input, query, options);
}

StatusOr<QueryResult> QueryExecutor::ExecuteCsvFile(
    const std::string& path, const Schema& schema,
    std::string_view query_text, const ExecOptions& options) {
  CsvReadOptions csv_options;
  csv_options.bad_input = options.governance.bad_input;
  CsvReadStats csv_stats;
  SQLTS_ASSIGN_OR_RETURN(Table input,
                         ReadCsvFile(path, schema, csv_options, &csv_stats));
  SQLTS_ASSIGN_OR_RETURN(QueryResult result,
                         Execute(input, query_text, options));
  result.rows_skipped = csv_stats.rows_skipped;
  return result;
}

StatusOr<QueryResult> QueryExecutor::ExecuteCompiled(
    const Table& input, const CompiledQuery& query,
    const ExecOptions& options) {
  // Static analysis gate: refuse provably-empty queries up front rather
  // than scanning for matches that cannot exist.
  SQLTS_RETURN_IF_ERROR(RefuseProvablyEmpty(query, options.compile));

  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         CompilePattern(query, options.compile));
  SQLTS_ASSIGN_OR_RETURN(
      ClusteredSequence clusters,
      ClusteredSequence::Build(&input, query.cluster_by, query.sequence_by));

  SQLTS_RETURN_IF_ERROR(options.governance.Check());

  QueryResult result{Table(query.output_schema), SearchStats{},
                     SearchTrace{}, plan, clusters.num_clusters(), 0, {}};

  // Vectorized predicate tier: compile kernels once per query; each
  // cluster's matcher then tests elements against cached block
  // verdicts instead of interpreting per tuple (answer-preserving).
  std::unique_ptr<VectorizedPlanEval> vec;
  if (options.vectorize) {
    vec = VectorizedPlanEval::Create(result.plan, input.schema());
  }
  // The driver runs traced scans in order, so one log is safe.
  SearchTrace* trace = options.collect_trace ? &result.trace : nullptr;

  ScanDriver driver(clusters.num_clusters(), {{&query, &result}}, options);
  SQLTS_RETURN_IF_ERROR(driver.Run(
      [&](int, int c, const std::vector<int64_t>& budgets,
          ClusterOutput* out) {
        const SequenceView& seq = clusters.cluster(c);
        out->tuples = seq.size();
        if (!ClusterAccepted(query, seq)) return Status::OK();
        SearchOptions search_opts;
        search_opts.governance = &options.governance;
        search_opts.max_matches = budgets[0];
        std::unique_ptr<ElementEvaluator> vec_eval;
        if (vec != nullptr) {
          vec_eval = vec->MakeEvaluator();
          search_opts.evaluator = vec_eval.get();
        }
        SearchAndProject(query, result.plan, seq, options.algorithm,
                         search_opts, &out->stats[0], &out->rows[0], trace);
        return Status::OK();
      },
      &result.shard_stats));
  return result;
}

}  // namespace sqlts
