#include "colstore/columnar_executor.h"

#include <cctype>
#include <memory>
#include <numeric>

#include "analysis/linter.h"
#include "colstore/probe_planner.h"
#include "colstore/zone_skip.h"
#include "engine/explain.h"
#include "engine/scan_driver.h"
#include "engine/vectorized_eval.h"

namespace sqlts {
namespace {

bool SameName(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool NamesMatch(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameName(a[i], b[i])) return false;
  }
  return true;
}

/// Candidate-start bitmap from the anchor element's kernel verdicts:
/// bit s set iff the anchor predicate is TRUE at s + anchor_element.
std::vector<uint64_t> BuildCandidates(const ProbePlan& pplan,
                                      const SequenceView& seq,
                                      KernelScratch* scratch) {
  const int64_t n = seq.size();
  TriMask mask;
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

/// Hoisted cluster filters, decided from the stored cluster key alone:
/// the filters reference only CLUSTER BY columns (constant over the
/// cluster), so evaluating them on a synthetic one-row table — key
/// values in the cluster columns, NULL elsewhere — yields exactly the
/// verdict ClusterAccepted computes on the cluster's first tuple
/// (out-of-range navigation reads NULL in both).
StatusOr<bool> ClusterKeyAccepted(const CompiledQuery& query,
                                  const Schema& schema,
                                  const std::vector<int>& cluster_cols,
                                  const Row& key) {
  if (query.cluster_filters.empty()) return true;
  Table key_table(schema);
  Row row(schema.num_columns());
  for (size_t k = 0; k < cluster_cols.size() && k < key.size(); ++k) {
    row[cluster_cols[k]] = key[k];
  }
  SQLTS_RETURN_IF_ERROR(key_table.AppendRow(std::move(row)));
  SequenceView view(&key_table, std::vector<int64_t>{0});
  return ClusterAccepted(query, view);
}

struct FastPathState {
  ColumnarReader* reader;
  const ColumnarFooter* footer;
  const ExecOptions* options;
  const ProbePlan* pplan;
  const PatternPlan* plan;
  const ZoneSkipper* skipper;        // null when skipping disabled
  const VectorizedPlanEval* vec;     // null when vectorization is off
  std::vector<int> cluster_cols;
};

/// The columnar definition of a scan cluster: filter by key, skip
/// refuted clusters/blocks, decode kept segments, search each
/// independently.  `budget` is the scan driver's match budget (0 =
/// unlimited).
Status RunCluster(const FastPathState& st, int ci, int64_t budget,
                  KernelScratch* scratch, ClusterOutput* out) {
  const ClusterMeta& cm = st.footer->clusters[ci];
  const CompiledQuery& query = st.pplan->query;
  SearchStats* stats = &out->stats[0];
  out->tuples = cm.row_count;
  SQLTS_ASSIGN_OR_RETURN(
      bool accepted,
      ClusterKeyAccepted(query, st.footer->schema, st.cluster_cols, cm.key));
  if (!accepted) {
    stats->blocks_skipped += cm.num_blocks;
    return Status::OK();
  }
  ZoneDecision dec;
  if (st.skipper != nullptr && st.skipper->enabled()) {
    dec = st.skipper->DecideCluster(ci);
  } else {
    dec.skip_block.assign(cm.num_blocks, false);
  }
  if (dec.skip_cluster) {
    stats->blocks_skipped += cm.num_blocks;
    return Status::OK();
  }

  const bool limited = budget > 0;
  for (int b = 0; b < cm.num_blocks;) {
    if (dec.skip_block[b]) {
      ++stats->blocks_skipped;
      ++b;
      continue;
    }
    if (limited && budget <= 0) return Status::OK();
    int eb = b;
    while (eb + 1 < cm.num_blocks && !dec.skip_block[eb + 1]) ++eb;
    SQLTS_ASSIGN_OR_RETURN(
        Table segment,
        st.reader->ReadBlockRange(cm.first_block + b, eb - b + 1));
    std::vector<int64_t> idx(segment.num_rows());
    std::iota(idx.begin(), idx.end(), 0);
    SequenceView seq(&segment, std::move(idx));

    SearchOptions sopts;
    sopts.governance = &st.options->governance;
    sopts.max_matches = budget;
    // Verdict caches are per absolute position, so each decoded
    // segment (its own SequenceView) gets a fresh evaluator.
    std::unique_ptr<ElementEvaluator> vec_eval;
    if (st.vec != nullptr) {
      vec_eval = st.vec->MakeEvaluator();
      sopts.evaluator = vec_eval.get();
    }
    std::vector<uint64_t> candidates;
    if (st.pplan->anchor_kernel != nullptr) {
      candidates = BuildCandidates(*st.pplan, seq, scratch);
      sopts.candidate_starts = &candidates;
    }

    const size_t before = out->rows[0].size();
    SearchAndProject(query, *st.plan, seq, st.options->algorithm, sopts,
                     stats, &out->rows[0]);
    if (limited) budget -= static_cast<int64_t>(out->rows[0].size() - before);
    b = eb + 1;
  }
  return Status::OK();
}

}  // namespace

StatusOr<QueryResult> ColumnarExecutor::ExecuteFile(
    const std::string& path, std::string_view query_text,
    const ColumnarExecOptions& options, std::string* explain_out) {
  SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarReader> reader,
                         ColumnarReader::Open(path));
  return Execute(*reader, query_text, options, explain_out);
}

StatusOr<QueryResult> ColumnarExecutor::Execute(
    ColumnarReader& reader, std::string_view query_text,
    const ColumnarExecOptions& options, std::string* explain_out) {
  const ColumnarFooter& footer = reader.footer();
  SQLTS_ASSIGN_OR_RETURN(CompiledQuery query,
                         CompileQueryText(query_text, footer.schema));
  SQLTS_RETURN_IF_ERROR(RefuseProvablyEmpty(query, options.exec.compile));

  const int64_t bytes_before = reader.bytes_read();
  const bool fast = footer.clustered &&
                    NamesMatch(query.cluster_by, footer.cluster_by) &&
                    NamesMatch(query.sequence_by, footer.sequence_by) &&
                    !options.exec.collect_trace;
  if (!fast) {
    SQLTS_ASSIGN_OR_RETURN(Table table, reader.ReadTable());
    SQLTS_ASSIGN_OR_RETURN(
        QueryResult result,
        QueryExecutor::ExecuteCompiled(table, query, options.exec));
    result.stats.blocks_total += static_cast<int64_t>(footer.blocks.size());
    result.stats.bytes_read += reader.bytes_read() - bytes_before;
    if (explain_out != nullptr) {
      *explain_out =
          ExplainQuery(query, result.plan, query_text) +
          "columnar storage: full-decode path (layout mismatch or trace "
          "requested); no block skipping\n";
    }
    return result;
  }

  ProbePlan pplan;
  if (options.planner) {
    pplan = ProbePlanner::Plan(query, footer);
  } else {
    pplan.query = std::move(query);
    pplan.element_selectivity.assign(pplan.query.pattern_length(), 1.0);
  }
  SQLTS_ASSIGN_OR_RETURN(PatternPlan plan,
                         CompilePattern(pplan.query, options.exec.compile));
  std::unique_ptr<ZoneSkipper> skipper;
  if (options.skipping) {
    skipper = std::make_unique<ZoneSkipper>(pplan.query, footer,
                                            options.exec.compile.oracle);
  }
  // Vectorized predicate tier, mirroring the batch executor: kernels
  // compile once per query; each segment's matcher then answers
  // element tests from block verdicts.
  std::unique_ptr<VectorizedPlanEval> vec;
  if (options.exec.vectorize) {
    vec = VectorizedPlanEval::Create(plan, footer.schema);
  }
  SQLTS_RETURN_IF_ERROR(options.exec.governance.Check());

  const int num_clusters = static_cast<int>(footer.clusters.size());
  QueryResult result{Table(pplan.query.output_schema), SearchStats{},
                     SearchTrace{},  plan,  num_clusters, 0, {}};
  result.stats.blocks_total = static_cast<int64_t>(footer.blocks.size());
  if (explain_out != nullptr) {
    *explain_out = ExplainQuery(pplan.query, plan, query_text) +
                   pplan.ToString() +
                   (skipper != nullptr ? skipper->ToString()
                                       : "zone skipping: off") +
                   "\n";
  }
  FastPathState st{&reader, &footer,      &options.exec, &pplan,
                   &plan,   skipper.get(), vec.get(),     {}};
  for (const std::string& name : footer.cluster_by) {
    SQLTS_ASSIGN_OR_RETURN(int col, footer.schema.FindColumn(name));
    st.cluster_cols.push_back(col);
  }

  ScanDriver driver(num_clusters, {{&pplan.query, &result}}, options.exec);
  std::vector<KernelScratch> scratch(driver.num_workers());
  SQLTS_RETURN_IF_ERROR(driver.Run(
      [&](int worker, int ci, const std::vector<int64_t>& budgets,
          ClusterOutput* out) {
        return RunCluster(st, ci, budgets[0], &scratch[worker], out);
      },
      &result.shard_stats));
  result.stats.bytes_read += reader.bytes_read() - bytes_before;
  return result;
}

}  // namespace sqlts
