#include "multiquery/multi_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/linter.h"
#include "engine/explain.h"
#include "engine/scan_driver.h"
#include "engine/shared_cache.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

/// Batch cache window cap: a cluster at most this long is memoized
/// exactly (every shared predicate evaluated once per tuple); longer
/// clusters wrap the ring, costing re-evaluations but never answers.
constexpr int64_t kMaxBatchWindow = 1 << 16;

/// One query of the set, compiled and mapped into its scan group's
/// shared predicate id space.  `result.plan` is its pattern plan.
struct SetQuery {
  CompiledQuery query;
  QueryConjuncts conjuncts;
  QueryResult result;
};

/// Queries sharing (CLUSTER BY, SEQUENCE BY): one clustering pass, one
/// predicate catalog.
struct ScanGroup {
  std::vector<int> members;  // indexes into the query set
  ClusteredSequence clusters;
  std::unique_ptr<SharedPredicateCatalog> catalog;
};

Status Prefixed(int index, const Status& s) {
  return Status(s.code(),
                "query #" + std::to_string(index + 1) + ": " + s.message());
}

/// Scans one group: each cluster gets one shared cache, and the
/// group's queries run against it in registration order.
Status ExecuteGroup(ScanGroup* group, std::vector<SetQuery>* set,
                    const ExecOptions& options,
                    MultiQueryCounters* counters) {
  std::vector<ScanMember> members;
  for (int qi : group->members) {
    SetQuery& sq = (*set)[qi];
    sq.result.num_clusters = group->clusters.num_clusters();
    members.push_back({&sq.query, &sq.result});
  }
  ScanDriver driver(group->clusters.num_clusters(), std::move(members),
                    options);
  return driver.Run([&](int, int c, const std::vector<int64_t>& budgets,
                        ClusterOutput* out) {
    const SequenceView& seq = group->clusters.cluster(c);
    out->tuples = seq.size();
    SharedClusterCache cache(group->catalog.get(),
                             std::min<int64_t>(seq.size(), kMaxBatchWindow));
    for (size_t k = 0; k < group->members.size(); ++k) {
      if (budgets[k] == ScanDriver::kSkip) continue;
      SetQuery& sq = (*set)[group->members[k]];
      if (!ClusterAccepted(sq.query, seq)) continue;
      MultiQueryEvaluator evaluator(&sq.conjuncts, &cache, counters);
      SearchOptions search_opts;
      search_opts.governance = &options.governance;
      search_opts.evaluator = &evaluator;
      search_opts.max_matches = budgets[k];
      SearchAndProject(sq.query, sq.result.plan, seq, options.algorithm,
                       search_opts, &out->stats[k], &out->rows[k]);
    }
    return Status::OK();
  });
}

/// Compiles the set and assembles its scan groups (shared by Execute
/// and ExplainQuerySet).
Status BuildQuerySet(const Schema& schema,
                     const std::vector<std::string>& queries,
                     const ExecOptions& options, std::vector<SetQuery>* set,
                     std::vector<ScanGroup>* groups,
                     std::vector<std::string>* signatures) {
  for (size_t i = 0; i < queries.size(); ++i) {
    auto compiled = CompileQueryText(queries[i], schema);
    if (!compiled.ok()) return Prefixed(static_cast<int>(i), compiled.status());
    Status lint = RefuseProvablyEmpty(*compiled, options.compile);
    if (!lint.ok()) return Prefixed(static_cast<int>(i), lint);
    auto plan = CompilePattern(*compiled, options.compile);
    if (!plan.ok()) return Prefixed(static_cast<int>(i), plan.status());
    Table output(compiled->output_schema);
    set->push_back({std::move(*compiled), {},
                    QueryResult{std::move(output), SearchStats{},
                                SearchTrace{}, std::move(*plan), 0, 0, {}}});
  }

  for (size_t i = 0; i < set->size(); ++i) {
    SetQuery& sq = (*set)[i];
    auto sig = ScanGroupSignature(schema, sq.query);
    if (!sig.ok()) return Prefixed(static_cast<int>(i), sig.status());
    int g = -1;
    for (size_t k = 0; k < signatures->size(); ++k) {
      if ((*signatures)[k] == *sig) {
        g = static_cast<int>(k);
        break;
      }
    }
    if (g < 0) {
      g = static_cast<int>(groups->size());
      signatures->push_back(std::move(*sig));
      ScanGroup group;
      group.catalog = std::make_unique<SharedPredicateCatalog>(
          schema, options.compile.oracle);
      groups->push_back(std::move(group));
    }
    (*groups)[g].members.push_back(static_cast<int>(i));
    sq.conjuncts = RegisterQueryConjuncts(sq.query, (*groups)[g].catalog.get());
  }
  return Status::OK();
}

}  // namespace

StatusOr<QuerySetResult> MultiQueryExecutor::Execute(
    const Table& input, const std::vector<std::string>& queries,
    const ExecOptions& options) {
  std::vector<SetQuery> set;
  std::vector<ScanGroup> groups;
  std::vector<std::string> signatures;
  SQLTS_RETURN_IF_ERROR(BuildQuerySet(input.schema(), queries, options, &set,
                                      &groups, &signatures));
  SQLTS_RETURN_IF_ERROR(options.governance.Check());

  MultiQueryCounters counters;
  for (ScanGroup& group : groups) {
    // One clustering pass per distinct (CLUSTER BY, SEQUENCE BY); the
    // input table itself is only ever scanned here.
    const SetQuery& first = set[group.members.front()];
    SQLTS_ASSIGN_OR_RETURN(group.clusters,
                           ClusteredSequence::Build(&input,
                                                    first.query.cluster_by,
                                                    first.query.sequence_by));
    SQLTS_RETURN_IF_ERROR(ExecuteGroup(&group, &set, options, &counters));
  }

  QuerySetResult result;
  result.stats.num_queries = static_cast<int>(set.size());
  result.stats.num_scan_groups = static_cast<int>(groups.size());
  result.stats.tuples_scanned = input.num_rows();
  for (const ScanGroup& group : groups) {
    result.stats.AddCatalog(group.catalog->stats());
  }
  result.stats.SnapshotCounters(counters);

  result.per_query.reserve(set.size());
  for (SetQuery& sq : set) result.per_query.push_back(std::move(sq.result));
  return result;
}

StatusOr<std::string> ExplainQuerySet(const Schema& schema,
                                      const std::vector<std::string>& queries,
                                      const ExecOptions& options) {
  std::vector<SetQuery> set;
  std::vector<ScanGroup> groups;
  std::vector<std::string> signatures;
  SQLTS_RETURN_IF_ERROR(
      BuildQuerySet(schema, queries, options, &set, &groups, &signatures));

  std::string out;
  for (size_t i = 0; i < set.size(); ++i) {
    out += "== query #" + std::to_string(i + 1) + " ==\n";
    out += ExplainQuery(set[i].query, set[i].result.plan, queries[i]);
    out += "\n";
  }
  out += "== shared predicate catalog ==\n";
  out += "scan groups: " + std::to_string(groups.size()) + "\n";
  for (size_t g = 0; g < groups.size(); ++g) {
    const SharedPredicateCatalog& catalog = *groups[g].catalog;
    const CatalogStats& cs = catalog.stats();
    out += "group " + std::to_string(g + 1) + " (" +
           std::to_string(groups[g].members.size()) + " queries): " +
           std::to_string(cs.conjuncts_registered) + " conjuncts -> " +
           std::to_string(cs.distinct_predicates) + " distinct, " +
           std::to_string(cs.structural_merges) + " structural + " +
           std::to_string(cs.semantic_merges) + " semantic merges, " +
           std::to_string(cs.unshareable) + " private, " +
           std::to_string(cs.subsumption_edges) + " subsumption edge(s)\n";
    for (int p = 0; p < catalog.size(); ++p) {
      const SharedPredicate& pred = catalog.predicate(p);
      out += "  [" + std::to_string(p) + "] " + pred.expr->ToString() +
             "  (registered " + std::to_string(pred.registrations) + "x";
      if (!pred.implies.empty()) {
        out += "; implies";
        for (int q : pred.implies) out += " [" + std::to_string(q) + "]";
      }
      out += ")\n";
    }
  }
  return out;
}

}  // namespace sqlts
