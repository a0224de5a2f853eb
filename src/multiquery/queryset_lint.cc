#include "multiquery/queryset_lint.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "engine/predicate_catalog.h"
#include "engine/shared_cache.h"
#include "parser/analyzer.h"

namespace sqlts {
namespace {

/// One compiled set member, mapped into its scan group's predicate id
/// space plus the structural fingerprints the pair checks compare.
struct LintQueryInfo {
  CompiledQuery query;
  QueryConjuncts conjuncts;
  int group = -1;
  /// Per element (1-based like QueryConjuncts::elements): sorted
  /// identity tokens, one per conjunct — "s<id>" for shared entries,
  /// "p<fingerprint>" for private (-1) ones.  Two elements with equal
  /// token lists test the identical predicate.
  std::vector<std::vector<std::string>> element_tokens;
  /// Ordered SELECT-expression fingerprints (output order matters).
  std::vector<std::string> select_fp;
  /// Sorted cluster-filter fingerprints (conjunction order does not).
  std::vector<std::string> filter_fp;
  bool has_star = false;
};

std::string ConjunctToken(const QueryConjuncts::Conjunct& c) {
  if (c.shared_id >= 0) return "s" + std::to_string(c.shared_id);
  return "p" + PredicateFingerprint(c.expr);
}

/// True when the catalog proves element predicate A implies element
/// predicate B: every conjunct of B is either present in A (same shared
/// id / identical private tree) or implied by some shared conjunct of A
/// through a recorded subsumption edge.  A's extra conjuncts only
/// strengthen A, so they never break the implication.
bool ElementImplies(const SharedPredicateCatalog& catalog,
                    const std::vector<QueryConjuncts::Conjunct>& a,
                    const std::vector<QueryConjuncts::Conjunct>& b) {
  for (const QueryConjuncts::Conjunct& cb : b) {
    bool covered = false;
    for (const QueryConjuncts::Conjunct& ca : a) {
      if (cb.shared_id >= 0 && ca.shared_id >= 0) {
        if (ca.shared_id == cb.shared_id) {
          covered = true;
          break;
        }
        const std::vector<int>& implies =
            catalog.predicate(ca.shared_id).implies;
        if (std::find(implies.begin(), implies.end(), cb.shared_id) !=
            implies.end()) {
          covered = true;
          break;
        }
      } else if (cb.shared_id < 0 && ca.shared_id < 0 &&
                 PredicateFingerprint(ca.expr) ==
                     PredicateFingerprint(cb.expr)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

/// Element-for-element identical predicates (the W007 core): same
/// length and, per element, the same sorted conjunct-token multiset.
bool SameElements(const LintQueryInfo& a, const LintQueryInfo& b) {
  return a.element_tokens == b.element_tokens;
}

/// Shared projection + cluster-filter surface: both W007 and W008
/// require the two queries to emit the same columns from the same
/// clusters.
bool SameOutputSurface(const LintQueryInfo& a, const LintQueryInfo& b) {
  return a.select_fp == b.select_fp && a.filter_fp == b.filter_fp;
}

}  // namespace

StatusOr<QuerySetLintResult> LintQuerySet(
    const Schema& schema, const std::vector<std::string>& queries,
    OracleOptions oracle) {
  std::vector<LintQueryInfo> infos;
  std::vector<std::string> signatures;
  std::vector<std::unique_ptr<SharedPredicateCatalog>> catalogs;

  for (size_t i = 0; i < queries.size(); ++i) {
    auto compiled = CompileQueryText(queries[i], schema);
    if (!compiled.ok()) {
      return Status(compiled.status().code(),
                    "query #" + std::to_string(i + 1) + ": " +
                        compiled.status().message());
    }
    LintQueryInfo info;
    info.query = std::move(*compiled);

    auto sig = ScanGroupSignature(schema, info.query);
    if (!sig.ok()) {
      return Status(sig.status().code(), "query #" + std::to_string(i + 1) +
                                             ": " + sig.status().message());
    }
    for (size_t k = 0; k < signatures.size(); ++k) {
      if (signatures[k] == *sig) info.group = static_cast<int>(k);
    }
    if (info.group < 0) {
      info.group = static_cast<int>(signatures.size());
      signatures.push_back(std::move(*sig));
      catalogs.push_back(
          std::make_unique<SharedPredicateCatalog>(schema, oracle));
    }
    info.conjuncts =
        RegisterQueryConjuncts(info.query, catalogs[info.group].get());

    info.element_tokens.resize(info.conjuncts.elements.size());
    for (size_t j = 0; j < info.conjuncts.elements.size(); ++j) {
      for (const QueryConjuncts::Conjunct& c : info.conjuncts.elements[j]) {
        info.element_tokens[j].push_back(ConjunctToken(c));
      }
      std::sort(info.element_tokens[j].begin(), info.element_tokens[j].end());
    }
    for (const SelectItem& item : info.query.select) {
      info.select_fp.push_back(PredicateFingerprint(item.expr));
    }
    for (const ExprPtr& f : info.query.cluster_filters) {
      info.filter_fp.push_back(PredicateFingerprint(f));
    }
    std::sort(info.filter_fp.begin(), info.filter_fp.end());
    for (const PatternElement& e : info.query.elements) {
      info.has_star = info.has_star || e.star;
    }
    infos.push_back(std::move(info));
  }

  QuerySetLintResult result;
  // W007: the later member of each identical pair is flagged once,
  // against its earliest duplicate.
  std::vector<int> duplicate_of(infos.size(), -1);
  for (size_t j = 1; j < infos.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      const LintQueryInfo& a = infos[i];
      const LintQueryInfo& b = infos[j];
      if (a.group != b.group) continue;
      if (!SameElements(a, b) || !SameOutputSurface(a, b)) continue;
      if (a.query.limit != b.query.limit ||
          a.query.limit_zero != b.query.limit_zero) {
        continue;
      }
      duplicate_of[j] = static_cast<int>(i);
      QuerySetDiagnostic d;
      d.code = "W007";
      d.query = static_cast<int>(j) + 1;
      d.other = static_cast<int>(i) + 1;
      d.message = "duplicate of query #" + std::to_string(i + 1) +
                  ": identical pattern predicates, cluster filters, "
                  "SELECT list and LIMIT — outputs are bit-identical";
      result.diagnostics.push_back(std::move(d));
      break;
    }
  }

  // W008: ordered pairs (a subsumed by b).  Star-free patterns only —
  // weakening a star element's predicate can move greedy match
  // boundaries, not just admit a superset of matches — and LIMIT-free,
  // since a row cap truncates the nominally larger result.  Duplicate
  // pairs are already W007 (mutual subsumption adds nothing).
  for (size_t a = 0; a < infos.size(); ++a) {
    if (duplicate_of[a] >= 0) continue;
    for (size_t b = 0; b < infos.size(); ++b) {
      if (a == b || duplicate_of[b] >= 0) continue;
      const LintQueryInfo& qa = infos[a];
      const LintQueryInfo& qb = infos[b];
      if (qa.group != qb.group) continue;
      if (qa.has_star || qb.has_star) continue;
      if (qa.query.limit != 0 || qb.query.limit != 0 || qa.query.limit_zero ||
          qb.query.limit_zero) {
        continue;
      }
      if (qa.conjuncts.elements.size() != qb.conjuncts.elements.size()) {
        continue;
      }
      if (!SameOutputSurface(qa, qb)) continue;
      if (SameElements(qa, qb)) continue;  // that pair is W007 territory
      const SharedPredicateCatalog& catalog = *catalogs[qa.group];
      bool implies = true;
      for (size_t j = 1; j < qa.conjuncts.elements.size() && implies; ++j) {
        implies = ElementImplies(catalog, qa.conjuncts.elements[j],
                                 qb.conjuncts.elements[j]);
      }
      if (!implies) continue;
      QuerySetDiagnostic d;
      d.code = "W008";
      d.query = static_cast<int>(a) + 1;
      d.other = static_cast<int>(b) + 1;
      d.message = "subsumed by query #" + std::to_string(b + 1) +
                  ": every match of this query is a match of query #" +
                  std::to_string(b + 1) +
                  " (element-wise predicate implication), so its rows "
                  "are a subset of that query's rows";
      result.diagnostics.push_back(std::move(d));
    }
  }
  return result;
}

std::string RenderQuerySetLint(const QuerySetLintResult& result) {
  if (result.diagnostics.empty()) return "no cross-query findings\n";
  std::string out;
  for (const QuerySetDiagnostic& d : result.diagnostics) {
    out += "warning[" + d.code + "]: query #" + std::to_string(d.query) +
           ": " + d.message + "\n";
  }
  return out;
}

std::string QuerySetLintToJson(const QuerySetLintResult& result) {
  std::string out = "[";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const QuerySetDiagnostic& d = result.diagnostics[i];
    if (i > 0) out += ", ";
    std::string escaped;
    for (char c : d.message) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out += "{\"code\": \"" + d.code +
           "\", \"query\": " + std::to_string(d.query) +
           ", \"other\": " + std::to_string(d.other) + ", \"message\": \"" +
           escaped + "\"}";
  }
  out += "]";
  return out;
}

}  // namespace sqlts
