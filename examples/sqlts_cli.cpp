// sqlts_cli: run ad-hoc SQL-TS queries against a CSV or columnar file.
//
//   sqlts_cli <data> <schema> <query> [flags]
//   sqlts_cli --convert <in.csv> <out.sqlc> --schema <schema>
//             [--cluster-by a,b] [--sequence-by c] [--no-bloom]
//             [--skip-bad-input]
//
//   <schema> is "col:TYPE,col:TYPE,..." with TYPE in
//   {INT64,DOUBLE,STRING,DATE,BOOL}.  Columnar files embed their
//   schema; pass "-" to use it as-is.
//
// Flags:
//   --format=csv|columnar
//                       input format; default auto-detects by the
//                       columnar magic bytes
//   --no-skip           columnar: disable zone-map block skipping
//   --no-planner        columnar: disable the selectivity probe planner
//                       (conjunct reorder + anchored start prefilter)
//   --queryset FILE     run every query in FILE (';'-separated, or one
//                       per line when the file has no ';') over ONE
//                       shared scan with cross-query predicate
//                       deduplication; prints each query's results and
//                       the MultiQueryStats summary.  Composes with
//                       --stream, --threads, --explain, --check,
//                       --checkpoint/--restore
//   --naive             batch: use the naive backtracking matcher
//   --explain           print the optimizer report before results
//   --check             lint only: run the static analyzer and exit
//                       without touching the CSV; exit 1 when the query
//                       is provably empty (E-level diagnostics).  With
//                       --queryset, also runs the cross-query lint:
//                       W007 (duplicate member) and W008 (member
//                       subsumed by a sibling)
//   --lint=json         like --check, but print machine-readable JSON
//   --Werror            --check/--lint: warnings also fail (exit 1)
//   --threads N         shard execution across N worker threads
//   --stream            push rows through the streaming executor
//                       instead of the batch engine
//   --max-buffered N    streaming: budget of concurrently buffered
//                       tuples (exceeding it fails the query with
//                       RESOURCE_EXHAUSTED instead of growing)
//   --skip-bad-input    drop + count malformed CSV records and stream
//                       rows instead of failing fast
//   --checkpoint FILE   streaming: write a checkpoint to FILE...
//   --checkpoint-at N   ...after consuming N rows, then stop (simulates
//                       a crash mid-stream)
//   --restore FILE      streaming: restore from FILE and continue from
//                       the row it was consumed at
//
// Example (crash/resume):
//   sqlts_cli data.csv "$S" "$Q" --stream --checkpoint ckpt --checkpoint-at 500
//   sqlts_cli data.csv "$S" "$Q" --stream --restore ckpt
//
// Example:
//   ./build/examples/sqlts_cli data/djia.csv
//     "name:STRING,date:DATE,price:DOUBLE"
//     "SELECT X.date, X.price FROM djia SEQUENCE BY date AS (X, Y)
//      WHERE Y.price < 0.95 * X.price"
// (all on one shell line)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <vector>

#include "analysis/linter.h"
#include "colstore/columnar_executor.h"
#include "colstore/reader.h"
#include "colstore/writer.h"
#include "common/string_util.h"
#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/stream_executor.h"
#include "multiquery/multi_executor.h"
#include "multiquery/multi_stream.h"
#include "multiquery/queryset_lint.h"
#include "storage/csv.h"

namespace {

int Fail(const sqlts::Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

/// Splits a queryset file into individual queries: on ';' when present,
/// else one query per (non-empty) line.
std::vector<std::string> SplitQuerySet(const std::string& text) {
  std::vector<std::string> out;
  std::vector<std::string> parts =
      text.find(';') != std::string::npos ? sqlts::SplitString(text, ';')
                                          : sqlts::SplitString(text, '\n');
  for (const std::string& part : parts) {
    std::string q(sqlts::StripWhitespace(part));
    if (!q.empty()) out.push_back(std::move(q));
  }
  return out;
}

/// Parses "col:TYPE,col:TYPE,..." into `schema`; prints the problem and
/// returns false on bad input.  A trailing '?' marks the column
/// nullable ("vol:INT64?"), which makes the optimizer drop θ/φ
/// deductions that are unsound when the column can be NULL.  A trailing
/// '+' declares it strictly positive ("price:DOUBLE+" or
/// "price:DOUBLE+?"), enabling the log-domain ratio reasoning for
/// patterns that only touch such columns.
bool ParseSchemaText(const std::string& schema_text, sqlts::Schema* schema) {
  using namespace sqlts;
  for (const std::string& part : SplitString(schema_text, ',')) {
    auto bits = SplitString(part, ':');
    if (bits.size() != 2) {
      std::fprintf(stderr, "bad schema entry '%s'\n", part.c_str());
      return false;
    }
    std::string type_text(StripWhitespace(bits[1]));
    bool nullable = false, positive = false;
    while (!type_text.empty()) {
      if (type_text.back() == '?') nullable = true;
      else if (type_text.back() == '+') positive = true;
      else break;
      type_text.pop_back();
    }
    auto kind = TypeKindFromString(type_text);
    if (!kind.ok()) {
      std::fprintf(stderr, "error: %s\n", kind.status().ToString().c_str());
      return false;
    }
    Status st = schema->AddColumn(StripWhitespace(bits[0]), *kind, nullable,
                                  positive);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return false;
    }
  }
  return true;
}

/// Comma-separated column list -> trimmed names ("a, b" -> {"a","b"}).
std::vector<std::string> SplitColumnList(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& part : sqlts::SplitString(text, ',')) {
    std::string name(sqlts::StripWhitespace(part));
    if (!name.empty()) out.push_back(std::move(name));
  }
  return out;
}

/// `sqlts_cli --convert in.csv out.sqlc --schema S [...]`: CSV -> the
/// columnar container, optionally clustered for the skipping fast path.
int RunConvert(int argc, char** argv) {
  using namespace sqlts;
  std::string in_path, out_path, schema_text, cluster_by, sequence_by;
  bool bloom = true, skip_bad = false;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--schema") schema_text = next();
    else if (a == "--cluster-by") cluster_by = next();
    else if (a == "--sequence-by") sequence_by = next();
    else if (a == "--no-bloom") bloom = false;
    else if (a == "--skip-bad-input") skip_bad = true;
    else if (a[0] != '-') positional.push_back(a);
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return 2;
    }
  }
  if (positional.size() != 2 || schema_text.empty()) {
    std::fprintf(stderr,
                 "usage: %s --convert <in.csv> <out.sqlc> --schema S "
                 "[--cluster-by a,b] [--sequence-by c] [--no-bloom] "
                 "[--skip-bad-input]\n",
                 argv[0]);
    return 2;
  }
  in_path = positional[0];
  out_path = positional[1];

  Schema schema;
  if (!ParseSchemaText(schema_text, &schema)) return 2;
  CsvReadOptions csv_options;
  if (skip_bad) csv_options.bad_input = BadInputPolicy::kSkipAndCount;
  CsvReadStats csv_stats;
  auto table = ReadCsvFile(in_path, schema, csv_options, &csv_stats);
  if (!table.ok()) return Fail(table.status());

  ColumnarWriterOptions wopt;
  wopt.cluster_by = SplitColumnList(cluster_by);
  wopt.sequence_by = SplitColumnList(sequence_by);
  wopt.bloom = bloom;
  auto bytes = ColumnarWriter::WriteBytes(*table, wopt);
  if (!bytes.ok()) return Fail(bytes.status());
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write failed for '%s'\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "converted %lld row(s) -> '%s' (%zu bytes%s%s)",
               static_cast<long long>(table->num_rows()), out_path.c_str(),
               bytes->size(),
               wopt.cluster_by.empty() ? "" : ", clustered",
               bloom ? ", blooms" : "");
  if (csv_stats.rows_skipped > 0) {
    std::fprintf(stderr, ", skipped %lld malformed record(s)",
                 static_cast<long long>(csv_stats.rows_skipped));
  }
  std::fprintf(stderr, "\n");
  return 0;
}

void PrintRow(const sqlts::Row& row, const char* prefix) {
  std::string line;
  for (const sqlts::Value& v : row) {
    if (!line.empty()) line += " | ";
    line += v.ToString();
  }
  std::printf("%s%s\n", prefix, line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqlts;
  if (argc >= 2 && std::string(argv[1]) == "--convert") {
    return RunConvert(argc, argv);
  }
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <csv> <schema> <query> [--queryset FILE] "
                 "[--naive] [--explain] "
                 "[--check] [--lint=json] [--Werror] "
                 "[--threads N] [--stream] [--max-buffered N] "
                 "[--skip-bad-input] [--checkpoint FILE] "
                 "[--checkpoint-at N] [--restore FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::string csv_path = argv[1];
  const std::string schema_text = argv[2];
  // The query is positional, but optional when --queryset supplies the
  // queries (the third argument is then already a flag).
  std::string query;
  int flag_start = 3;
  if (argv[3][0] != '-') {
    query = argv[3];
    flag_start = 4;
  }
  bool naive = false, explain = false, stream = false, skip_bad = false;
  bool check = false, lint_json = false, werror = false;
  bool no_skip = false, no_planner = false;
  int threads = 1;
  int64_t max_buffered = 0, checkpoint_at = -1;
  std::string checkpoint_path, restore_path, queryset_path;
  std::string format = "auto";
  for (int i = flag_start; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--naive") naive = true;
    else if (a == "--explain") explain = true;
    else if (a == "--check") check = true;
    else if (a == "--lint=json") { check = true; lint_json = true; }
    else if (a == "--Werror") werror = true;
    else if (a == "--stream") stream = true;
    else if (a == "--skip-bad-input") skip_bad = true;
    else if (a == "--no-skip") no_skip = true;
    else if (a == "--no-planner") no_planner = true;
    else if (a == "--threads") threads = std::atoi(next());
    else if (a == "--max-buffered") max_buffered = std::atoll(next());
    else if (a == "--checkpoint") checkpoint_path = next();
    else if (a == "--checkpoint-at") checkpoint_at = std::atoll(next());
    else if (a == "--restore") restore_path = next();
    else if (a == "--queryset") queryset_path = next();
    else if (a == "--format") format = next();
    else if (a.rfind("--format=", 0) == 0) format = a.substr(9);
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return 2;
    }
  }
  if (format != "auto" && format != "csv" && format != "columnar") {
    std::fprintf(stderr, "--format must be csv or columnar\n");
    return 2;
  }
  // Format auto-detection: the columnar container announces itself with
  // magic bytes, so "--format=auto" (the default) just sniffs them.
  const bool columnar =
      format == "columnar" ||
      (format == "auto" && ColumnarReader::SniffFile(csv_path));

  if (query.empty() && queryset_path.empty()) {
    std::fprintf(stderr, "need a query or --queryset FILE\n");
    return 2;
  }

  Schema schema;
  std::unique_ptr<ColumnarReader> reader;
  if (columnar) {
    // Columnar containers embed their schema (including nullable /
    // positive markers); the positional schema argument is "-" or a
    // consistency check.
    auto r = ColumnarReader::Open(csv_path);
    if (!r.ok()) return Fail(r.status());
    reader = std::move(*r);
    schema = reader->schema();
    if (schema_text != "-" && !schema_text.empty()) {
      Schema given;
      if (!ParseSchemaText(schema_text, &given)) return 2;
      if (given.ToString() != schema.ToString()) {
        std::fprintf(stderr,
                     "schema argument disagrees with the schema embedded "
                     "in '%s' (%s); pass '-' to use the embedded one\n",
                     csv_path.c_str(), schema.ToString().c_str());
        return 2;
      }
    }
  } else if (!ParseSchemaText(schema_text, &schema)) {
    return 2;
  }

  // Queryset mode: run every query of the file over one shared scan.
  if (!queryset_path.empty()) {
    if (!query.empty()) {
      std::fprintf(stderr, "--queryset replaces the positional query\n");
      return 2;
    }
    std::ifstream qin(queryset_path);
    if (!qin) {
      std::fprintf(stderr, "cannot read queryset '%s'\n",
                   queryset_path.c_str());
      return 1;
    }
    std::ostringstream qbuf;
    qbuf << qin.rdbuf();
    std::vector<std::string> queries = SplitQuerySet(qbuf.str());
    if (queries.empty()) {
      std::fprintf(stderr, "queryset '%s' contains no queries\n",
                   queryset_path.c_str());
      return 2;
    }

    // Lint-only: per-query diagnostics, one report per member.
    if (check) {
      bool any_err = false, any_warn = false;
      if (lint_json) std::printf("[");
      for (size_t k = 0; k < queries.size(); ++k) {
        auto lint = LintQueryText(queries[k], schema);
        if (!lint.ok()) return Fail(lint.status());
        any_err = any_err || lint->has_errors();
        any_warn = any_warn || lint->has_warnings();
        if (lint_json) {
          std::printf("%s{\"query\": %zu, \"diagnostics\": %s}",
                      k > 0 ? ", " : "", k + 1,
                      DiagnosticsToJson(lint->diagnostics, queries[k]).c_str());
        } else {
          std::fprintf(stderr, "-- query #%zu --\n", k + 1);
          if (lint->diagnostics.empty()) {
            std::fprintf(stderr, "no diagnostics\n");
          } else {
            std::fprintf(stderr, "%s",
                         RenderDiagnostics(lint->diagnostics,
                                           queries[k]).c_str());
          }
        }
      }
      // Cross-query findings (W007/W008), from the same shared
      // predicate catalog verdicts the multi-query executor trusts.
      auto set_lint = LintQuerySet(schema, queries);
      if (!set_lint.ok()) return Fail(set_lint.status());
      any_warn = any_warn || set_lint->has_warnings();
      if (lint_json) {
        std::printf(", {\"set\": %s}]\n",
                    QuerySetLintToJson(*set_lint).c_str());
      } else {
        std::fprintf(stderr, "-- query set --\n%s",
                     RenderQuerySetLint(*set_lint).c_str());
      }
      return any_err || (werror && any_warn) ? 1 : 0;
    }

    ExecOptions opt;
    opt.algorithm = naive ? SearchAlgorithm::kNaive : SearchAlgorithm::kOps;
    opt.num_threads = threads;
    opt.governance.max_buffered_tuples = max_buffered;
    if (skip_bad) opt.governance.bad_input = BadInputPolicy::kSkipAndCount;

    if (explain) {
      auto report = ExplainQuerySet(schema, queries, opt);
      if (!report.ok()) return Fail(report.status());
      std::printf("%s", report->c_str());
    }

    CsvReadOptions csv_options;
    if (skip_bad) csv_options.bad_input = BadInputPolicy::kSkipAndCount;
    CsvReadStats csv_stats;
    // The multi-query executors consume an in-memory table either way;
    // columnar inputs take the full-decode path here.
    auto table = columnar
                     ? reader->ReadTable()
                     : ReadCsvFile(csv_path, schema, csv_options, &csv_stats);
    if (!table.ok()) return Fail(table.status());
    std::fprintf(stderr, "loaded %lld rows; running %zu queries\n",
                 static_cast<long long>(table->num_rows()), queries.size());

    if (stream) {
      auto exec = MultiStreamExecutor::Create(schema, opt);
      if (!exec.ok()) return Fail(exec.status());
      auto callback_for = [&](size_t k) {
        std::string prefix = "[q" + std::to_string(k + 1) + "] ";
        return [prefix](const Row& row) { PrintRow(row, prefix.c_str()); };
      };

      int64_t start_row = 0;
      if (!restore_path.empty()) {
        std::ifstream in(restore_path, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "cannot read checkpoint '%s'\n",
                       restore_path.c_str());
          return 1;
        }
        std::ostringstream bytes;
        bytes << in.rdbuf();
        Status st = (*exec)->Restore(
            bytes.str(), [&](int index, const std::string&) {
              return callback_for(static_cast<size_t>(index));
            });
        if (!st.ok()) return Fail(st);
        start_row = (*exec)->rows_consumed();
        std::fprintf(stderr, "restored %d queries from '%s': resuming at "
                             "row %lld\n",
                     (*exec)->num_queries(), restore_path.c_str(),
                     static_cast<long long>(start_row));
      } else {
        for (size_t k = 0; k < queries.size(); ++k) {
          auto id = (*exec)->AddQuery(queries[k], callback_for(k));
          if (!id.ok()) return Fail(id.status());
        }
      }

      for (int64_t r = start_row; r < table->num_rows(); ++r) {
        if (checkpoint_at >= 0 &&
            (*exec)->rows_consumed() >= checkpoint_at) {
          break;
        }
        Status st = (*exec)->Push(table->GetRow(r));
        if (!st.ok()) return Fail(st);
      }

      if (checkpoint_at >= 0 &&
          (*exec)->rows_consumed() < table->num_rows()) {
        if (checkpoint_path.empty()) {
          std::fprintf(stderr, "--checkpoint-at needs --checkpoint FILE\n");
          return 2;
        }
        std::string bytes;
        Status st = (*exec)->Checkpoint(&bytes);
        if (!st.ok()) return Fail(st);
        std::ofstream out(checkpoint_path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
          std::fprintf(stderr, "cannot write checkpoint '%s'\n",
                       checkpoint_path.c_str());
          return 1;
        }
        std::fprintf(stderr,
                     "checkpointed %zu bytes to '%s' at row %lld; "
                     "resume with --restore\n",
                     bytes.size(), checkpoint_path.c_str(),
                     static_cast<long long>((*exec)->rows_consumed()));
        return 0;
      }

      Status st = (*exec)->Finish();
      if (!st.ok()) return Fail(st);
      for (size_t k = 0; k < queries.size(); ++k) {
        const StreamMember* q =
            (*exec)->query(static_cast<int>(k));
        if (q == nullptr) continue;
        std::fprintf(stderr, "query #%zu: %lld match(es)\n", k + 1,
                     static_cast<long long>(q->stats().matches));
      }
      std::fprintf(stderr, "%s", (*exec)->stats().ToString().c_str());
      return 0;
    }

    auto result = MultiQueryExecutor::Execute(*table, queries, opt);
    if (!result.ok()) return Fail(result.status());
    for (size_t k = 0; k < queries.size(); ++k) {
      const QueryResult& qr = result->per_query[k];
      std::printf("== query #%zu ==\n%s", k + 1,
                  qr.output.ToString(1000).c_str());
      std::fprintf(stderr,
                   "query #%zu: %lld match(es), %lld predicate tests\n",
                   k + 1, static_cast<long long>(qr.stats.matches),
                   static_cast<long long>(qr.stats.evaluations));
    }
    std::fprintf(stderr, "%s", result->stats.ToString().c_str());
    return 0;
  }

  // Lint-only mode: analyze the query and exit without reading the CSV.
  if (check) {
    auto lint = LintQueryText(query, schema);
    if (!lint.ok()) return Fail(lint.status());
    if (lint_json) {
      std::printf("%s\n", DiagnosticsToJson(lint->diagnostics, query).c_str());
    } else if (!lint->diagnostics.empty()) {
      std::fprintf(stderr, "%s",
                   RenderDiagnostics(lint->diagnostics, query).c_str());
    } else {
      std::fprintf(stderr, "no diagnostics\n");
    }
    return lint->has_errors() || (werror && lint->has_warnings()) ? 1 : 0;
  }

  ExecOptions opt;
  opt.algorithm = naive ? SearchAlgorithm::kNaive : SearchAlgorithm::kOps;
  opt.num_threads = threads;
  opt.governance.max_buffered_tuples = max_buffered;
  if (skip_bad) opt.governance.bad_input = BadInputPolicy::kSkipAndCount;
  // Refuse provably-empty queries up front, and surface warnings on
  // stderr before running (the search itself is unaffected by them).
  opt.compile.refuse_provably_empty = true;
  if (auto lint = LintQueryText(query, schema);
      lint.ok() && lint->has_warnings()) {
    std::fprintf(stderr, "%s",
                 RenderDiagnostics(lint->diagnostics, query).c_str());
  }

  // Columnar batch execution runs straight off the container: cluster
  // filters and zone maps skip refuted blocks before any I/O, and the
  // probe planner prefilters attempt starts.  --explain reports the
  // planner's estimates and the skipping configuration.
  if (columnar && !stream) {
    ColumnarExecOptions copt;
    copt.exec = opt;
    copt.skipping = !no_skip;
    copt.planner = !no_planner;
    std::string report;
    auto result = ColumnarExecutor::Execute(*reader, query, copt,
                                            explain ? &report : nullptr);
    if (explain && !report.empty()) std::printf("%s", report.c_str());
    if (!result.ok()) return Fail(result.status());
    std::printf("%s", result->output.ToString(1000).c_str());
    std::fprintf(stderr,
                 "%lld matches over %d cluster(s); %lld predicate tests; "
                 "%lld/%lld blocks skipped; %lld bytes read (%s)\n",
                 static_cast<long long>(result->stats.matches),
                 result->num_clusters,
                 static_cast<long long>(result->stats.evaluations),
                 static_cast<long long>(result->stats.blocks_skipped),
                 static_cast<long long>(result->stats.blocks_total),
                 static_cast<long long>(result->stats.bytes_read),
                 naive ? "naive" : "OPS");
    return 0;
  }

  CsvReadOptions csv_options;
  if (skip_bad) csv_options.bad_input = BadInputPolicy::kSkipAndCount;
  CsvReadStats csv_stats;
  auto table = columnar
                   ? reader->ReadTable()
                   : ReadCsvFile(csv_path, schema, csv_options, &csv_stats);
  if (!table.ok()) return Fail(table.status());
  std::fprintf(stderr, "loaded %lld rows (%s)",
               static_cast<long long>(table->num_rows()),
               schema.ToString().c_str());
  if (csv_stats.rows_skipped > 0) {
    std::fprintf(stderr, ", skipped %lld malformed record(s)",
                 static_cast<long long>(csv_stats.rows_skipped));
  }
  std::fprintf(stderr, "\n");

  if (explain) {
    auto report = ExplainQueryText(query, schema);
    std::printf("%s", report.ok() ? report->c_str()
                                  : report.status().ToString().c_str());
  }

  if (stream) {
    int64_t emitted = 0;
    auto exec = StreamingQueryExecutor::Create(
        query, schema,
        [&](const Row& row) {
          ++emitted;
          std::string line;
          for (const Value& v : row) {
            if (!line.empty()) line += " | ";
            line += v.ToString();
          }
          std::printf("%s\n", line.c_str());
        },
        opt);
    if (!exec.ok()) return Fail(exec.status());

    int64_t start_row = 0;
    if (!restore_path.empty()) {
      std::ifstream in(restore_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read checkpoint '%s'\n",
                     restore_path.c_str());
        return 1;
      }
      std::ostringstream bytes;
      bytes << in.rdbuf();
      Status st = (*exec)->Restore(bytes.str());
      if (!st.ok()) return Fail(st);
      start_row = (*exec)->rows_consumed();
      std::fprintf(stderr, "restored from '%s': resuming at row %lld\n",
                   restore_path.c_str(),
                   static_cast<long long>(start_row));
    }

    for (int64_t r = start_row; r < table->num_rows(); ++r) {
      if (checkpoint_at >= 0 && (*exec)->rows_consumed() >= checkpoint_at) {
        break;
      }
      Status st = (*exec)->Push(table->GetRow(r));
      if (!st.ok()) return Fail(st);
    }

    if (checkpoint_at >= 0 &&
        (*exec)->rows_consumed() < table->num_rows()) {
      // Stopped mid-stream: persist the checkpoint and exit without
      // Finish, as a crashed process would.
      if (checkpoint_path.empty()) {
        std::fprintf(stderr, "--checkpoint-at needs --checkpoint FILE\n");
        return 2;
      }
      std::string bytes;
      Status st = (*exec)->Checkpoint(&bytes);
      if (!st.ok()) return Fail(st);
      std::ofstream out(checkpoint_path,
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
      if (!out) {
        std::fprintf(stderr, "cannot write checkpoint '%s'\n",
                     checkpoint_path.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "checkpointed %zu bytes to '%s' at row %lld; "
                   "resume with --restore\n",
                   bytes.size(), checkpoint_path.c_str(),
                   static_cast<long long>((*exec)->rows_consumed()));
      return 0;
    }

    Status st = (*exec)->Finish();
    if (!st.ok()) return Fail(st);
    if (!checkpoint_path.empty() && checkpoint_at < 0) {
      // Checkpoint after a complete run is legal but pointless; warn.
      std::fprintf(stderr, "--checkpoint without --checkpoint-at ignored "
                           "(stream already finished)\n");
    }
    std::fprintf(stderr,
                 "%lld match(es) over %d cluster(s); %lld predicate tests "
                 "(streaming, %d thread(s))",
                 static_cast<long long>((*exec)->stats().matches),
                 (*exec)->num_clusters(),
                 static_cast<long long>((*exec)->stats().evaluations),
                 threads);
    if ((*exec)->rows_skipped() > 0) {
      std::fprintf(stderr, "; skipped %lld bad row(s)",
                   static_cast<long long>((*exec)->rows_skipped()));
    }
    std::fprintf(stderr, "\n");
    (void)emitted;
    return 0;
  }

  auto result = QueryExecutor::Execute(*table, query, opt);
  if (!result.ok()) return Fail(result.status());

  std::printf("%s", result->output.ToString(1000).c_str());
  std::fprintf(stderr,
               "%lld matches over %d cluster(s); %lld predicate tests "
               "(%s)\n",
               static_cast<long long>(result->stats.matches),
               result->num_clusters,
               static_cast<long long>(result->stats.evaluations),
               naive ? "naive" : "OPS");
  return 0;
}
