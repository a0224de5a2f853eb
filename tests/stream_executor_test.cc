// Streaming query-executor tests: interleaved clusters, SELECT
// projection at match time, cluster filters, order enforcement, and
// agreement with the batch executor.

#include <random>
#include <set>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/stream_executor.h"
#include "test_util.h"

namespace sqlts {
namespace {

Row QuoteRow(const std::string& name, Date d, double price) {
  return {Value::String(name), Value::FromDate(d), Value::Double(price)};
}

TEST(StreamExecutor, ProjectsSelectAtMatchTime) {
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name, Y.date, Y.price FROM quote CLUSTER BY name "
      "SEQUENCE BY date AS (X, Y) WHERE Y.price > 1.1 * X.price",
      QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0, 10)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0.AddDays(1), 12)).ok());
  (*exec)->Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "A");
  EXPECT_EQ(rows[0][1].date_value(), d0.AddDays(1));
  EXPECT_EQ(rows[0][2].double_value(), 12);
}

TEST(StreamExecutor, RoutesInterleavedClusters) {
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price",
      QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok());
  Date d0 = *Date::Parse("1999-01-04");
  // Interleaved: A rises, B falls.
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0, 10)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("B", d0, 20)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0.AddDays(1), 11)).ok());
  ASSERT_TRUE((*exec)->Push(QuoteRow("B", d0.AddDays(1), 19)).ok());
  (*exec)->Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "A");
  EXPECT_EQ((*exec)->num_clusters(), 2);
}

TEST(StreamExecutor, ClusterFilterSkipsWholeCluster) {
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE X.name = 'IBM' AND Y.price > X.price",
      QuoteSchema(), [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d0 = *Date::Parse("1999-01-04");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*exec)->Push(QuoteRow("INTC", d0.AddDays(i), 10 + i)).ok());
    ASSERT_TRUE(
        (*exec)->Push(QuoteRow("IBM", d0.AddDays(i), 10 + i)).ok());
  }
  (*exec)->Finish();
  EXPECT_EQ(rows.size(), 2u);  // IBM only: rises at (0,1), (2,3)
  // Filtered clusters do no matching work.
  SearchStats s = (*exec)->stats();
  EXPECT_LE(s.evaluations, 10);
}

TEST(StreamExecutor, RejectsOutOfOrderTuples) {
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price",
      QuoteSchema(), nullptr);
  ASSERT_TRUE(exec.ok());
  Date d0 = *Date::Parse("1999-01-05");
  ASSERT_TRUE((*exec)->Push(QuoteRow("A", d0, 10)).ok());
  // Earlier date in the same cluster: rejected.
  EXPECT_EQ((*exec)->Push(QuoteRow("A", d0.AddDays(-1), 11)).code(),
            StatusCode::kInvalidArgument);
  // Same date (a tie) is fine, and another cluster is independent.
  EXPECT_TRUE((*exec)->Push(QuoteRow("A", d0, 12)).ok());
  EXPECT_TRUE((*exec)->Push(QuoteRow("B", d0.AddDays(-2), 1)).ok());
}

TEST(StreamExecutor, AdversarialClusterKeysStayDistinct) {
  // Under separator-concatenation key encoding these two key tuples
  // collide: ('a'<US>'b', 'c') and ('a', 'b'<US>'c') both render as
  // 'a'<US>'b'<US>'c' because ToString neither escapes quotes nor
  // guards the separator.  Length-prefixed encoding keeps them apart.
  Schema s;
  ASSERT_TRUE(s.AddColumn("k1", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("k2", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kDouble).ok());
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.k1 FROM t CLUSTER BY k1, k2 SEQUENCE BY seq "
      "AS (X, Y) WHERE Y.v > X.v",
      s, [&](const Row& r) { rows.push_back(r); });
  ASSERT_TRUE(exec.ok()) << exec.status();
  const std::string a1 = "a'\x1f'b", a2 = "c";   // cluster A: rises
  const std::string b1 = "a", b2 = "b'\x1f'c";   // cluster B: falls
  auto push = [&](const std::string& k1, const std::string& k2,
                  int64_t seq, double v) {
    return (*exec)->Push({Value::String(k1), Value::String(k2),
                          Value::Int64(seq), Value::Double(v)});
  };
  ASSERT_TRUE(push(a1, a2, 1, 1).ok());
  ASSERT_TRUE(push(b1, b2, 1, 9).ok());
  ASSERT_TRUE(push(a1, a2, 2, 2).ok());
  ASSERT_TRUE(push(b1, b2, 2, 5).ok());
  (*exec)->Finish();
  // Merged into one cluster the stream 1,9,2,5 yields two rises; kept
  // apart it is one rise (cluster A) and none (cluster B).
  EXPECT_EQ((*exec)->num_clusters(), 2);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), a1);
}

TEST(StreamExecutor, ClusterKeysGroupLikeBatch) {
  // Stream and batch partition by one key encoding.  Three DOUBLE keys
  // that a rendered-text encoding groups differently from
  // Value::Compare: keys equal in six significant digits but not in
  // value, -0.0 against 0.0, and an INT64 pushed into the DOUBLE column
  // against the DOUBLE the table stores for it.
  Schema s;
  ASSERT_TRUE(s.AddColumn("k", TypeKind::kDouble).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kDouble).ok());
  const std::string query =
      "SELECT X.k, X.seq, Y.seq FROM t CLUSTER BY k SEQUENCE BY seq "
      "AS (X, Y) WHERE Y.v > X.v";
  auto row = [](Value k, int64_t seq, double v) -> Row {
    return {std::move(k), Value::Int64(seq), Value::Double(v)};
  };
  const std::vector<Row> rows = {
      // Apart, 1.0000001 rises once and 1.0000002 falls; merged, the
      // run 1, 9, 2, 5 rises twice.
      row(Value::Double(1.0000001), 1, 1),
      row(Value::Double(1.0000002), 2, 9),
      row(Value::Double(1.0000001), 3, 2),
      row(Value::Double(1.0000002), 4, 5),
      // One cluster: it rises once.  Apart: no pair at all.
      row(Value::Double(-0.0), 5, 1),
      row(Value::Double(0.0), 6, 2),
      row(Value::Double(5.0), 7, 1),
      row(Value::Int64(5), 8, 2),
  };
  Table table(s);
  for (const Row& r : rows) ASSERT_TRUE(table.AppendRow(r).ok());
  auto batch = QueryExecutor::Execute(table, query);
  ASSERT_TRUE(batch.ok()) << batch.status();
  auto render = [](const Row& r) {
    std::string key;
    for (const Value& v : r) key += v.ToString() + "|";
    return key;
  };
  std::multiset<std::string> batched;
  for (int64_t r = 0; r < batch->output.num_rows(); ++r) {
    batched.insert(render(batch->output.GetRow(r)));
  }
  for (int threads : {1, 3}) {
    ExecOptions options;
    options.num_threads = threads;
    std::multiset<std::string> streamed;
    auto exec = StreamingQueryExecutor::Create(
        query, s, [&](const Row& r) { streamed.insert(render(r)); }, options);
    ASSERT_TRUE(exec.ok()) << exec.status();
    for (const Row& r : rows) ASSERT_TRUE((*exec)->Push(r).ok());
    ASSERT_TRUE((*exec)->Finish().ok());
    EXPECT_EQ(streamed, batched) << "threads " << threads;
    EXPECT_EQ((*exec)->num_clusters(), batch->num_clusters)
        << "threads " << threads;
  }
  EXPECT_EQ(batch->num_clusters, 4);
  EXPECT_EQ(batched.size(), 3u);
}

TEST(StreamExecutor, RejectsRegressionOnSecondarySequenceColumn) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("name", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("a", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("b", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kDouble).ok());
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.v FROM t CLUSTER BY name SEQUENCE BY a, b "
      "AS (X, Y) WHERE Y.v > X.v",
      s, nullptr);
  ASSERT_TRUE(exec.ok()) << exec.status();
  auto push = [&](int64_t a, int64_t b) {
    return (*exec)->Push({Value::String("G"), Value::Int64(a),
                          Value::Int64(b), Value::Double(1)});
  };
  ASSERT_TRUE(push(1, 5).ok());
  // Primary ties, secondary regresses: out of order.
  EXPECT_EQ(push(1, 3).code(), StatusCode::kInvalidArgument);
  // Full-tuple tie is fine.
  EXPECT_TRUE(push(1, 5).ok());
  // Primary advances; the secondary may restart.
  EXPECT_TRUE(push(2, 0).ok());
  // Primary regression is still caught.
  EXPECT_EQ(push(1, 9).code(), StatusCode::kInvalidArgument);
}

TEST(StreamExecutor, RejectsLookahead) {
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X) "
      "WHERE X.next.price > X.price",
      QuoteSchema(), nullptr);
  EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamExecutor, AgreesWithBatchExecutorOnPortfolio) {
  // Multi-stock random data, pushed interleaved; outputs must match the
  // batch executor row-for-row (same order: batch iterates clusters by
  // first appearance and matches left-to-right; we compare as multisets
  // of printed rows to stay order-agnostic).
  const std::string query =
      "SELECT X.name, FIRST(Y).date, COUNT(Y) FROM quote "
      "CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) "
      "WHERE Y.price < Y.previous.price AND Z.price >= "
      "Z.previous.price AND Z.price < 0.97 * X.price";
  Table table(QuoteSchema());
  std::mt19937_64 rng(7);
  Date d0 = *Date::Parse("1999-01-04");
  std::vector<std::string> names = {"A", "B", "C"};
  std::vector<double> price = {50, 50, 50};
  std::vector<Date> day = {d0, d0, d0};
  for (int i = 0; i < 900; ++i) {
    int s = static_cast<int>(rng() % 3);
    price[s] *= 1.0 + (static_cast<double>(rng() % 9) - 4.0) / 100.0;
    ASSERT_TRUE(
        table.AppendRow(QuoteRow(names[s], day[s], price[s])).ok());
    day[s] = day[s].AddDays(1);
  }

  auto batch = QueryExecutor::Execute(table, query);
  ASSERT_TRUE(batch.ok()) << batch.status();

  std::multiset<std::string> streamed;
  auto exec = StreamingQueryExecutor::Create(
      query, table.schema(), [&](const Row& r) {
        std::string key;
        for (const Value& v : r) key += v.ToString() + "|";
        streamed.insert(key);
      });
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    ASSERT_TRUE((*exec)->Push(table.GetRow(r)).ok());
  }
  (*exec)->Finish();

  std::multiset<std::string> batched;
  for (int64_t r = 0; r < batch->output.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < batch->output.schema().num_columns(); ++c) {
      key += batch->output.at(r, c).ToString() + "|";
    }
    batched.insert(key);
  }
  EXPECT_EQ(streamed, batched);
  EXPECT_EQ((*exec)->stats().matches, batch->stats.matches);
}

TEST(StreamExecutor, CancellationDuringFinishSurfaces) {
  // Four clusters, each ending in an open trailing star, so every match
  // is emitted by Finish.  The first end-of-stream row requests
  // cancellation: Finish must report it, not return OK with a partial
  // answer, and the row already delivered stays delivered.
  ExecOptions options;
  CancelToken token = CancelToken::Cancellable();
  options.governance.cancel = token;
  std::vector<Row> rows;
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, *Y) WHERE Y.price < Y.previous.price",
      QuoteSchema(),
      [&](const Row& r) {
        rows.push_back(r);
        token.RequestCancel();
      },
      options);
  ASSERT_TRUE(exec.ok()) << exec.status();
  Date d0(10000);
  for (const char* name : {"A", "B", "C", "D"}) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*exec)->Push(QuoteRow(name, d0.AddDays(i), 10 - i)).ok());
    }
  }
  ASSERT_TRUE(rows.empty()) << "every star group must still be open";
  EXPECT_EQ((*exec)->Finish().code(), StatusCode::kCancelled);
  EXPECT_EQ(rows.size(), 1u);
}

TEST(StreamExecutor, OutputSchemaExposed) {
  auto exec = StreamingQueryExecutor::Create(
      "SELECT X.name, COUNT(Y) AS n FROM quote CLUSTER BY name "
      "SEQUENCE BY date AS (X, *Y) WHERE Y.price < Y.previous.price",
      QuoteSchema(), nullptr);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ((*exec)->output_schema().num_columns(), 2);
  EXPECT_EQ((*exec)->output_schema().column(1).name, "n");
}

}  // namespace
}  // namespace sqlts
