// End-to-end query execution tests over the paper's example queries.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/executor.h"
#include "storage/csv.h"
#include "test_util.h"

namespace sqlts {
namespace {

/// Runs a query under both algorithms, asserting identical outputs, and
/// returns the OPS result.
QueryResult RunBoth(const Table& t, const std::string& query) {
  auto ops = QueryExecutor::Execute(t, query);
  SQLTS_CHECK(ops.ok()) << ops.status();
  ExecOptions naive_opt;
  naive_opt.algorithm = SearchAlgorithm::kNaive;
  auto naive = QueryExecutor::Execute(t, query, naive_opt);
  SQLTS_CHECK(naive.ok()) << naive.status();
  EXPECT_EQ(ops->output.num_rows(), naive->output.num_rows());
  for (int64_t r = 0; r < ops->output.num_rows(); ++r) {
    for (int c = 0; c < ops->output.schema().num_columns(); ++c) {
      EXPECT_TRUE(
          ops->output.at(r, c).StructurallyEquals(naive->output.at(r, c)))
          << "row " << r << " col " << c;
    }
  }
  return std::move(*ops);
}

TEST(Executor, Example1SpikeAndDrop) {
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE(AppendInstrument(&t, "INTC", d0, {50, 58, 45, 50, 60, 40}).ok());
  ASSERT_TRUE(AppendInstrument(&t, "IBM", d0, {100, 101, 102, 103}).ok());
  QueryResult r = RunBoth(t, PaperExampleQuery(1));
  // INTC: 50→58 (+16%), 58→45 (−22%) at positions 0-2; then 50→60
  // (+20%), 60→40 (−33%) at 3-5.
  ASSERT_EQ(r.output.num_rows(), 2);
  EXPECT_EQ(r.output.at(0, 0).string_value(), "INTC");
  EXPECT_EQ(r.output.at(1, 0).string_value(), "INTC");
}

TEST(Executor, Example2MaximalFallWithAnchor) {
  // Falling run taking the price below half of X's price.
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE(
      AppendInstrument(&t, "ACME", d0, {100, 90, 70, 45, 48, 50}).ok());
  QueryResult r = RunBoth(t, PaperExampleQuery(2));
  ASSERT_EQ(r.output.num_rows(), 1);
  // start_date = X.date (position 0); end_date = Z.previous.date = the
  // last falling tuple (position 3).
  EXPECT_EQ(r.output.at(0, 1).date_value(), d0);
  EXPECT_EQ(r.output.at(0, 2).date_value(), d0.AddDays(3));  // Mon→Thu
}

TEST(Executor, Example3ConstantEqualities) {
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE(AppendInstrument(&t, "A", d0, {10, 11, 15, 10, 11, 14}).ok());
  ASSERT_TRUE(AppendInstrument(&t, "B", d0, {10, 11, 15}).ok());
  QueryResult r = RunBoth(t, PaperExampleQuery(3));
  ASSERT_EQ(r.output.num_rows(), 2);
  EXPECT_EQ(r.output.at(0, 0).string_value(), "A");
  EXPECT_EQ(r.output.at(1, 0).string_value(), "B");
}

TEST(Executor, Example4ClusterFilterRestrictsToIbm) {
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  // Shape satisfying Example 4: drop, drop into (40,50), rise < 52, rise.
  std::vector<double> shape = {55, 49, 45, 51, 54};
  ASSERT_TRUE(AppendInstrument(&t, "IBM", d0, shape).ok());
  ASSERT_TRUE(AppendInstrument(&t, "INTC", d0, shape).ok());
  QueryResult r = RunBoth(t, PaperExampleQuery(4));
  ASSERT_EQ(r.output.num_rows(), 1);  // INTC filtered out by name='IBM'
  EXPECT_EQ(r.output.at(0, 1).double_value(), 55);  // X.price
  EXPECT_EQ(r.output.at(0, 3).double_value(), 54);  // U.price
}

TEST(Executor, Example8FirstLastAccessors) {
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE(
      AppendInstrument(&t, "ACME", d0, {10, 12, 14, 11, 9, 13, 15}).ok());
  QueryResult r = RunBoth(t, PaperExampleQuery(8));
  ASSERT_EQ(r.output.num_rows(), 1);
  // *X = rises at 1-2, *Y = falls at 3-4, *Z = rises at 5-6.
  EXPECT_EQ(r.output.at(0, 1).date_value(), d0.AddDays(1));  // FIRST(X)
  EXPECT_EQ(r.output.at(0, 2).date_value(), d0.AddDays(8));  // LAST(Z): Tue next week
}

TEST(Executor, Example10DoubleBottomOnPlantedSeries) {
  std::vector<double> series = SeriesWithPlantedDoubleBottoms(3);
  Table t =
      PricesToQuoteTable("DJIA", *Date::Parse("1974-01-02"), series);
  QueryResult r = RunBoth(t, PaperExampleQuery(10));
  EXPECT_EQ(r.output.num_rows(), 3);
}

TEST(Executor, OutputColumnsOfExample10) {
  std::vector<double> series = SeriesWithPlantedDoubleBottoms(1);
  Table t = PricesToQuoteTable("DJIA", *Date::Parse("1974-01-02"), series);
  QueryResult r = RunBoth(t, PaperExampleQuery(10));
  ASSERT_EQ(r.output.num_rows(), 1);
  // X.NEXT.price is the first drop tuple's price; S.previous.price the
  // last recovery tuple's.  Both must be genuine doubles.
  EXPECT_EQ(r.output.at(0, 1).kind(), TypeKind::kDouble);
  EXPECT_EQ(r.output.at(0, 3).kind(), TypeKind::kDouble);
  // Sanity: start before end.
  EXPECT_LT(r.output.at(0, 0).date_value().days_since_epoch(),
            r.output.at(0, 2).date_value().days_since_epoch());
}

TEST(Executor, MultiClusterIndependence) {
  // The same pattern must not straddle cluster boundaries.
  Table t(QuoteSchema());
  Date d0 = *Date::Parse("1999-01-04");
  ASSERT_TRUE(AppendInstrument(&t, "A", d0, {10, 11}).ok());
  ASSERT_TRUE(AppendInstrument(&t, "B", d0, {15, 9}).ok());
  QueryResult r = RunBoth(
      t,
      "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  ASSERT_EQ(r.output.num_rows(), 1);
  EXPECT_EQ(r.output.at(0, 0).string_value(), "A");
}

TEST(Executor, UnsortedInputIsSortedBySequenceBy) {
  Table t(QuoteSchema());
  auto add = [&](const char* day, double price) {
    ASSERT_TRUE(t.AppendRow({Value::String("A"),
                             Value::FromDate(*Date::Parse(day)),
                             Value::Double(price)})
                    .ok());
  };
  add("1999-01-06", 12);
  add("1999-01-04", 10);
  add("1999-01-05", 11);
  QueryResult r = RunBoth(
      t,
      "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  ASSERT_EQ(r.output.num_rows(), 1);
  EXPECT_EQ(r.output.at(0, 0).date_value(), *Date::Parse("1999-01-04"));
}

TEST(Executor, CsvRoundTripPipeline) {
  std::vector<double> series = SeriesWithPlantedDoubleBottoms(2);
  Table t = PricesToQuoteTable("DJIA", *Date::Parse("1974-01-02"), series);
  std::string csv = WriteCsvString(t);
  auto back = ReadCsvString(csv, QuoteSchema());
  ASSERT_TRUE(back.ok());
  QueryResult r = RunBoth(*back, PaperExampleQuery(10));
  EXPECT_EQ(r.output.num_rows(), 2);
}

TEST(Executor, StatsArePopulated) {
  Table t = PricesToQuoteTable("DJIA", *Date::Parse("1974-01-02"),
                               SeriesWithPlantedDoubleBottoms(2));
  auto ops = QueryExecutor::Execute(t, PaperExampleQuery(10));
  ASSERT_TRUE(ops.ok());
  EXPECT_GT(ops->stats.evaluations, 0);
  EXPECT_EQ(ops->stats.matches, 2);
  EXPECT_EQ(ops->num_clusters, 1);
  EXPECT_EQ(ops->plan.m, 9);
  EXPECT_TRUE(ops->plan.has_star);
}

TEST(Executor, TraceCollection) {
  Table t = PricesToQuoteTable("A", *Date::Parse("1999-01-04"),
                               {10, 11, 12, 9});
  ExecOptions opt;
  opt.collect_trace = true;
  auto r = QueryExecutor::Execute(
      t,
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) WHERE "
      "Y.price > X.price",
      opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int64_t>(r->trace.size()), r->stats.evaluations);
}

TEST(Executor, ErrorsSurfaceCleanly) {
  Table t(QuoteSchema());
  EXPECT_FALSE(QueryExecutor::Execute(t, "SELEC bogus").ok());
  EXPECT_FALSE(
      QueryExecutor::Execute(
          t, "SELECT X.volume FROM quote SEQUENCE BY date AS (X)")
          .ok());
}

TEST(Executor, EmptyTableYieldsNoRows) {
  Table t(QuoteSchema());
  QueryResult r = RunBoth(t, PaperExampleQuery(1));
  EXPECT_EQ(r.output.num_rows(), 0);
}

// The same rows stored cluster by cluster (every cluster one contiguous
// run of rows, so the kernels read clean blocks straight from the
// columns) and round-robin interleaved (every block gathers through the
// row index) must give the same rows and the same search counters.
TEST(Executor, ContiguousAndInterleavedLayoutsAgree) {
  const Date d0 = *Date::Parse("1990-01-02");
  std::vector<Table> instruments;
  int k = 0;
  for (const char* name : {"AAA", "BBB", "CCC"}) {
    std::vector<double> prices =
        SeriesWithPlantedDoubleBottoms(2 + k, 11 + k);
    prices.resize(prices.size() - 7 * k);  // clusters of unequal length
    instruments.push_back(PricesToQuoteTable(name, d0, prices));
    ++k;
  }
  Table contiguous(QuoteSchema()), interleaved(QuoteSchema());
  int64_t longest = 0;
  for (const Table& t : instruments) {
    longest = std::max(longest, t.num_rows());
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_TRUE(contiguous.AppendRow(t.GetRow(r)).ok());
    }
  }
  for (int64_t r = 0; r < longest; ++r) {
    for (const Table& t : instruments) {
      if (r < t.num_rows()) {
        ASSERT_TRUE(interleaved.AppendRow(t.GetRow(r)).ok());
      }
    }
  }
  for (int example : {1, 10}) {
    auto a = QueryExecutor::Execute(contiguous, PaperExampleQuery(example));
    auto b = QueryExecutor::Execute(interleaved, PaperExampleQuery(example));
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->stats.evaluations, b->stats.evaluations) << example;
    EXPECT_EQ(a->stats.presat_skips, b->stats.presat_skips) << example;
    EXPECT_EQ(a->stats.jumps, b->stats.jumps) << example;
    EXPECT_EQ(a->stats.matches, b->stats.matches) << example;
    ASSERT_EQ(a->output.num_rows(), b->output.num_rows()) << example;
    for (int64_t r = 0; r < a->output.num_rows(); ++r) {
      const Row ra = a->output.GetRow(r), rb = b->output.GetRow(r);
      ASSERT_EQ(ra.size(), rb.size());
      for (size_t c = 0; c < ra.size(); ++c) {
        EXPECT_TRUE(ra[c].StructurallyEquals(rb[c]))
            << "example " << example << " row " << r << " col " << c;
      }
    }
  }
  EXPECT_GT(QueryExecutor::Execute(contiguous, PaperExampleQuery(10))
                ->stats.matches,
            0);
}

}  // namespace
}  // namespace sqlts
