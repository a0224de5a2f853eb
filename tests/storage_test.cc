// Table / CSV / ClusteredSequence tests.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "colstore/reader.h"
#include "colstore/writer.h"
#include "engine/checkpoint.h"
#include "storage/cluster_key.h"
#include "storage/csv.h"
#include "storage/sequence.h"
#include "storage/table.h"
#include "testing/data_gen.h"

namespace sqlts {
namespace {

Schema QuoteSchemaLocal() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble));
  return s;
}

Row QuoteRow(const char* n, const char* d, double p) {
  return {Value::String(n), Value::FromDate(*Date::Parse(d)),
          Value::Double(p)};
}

TEST(Table, AppendAndRead) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-25", 81)).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.at(0, 0).string_value(), "INTC");
  EXPECT_EQ(t.at(1, 2).double_value(), 81);
}

TEST(Table, ArityMismatch) {
  Table t(QuoteSchemaLocal());
  EXPECT_EQ(t.AppendRow({Value::String("X")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(Table, TypeMismatch) {
  Table t(QuoteSchemaLocal());
  Row r = QuoteRow("INTC", "1999-01-25", 60);
  r[2] = Value::String("sixty");
  EXPECT_EQ(t.AppendRow(r).code(), StatusCode::kTypeError);
}

TEST(Table, IntCoercesToDoubleColumn) {
  Table t(QuoteSchemaLocal());
  Row r = QuoteRow("INTC", "1999-01-25", 0);
  r[2] = Value::Int64(60);
  ASSERT_TRUE(t.AppendRow(r).ok());
  EXPECT_EQ(t.at(0, 2).kind(), TypeKind::kDouble);
  EXPECT_EQ(t.at(0, 2).double_value(), 60.0);
}

TEST(Table, NullsAllowed) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(
      t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST(Csv, RoundTrip) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60.5)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-26", 80)).ok());
  std::string text = WriteCsvString(t);
  auto back = ReadCsvString(text, QuoteSchemaLocal());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 2);
  EXPECT_EQ(back->at(0, 0).string_value(), "INTC");
  EXPECT_EQ(back->at(1, 2).double_value(), 80);
  EXPECT_EQ(back->at(1, 1).date_value(), *Date::Parse("1999-01-26"));
}

TEST(Csv, QuotedFields) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kInt64).ok());
  auto t = ReadCsvString("text,v\n\"a,b\"\"c\",3\n", s);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->at(0, 0).string_value(), "a,b\"c");
  EXPECT_EQ(t->at(0, 1).int64_value(), 3);
}

TEST(Csv, QuotedFieldWithEmbeddedNewline) {
  // Record splitting must be quote-aware: a '\n' inside quotes is field
  // content, not a record separator.
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kInt64).ok());
  auto t = ReadCsvString("text,v\n\"line1\nline2\",7\nplain,8\n", s);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->at(0, 0).string_value(), "line1\nline2");
  EXPECT_EQ(t->at(0, 1).int64_value(), 7);
  EXPECT_EQ(t->at(1, 0).string_value(), "plain");
}

TEST(Csv, CrlfRecordTerminators) {
  auto t = ReadCsvString(
      "name,date,price\r\nINTC,1999-01-25,60\r\nIBM,1999-01-26,81\r\n",
      QuoteSchemaLocal());
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->at(0, 0).string_value(), "INTC");
  EXPECT_EQ(t->at(1, 2).double_value(), 81);
}

TEST(Csv, RoundTripEmbeddedNewlinesQuotesAndCr) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("v", TypeKind::kInt64).ok());
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value::String("line1\nline2"), Value::Int64(1)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("cr\rhere"), Value::Int64(2)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("q\"x,y"), Value::Int64(3)}).ok());
  std::string text = WriteCsvString(t);
  // A field containing a bare CR must be quoted, or a CRLF-aware reader
  // would truncate it.
  EXPECT_NE(text.find("\"cr\rhere\""), std::string::npos);
  auto back = ReadCsvString(text, s);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 3);
  EXPECT_EQ(back->at(0, 0).string_value(), "line1\nline2");
  EXPECT_EQ(back->at(1, 0).string_value(), "cr\rhere");
  EXPECT_EQ(back->at(2, 0).string_value(), "q\"x,y");
}

TEST(Csv, UnterminatedQuoteAcrossRecordsFails) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("text", TypeKind::kString).ok());
  EXPECT_FALSE(ReadCsvString("text\n\"open\nnever closed\n", s).ok());
}

TEST(Csv, EmptyFieldIsNull) {
  auto t = ReadCsvString("name,date,price\nINTC,,60\n", QuoteSchemaLocal());
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_TRUE(t->at(0, 1).is_null());
}

TEST(Csv, HeaderColumnOrderFlexible) {
  auto t = ReadCsvString("price,name,date\n60,INTC,1999-01-25\n",
                         QuoteSchemaLocal());
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->at(0, 0).string_value(), "INTC");
  EXPECT_EQ(t->at(0, 2).double_value(), 60);
}

TEST(Csv, Errors) {
  EXPECT_FALSE(ReadCsvString("", QuoteSchemaLocal()).ok());
  EXPECT_FALSE(
      ReadCsvString("bogus\n1\n", QuoteSchemaLocal()).ok());  // bad header
  EXPECT_FALSE(ReadCsvString("name,date,price\nINTC,1999-01-25\n",
                             QuoteSchemaLocal())
                   .ok());  // missing field
  EXPECT_FALSE(ReadCsvString("name,date,price\nINTC,1999-01-25,abc\n",
                             QuoteSchemaLocal())
                   .ok());  // bad double
}

TEST(ClusteredSequence, PartitionsAndSorts) {
  // Rows arrive interleaved and out of date order (paper Figure 1).
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-27", 84)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-26", 63.5)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-25", 81)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-26", 80.5)).ok());

  auto cs = ClusteredSequence::Build(&t, {"name"}, {"date"});
  ASSERT_TRUE(cs.ok()) << cs.status();
  ASSERT_EQ(cs->num_clusters(), 2);
  // First-appearance order: IBM first.
  EXPECT_EQ(cs->cluster_key(0)[0].string_value(), "IBM");
  EXPECT_EQ(cs->cluster_key(1)[0].string_value(), "INTC");
  const SequenceView& ibm = cs->cluster(0);
  ASSERT_EQ(ibm.size(), 3);
  EXPECT_EQ(ibm.at(0, 2).double_value(), 81);
  EXPECT_EQ(ibm.at(1, 2).double_value(), 80.5);
  EXPECT_EQ(ibm.at(2, 2).double_value(), 84);
}

TEST(ClusteredSequence, NoClusterByGivesSingleCluster) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("A", "1999-01-26", 2)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("B", "1999-01-25", 1)).ok());
  auto cs = ClusteredSequence::Build(&t, {}, {"date"});
  ASSERT_TRUE(cs.ok());
  ASSERT_EQ(cs->num_clusters(), 1);
  EXPECT_EQ(cs->cluster(0).at(0, 2).double_value(), 1);  // sorted by date
}

TEST(ClusteredSequence, StableSortKeepsInsertionOrderOnTies) {
  Table t(QuoteSchemaLocal());
  ASSERT_TRUE(t.AppendRow(QuoteRow("A", "1999-01-25", 1)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("A", "1999-01-25", 2)).ok());
  auto cs = ClusteredSequence::Build(&t, {"name"}, {"date"});
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->cluster(0).at(0, 2).double_value(), 1);
  EXPECT_EQ(cs->cluster(0).at(1, 2).double_value(), 2);
}

TEST(ClusteredSequence, UnknownColumnFails) {
  Table t(QuoteSchemaLocal());
  EXPECT_FALSE(ClusteredSequence::Build(&t, {"ticker"}, {"date"}).ok());
  EXPECT_FALSE(ClusteredSequence::Build(&t, {"name"}, {"when"}).ok());
}

TEST(ClusteredSequence, MultiColumnClusterKey) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("a", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("b", TypeKind::kInt64).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kInt64).ok());
  Table t(s);
  for (int64_t a = 0; a < 2; ++a) {
    for (int64_t b = 0; b < 2; ++b) {
      ASSERT_TRUE(t.AppendRow({Value::Int64(a), Value::Int64(b),
                               Value::Int64(a * 10 + b)})
                      .ok());
    }
  }
  auto cs = ClusteredSequence::Build(&t, {"a", "b"}, {"seq"});
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->num_clusters(), 4);
}

// ---------------------------------------------------------------------------
// The Build contract, against the ordered-map build it replaced.
// ---------------------------------------------------------------------------

/// One cluster as Build reports it: key values and row indices.
struct BuiltCluster {
  Row key;
  std::vector<int64_t> rows;
};

/// Value::Compare with NULLs first, as the reference orders keys.
int ReferenceCompare(const Value& x, const Value& y) {
  if (x.is_null() || y.is_null()) {
    return x.is_null() == y.is_null() ? 0 : (x.is_null() ? -1 : 1);
  }
  return *x.Compare(y);
}

struct ReferenceKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      const int c = ReferenceCompare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

/// The reference: group through a std::map ordered by Value::Compare
/// (NULLs first), number clusters by first appearance, stable_sort each
/// group by the same order.
std::vector<BuiltCluster> ReferenceBuild(const Table& table,
                                         const std::vector<int>& cluster_cols,
                                         const std::vector<int>& seq_cols) {
  std::map<Row, int, ReferenceKeyLess> slots;
  std::vector<BuiltCluster> out;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    Row key;
    for (int c : cluster_cols) key.push_back(table.at(r, c));
    auto it = slots.find(key);
    if (it == slots.end()) {
      it = slots.emplace(key, static_cast<int>(out.size())).first;
      out.push_back({key, {}});
    }
    out[it->second].rows.push_back(r);
  }
  for (BuiltCluster& cl : out) {
    std::stable_sort(cl.rows.begin(), cl.rows.end(),
                     [&](int64_t a, int64_t b) {
                       for (int c : seq_cols) {
                         const int v =
                             ReferenceCompare(table.at(a, c), table.at(b, c));
                         if (v != 0) return v < 0;
                       }
                       return false;
                     });
  }
  return out;
}

/// Same kind and, for doubles, the same bits (-0.0 is not 0.0 here).
bool SameValue(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() == TypeKind::kDouble) {
    double x = a.double_value(), y = b.double_value();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.StructurallyEquals(b);
}

/// Build's clusters in BuiltCluster form.
std::vector<BuiltCluster> Built(const Table& table,
                                const std::vector<std::string>& cluster_by,
                                const std::vector<std::string>& sequence_by) {
  auto cs = ClusteredSequence::Build(&table, cluster_by, sequence_by);
  SQLTS_CHECK(cs.ok()) << cs.status();
  std::vector<BuiltCluster> out;
  for (int i = 0; i < cs->num_clusters(); ++i) {
    BuiltCluster cl{cs->cluster_key(i), {}};
    const SequenceView& v = cs->cluster(i);
    for (int64_t p = 0; p < v.size(); ++p) cl.rows.push_back(v.row_index(p));
    out.push_back(std::move(cl));
  }
  return out;
}

void ExpectSameClusters(const std::vector<BuiltCluster>& got,
                        const std::vector<BuiltCluster>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key.size(), want[i].key.size()) << where;
    for (size_t k = 0; k < got[i].key.size(); ++k) {
      EXPECT_TRUE(SameValue(got[i].key[k], want[i].key[k]))
          << where << " cluster " << i << " key part " << k << ": "
          << got[i].key[k] << " vs " << want[i].key[k];
    }
    EXPECT_EQ(got[i].rows, want[i].rows) << where << " cluster " << i;
  }
}

/// Column pools with the values that separate encodings: signed zeros,
/// NaNs of two payloads, 2^53 and its int64 neighbour, strings with
/// embedded NULs, separators and quotes, and NULL in every column.
Value PoolValue(TypeKind kind, std::mt19937_64* rng) {
  if ((*rng)() % 8 == 0) return Value::Null();
  const uint64_t pick = (*rng)();
  switch (kind) {
    case TypeKind::kString: {
      static const std::string kStrings[] = {
          "", "a", "ab", std::string("a\0b", 3), std::string("a\0", 2),
          "a|b", "a'\x1f'b", "b", "2:ab", "0"};
      return Value::String(kStrings[pick % std::size(kStrings)]);
    }
    case TypeKind::kInt64: {
      static const int64_t kInts[] = {0, -1, 1, (int64_t{1} << 53),
                                      (int64_t{1} << 53) + 1,
                                      std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max()};
      return Value::Int64(kInts[pick % std::size(kInts)]);
    }
    case TypeKind::kDouble: {
      uint64_t other_nan_bits = 0x7ff8000000000123ULL;
      double other_nan;
      std::memcpy(&other_nan, &other_nan_bits, sizeof other_nan);
      const double kDoubles[] = {0.0, -0.0, 1.0000001, 1.0000002,
                                 std::nan(""), -std::nan(""), other_nan,
                                 9007199254740992.0,
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::infinity()};
      return Value::Double(kDoubles[pick % std::size(kDoubles)]);
    }
    case TypeKind::kDate:
      return Value::FromDate(Date(static_cast<int32_t>(pick % 5) - 2));
    case TypeKind::kBool:
      return Value::Bool(pick % 2 == 0);
    default:
      return Value::Null();
  }
}

TEST(ClusteredSequence, MatchesOrderedMapBuildOnRandomTables) {
  const std::vector<std::pair<std::string, TypeKind>> columns = {
      {"s", TypeKind::kString}, {"i", TypeKind::kInt64},
      {"d", TypeKind::kDouble}, {"t", TypeKind::kDate},
      {"b", TypeKind::kBool},   {"seq", TypeKind::kInt64},
      {"x", TypeKind::kDouble}};
  Schema schema;
  for (const auto& [name, kind] : columns) {
    ASSERT_TRUE(schema.AddColumn(name, kind).ok());
  }
  const std::vector<std::vector<int>> cluster_sets = {
      {}, {0}, {1}, {2}, {3}, {4}, {0, 1}, {2, 0, 4}, {0, 1, 2, 3, 4}};
  const std::vector<std::vector<int>> seq_sets = {{}, {5}, {6}, {5, 6},
                                                  {6, 5}, {2, 0}};
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    std::mt19937_64 rng(seed);
    const auto& cc = cluster_sets[rng() % cluster_sets.size()];
    const auto& sc = seq_sets[rng() % seq_sets.size()];
    // A few cluster-key tuples, each a run of rows whose seq rises,
    // falls or ties; runs are then interleaved, shuffled or reversed.
    // Each tuple after the first copies an earlier one and redraws one
    // CLUSTER BY column, so tuples often differ in one part only, and
    // there as often in a signed zero or a NaN payload as in value.
    const int keys = 1 + static_cast<int>(rng() % 10);
    std::vector<Row> protos;
    for (int k = 0; k < keys; ++k) {
      Row proto;
      if (k == 0 || cc.empty()) {
        for (const auto& [name, kind] : columns) {
          proto.push_back(PoolValue(kind, &rng));
        }
      } else {
        proto = protos[rng() % k];
        const int c = cc[rng() % cc.size()];
        proto[c] = PoolValue(columns[c].second, &rng);
      }
      protos.push_back(std::move(proto));
    }
    std::vector<std::vector<Row>> runs(keys);
    for (int k = 0; k < keys; ++k) {
      const int len = static_cast<int>(rng() % 12);
      const int shape = static_cast<int>(rng() % 3);  // rise, fall, ties
      for (int j = 0; j < len; ++j) {
        Row r = protos[k];
        const int64_t seq = shape == 0 ? j : shape == 1 ? len - j : j / 3;
        r[5] = rng() % 10 == 0 ? Value::Null() : Value::Int64(seq);
        r[6] = PoolValue(TypeKind::kDouble, &rng);
        runs[k].push_back(std::move(r));
      }
    }
    std::vector<Row> rows;
    const int order = static_cast<int>(rng() % 4);
    if (order == 0) {  // runs interleaved round-robin, each in its order
      for (size_t j = 0; j < 12; ++j) {
        for (const auto& run : runs) {
          if (j < run.size()) rows.push_back(run[j]);
        }
      }
    } else {  // runs one after another
      for (const auto& run : runs) {
        rows.insert(rows.end(), run.begin(), run.end());
      }
    }
    if (order == 2) std::shuffle(rows.begin(), rows.end(), rng);
    if (order == 3) std::reverse(rows.begin(), rows.end());
    Table table(schema);
    for (Row& r : rows) ASSERT_TRUE(table.AppendRow(std::move(r)).ok());

    std::vector<std::string> cluster_by, sequence_by;
    for (int c : cc) cluster_by.push_back(columns[c].first);
    for (int c : sc) sequence_by.push_back(columns[c].first);
    ExpectSameClusters(Built(table, cluster_by, sequence_by),
                       ReferenceBuild(table, cc, sc),
                       "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(ClusteredSequence, AlreadySortedGroupsKeepInputOrder) {
  // Interleaved clusters, each already in SEQUENCE BY order with ties:
  // the linear check passes and every group keeps its input order.
  Schema s;
  ASSERT_TRUE(s.AddColumn("k", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kDouble).ok());
  Table t(s);
  const std::vector<std::pair<const char*, Value>> rows = {
      {"a", Value::Null()},       {"b", Value::Double(-1)},
      {"a", Value::Double(-0.0)}, {"a", Value::Double(0.0)},
      {"b", Value::Double(-1)},   {"a", Value::Double(2)},
      {"a", Value::Double(std::nan(""))}, {"b", Value::Double(5)}};
  for (const auto& [k, v] : rows) {
    ASSERT_TRUE(t.AppendRow({Value::String(k), v}).ok());
  }
  auto built = Built(t, {"k"}, {"seq"});
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built[0].rows, (std::vector<int64_t>{0, 2, 3, 5, 6}));
  EXPECT_EQ(built[1].rows, (std::vector<int64_t>{1, 4, 7}));
  ExpectSameClusters(built, ReferenceBuild(t, {0}, {1}), "sorted");
}

TEST(ClusteredSequence, UnsortedGroupSortsStablyByValueOrder) {
  // A reversed run with ties: NULLs first, -0.0 and 0.0 tie (input
  // order kept), NaN last; the second column breaks first-column ties.
  Schema s;
  ASSERT_TRUE(s.AddColumn("seq", TypeKind::kDouble).ok());
  ASSERT_TRUE(s.AddColumn("day", TypeKind::kDate).ok());
  Table t(s);
  const double nan = std::nan("");
  const std::vector<std::pair<Value, int>> rows = {
      {Value::Double(3), 1},    {Value::Double(nan), 0},
      {Value::Double(0.0), 4},  {Value::Null(), 2},
      {Value::Double(-0.0), 4}, {Value::Double(3), 0},
      {Value::Null(), 1},       {Value::Double(-0.0), 3}};
  for (const auto& [v, day] : rows) {
    ASSERT_TRUE(t.AppendRow({v, Value::FromDate(Date(day))}).ok());
  }
  auto built = Built(t, {}, {"seq", "day"});
  ASSERT_EQ(built.size(), 1u);
  EXPECT_EQ(built[0].rows, (std::vector<int64_t>{6, 3, 7, 2, 4, 5, 0, 1}));
  ExpectSameClusters(built, ReferenceBuild(t, {}, {0, 1}), "unsorted");
}

TEST(ClusteredSequence, DoubleKeysGroupByValue) {
  // -0.0 and 0.0 are one cluster, NaNs of any payload another; the key
  // reported is the first row's.  Values that agree in six digits stay
  // apart.
  Schema s;
  ASSERT_TRUE(s.AddColumn("k", TypeKind::kDouble).ok());
  Table t(s);
  uint64_t bits = 0x7ff8000000000123ULL;
  double other_nan;
  std::memcpy(&other_nan, &bits, sizeof other_nan);
  for (double k : {-0.0, std::nan(""), 0.0, other_nan, 1.0000001, 1.0000002}) {
    ASSERT_TRUE(t.AppendRow({Value::Double(k)}).ok());
  }
  auto built = Built(t, {"k"}, {});
  ASSERT_EQ(built.size(), 4u);
  EXPECT_TRUE(std::signbit(built[0].key[0].double_value()));
  EXPECT_EQ(built[0].rows, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(built[1].rows, (std::vector<int64_t>{1, 3}));
  ExpectSameClusters(built, ReferenceBuild(t, {0}, {}), "double keys");
}

// SequenceView::contiguous(): one ascending run of table rows, decided
// once at construction, is what lets the kernels read a block's cells
// straight from the column arrays.
TEST(SequenceViewContiguity, InOrderClustersAreContiguous) {
  Table t(QuoteSchemaLocal());
  for (const char* d : {"1999-01-25", "1999-01-26", "1999-01-27"}) {
    ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", d, 80)).ok());
  }
  for (const char* d : {"1999-01-25", "1999-01-26"}) {
    ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", d, 60)).ok());
  }
  auto cs = ClusteredSequence::Build(&t, {"name"}, {"date"});
  ASSERT_TRUE(cs.ok()) << cs.status();
  ASSERT_EQ(cs->num_clusters(), 2);
  EXPECT_TRUE(cs->cluster(0).contiguous());
  EXPECT_TRUE(cs->cluster(1).contiguous());
  EXPECT_EQ(cs->cluster(1).row_index(0), 3);
}

TEST(SequenceViewContiguity, SortedOrInterleavedClustersAreNot) {
  Table t(QuoteSchemaLocal());
  // IBM arrives out of date order (the build sorts it); INTC in order
  // but interleaved with IBM.
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-27", 84)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-25", 60)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("IBM", "1999-01-26", 81)).ok());
  ASSERT_TRUE(t.AppendRow(QuoteRow("INTC", "1999-01-26", 61)).ok());
  auto cs = ClusteredSequence::Build(&t, {"name"}, {"date"});
  ASSERT_TRUE(cs.ok()) << cs.status();
  ASSERT_EQ(cs->num_clusters(), 2);
  EXPECT_EQ(cs->cluster(0).row_index(0), 2);  // sorted: rows {2, 0}
  EXPECT_FALSE(cs->cluster(0).contiguous());
  EXPECT_FALSE(cs->cluster(1).contiguous());  // rows {1, 3}

  // A descending run the build must reverse.
  Table down(QuoteSchemaLocal());
  for (const char* d : {"1999-01-27", "1999-01-26", "1999-01-25"}) {
    ASSERT_TRUE(down.AppendRow(QuoteRow("A", d, 1)).ok());
  }
  auto rev = ClusteredSequence::Build(&down, {"name"}, {"date"});
  ASSERT_TRUE(rev.ok()) << rev.status();
  EXPECT_FALSE(rev->cluster(0).contiguous());
}

TEST(SequenceViewContiguity, BorrowingViewsNeverAre) {
  Table t(QuoteSchemaLocal());
  for (const char* d : {"1999-01-25", "1999-01-26", "1999-01-27"}) {
    ASSERT_TRUE(t.AppendRow(QuoteRow("A", d, 1)).ok());
  }
  const std::vector<int64_t> rows = {0, 1, 2};
  EXPECT_TRUE(SequenceView(&t, rows).contiguous());
  EXPECT_FALSE(SequenceView(&t, &rows).contiguous());
  EXPECT_FALSE(SequenceView(&t, &rows, 1).contiguous());
  EXPECT_TRUE(SequenceView(&t, std::vector<int64_t>{}).contiguous());
  EXPECT_TRUE(SequenceView(&t, std::vector<int64_t>{2}).contiguous());
  EXPECT_FALSE(SequenceView(&t, std::vector<int64_t>{0, 2}).contiguous());
  EXPECT_FALSE(SequenceView(&t, std::vector<int64_t>{1, 0}).contiguous());
}

TEST(SequenceViewContiguity, CopiesAndMovesKeepTheFlag) {
  Table t(QuoteSchemaLocal());
  for (const char* d : {"1999-01-25", "1999-01-26", "1999-01-27"}) {
    ASSERT_TRUE(t.AppendRow(QuoteRow("A", d, 1)).ok());
  }
  const std::vector<int64_t> rows = {0, 1, 2};
  SequenceView owning(&t, std::vector<int64_t>{1, 2});
  SequenceView scattered(&t, std::vector<int64_t>{2, 0});
  SequenceView borrowing(&t, &rows);
  const SequenceView owning_copy(owning);
  const SequenceView scattered_copy(scattered);
  const SequenceView borrowing_copy(borrowing);
  EXPECT_TRUE(owning_copy.contiguous());
  EXPECT_EQ(owning_copy.row_index(0), 1);
  EXPECT_FALSE(scattered_copy.contiguous());
  EXPECT_FALSE(borrowing_copy.contiguous());
  const SequenceView owning_moved(std::move(owning));
  const SequenceView scattered_moved(std::move(scattered));
  const SequenceView borrowing_moved(std::move(borrowing));
  EXPECT_TRUE(owning_moved.contiguous());
  EXPECT_EQ(owning_moved.row_index(1), 2);
  EXPECT_FALSE(scattered_moved.contiguous());
  EXPECT_FALSE(borrowing_moved.contiguous());
}

TEST(ClusterKey, EncodesEqualExactlyWhenValuesCompareEqual) {
  std::mt19937_64 rng(11);
  for (TypeKind kind : {TypeKind::kString, TypeKind::kInt64,
                        TypeKind::kDouble, TypeKind::kDate,
                        TypeKind::kBool}) {
    std::vector<Value> pool;
    for (int i = 0; i < 64; ++i) pool.push_back(PoolValue(kind, &rng));
    for (const Value& a : pool) {
      for (const Value& b : pool) {
        const bool equal = a.is_null() || b.is_null()
                               ? a.is_null() == b.is_null()
                               : *a.Compare(b) == 0;
        EXPECT_EQ(EncodeClusterKey({a}, {0}) == EncodeClusterKey({b}, {0}),
                  equal)
            << a << " vs " << b;
      }
    }
  }
  // Kinds never collide, even where Value::Compare calls them equal.
  EXPECT_NE(EncodeClusterKey({Value::Int64(5)}, {0}),
            EncodeClusterKey({Value::Double(5.0)}, {0}));
}

TEST(ClusterKey, RowAndTableFormsAgree) {
  Schema s;
  ASSERT_TRUE(s.AddColumn("a", TypeKind::kString).ok());
  ASSERT_TRUE(s.AddColumn("b", TypeKind::kDouble).ok());
  Table t(s);
  Row row = {Value::String(std::string("x\0y", 3)), Value::Int64(7)};
  ASSERT_TRUE(t.AppendRow(row).ok());
  ASSERT_TRUE(CoerceToColumn(TypeKind::kDouble, &row[1]));
  EXPECT_EQ(row[1].kind(), TypeKind::kDouble);
  std::string from_table = "stale";
  EncodeClusterKey(t, 0, {1, 0}, &from_table);
  EXPECT_EQ(from_table, EncodeClusterKey(row, {1, 0}));
}

/// The fuzz schema plus a nullable BOOL column.
Schema TypedSchema() {
  Schema s = fuzz::FuzzSchema();
  SQLTS_CHECK_OK(s.AddColumn("flag", TypeKind::kBool, /*nullable=*/true));
  return s;
}

/// Rows of a random fuzz table, salted with the cells typed storage
/// must keep exactly: NULLs, -0.0, NaN, INT64 cells bound for the
/// DOUBLE column, and empty and repeated strings.
std::vector<Row> TypedRows(uint64_t seed) {
  fuzz::DataGenOptions gen;
  gen.max_rows_per_cluster = 400;
  gen.null_prob = 0.2;
  const Table base = fuzz::RandomFuzzTable(seed, gen);
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    Row row = base.GetRow(r);
    switch (rng() % 8) {
      case 0: row[4] = Value::Double(-0.0); break;
      case 1: row[4] = Value::Double(std::nan("")); break;
      case 2: row[4] = Value::Int64(static_cast<int64_t>(rng() % 100)); break;
      case 3: row[0] = Value::String(""); break;
      case 4: row[0] = Value::Null(); break;
      default: break;
    }
    const uint64_t f = rng() % 3;
    row.push_back(f == 2 ? Value::Null() : Value::Bool(f == 1));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Cell equality as typed storage promises it: same kind, and doubles
/// bit for bit (so -0.0 is not 0.0 and NaN is NaN).
bool SameCell(const Value& a, const Value& b) {
  if (a.kind() != b.kind() || !a.StructurallyEquals(b)) return false;
  const double* x = a.double_if();
  return x == nullptr || std::bit_cast<uint64_t>(*x) ==
                             std::bit_cast<uint64_t>(*b.double_if());
}

/// Rows [0, part.num_rows()) of `part` equal rows [row0, ...) of
/// `whole`, by at() and by GetRow().
void ExpectSameCells(const Table& whole, int64_t row0, const Table& part,
                     const std::string& what) {
  ASSERT_LE(row0 + part.num_rows(), whole.num_rows()) << what;
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    const Row a = whole.GetRow(row0 + r);
    const Row b = part.GetRow(r);
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_TRUE(SameCell(a[c], b[c]))
          << what << " row " << r << " col " << c << ": " << a[c] << " vs "
          << b[c];
      ASSERT_TRUE(SameCell(whole.at(row0 + r, static_cast<int>(c)),
                           part.at(r, static_cast<int>(c))))
          << what << " row " << r << " col " << c;
    }
  }
}

// One table built four ways must hold the same cells: row by row
// (AppendRow), column by column (FromColumns), through a .sqlc file
// (ReadTable), and piecewise through every block range of that file.
TEST(TypedTable, FourConstructionsAgreeCellForCell) {
  const Schema schema = TypedSchema();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Row> rows = TypedRows(seed);

    Table appended(schema);
    for (const Row& row : rows) ASSERT_TRUE(appended.AppendRow(row).ok());

    std::vector<Column> columns;
    for (int c = 0; c < schema.num_columns(); ++c) {
      columns.emplace_back(schema.column(c).type);
      for (const Row& row : rows) columns.back().Append(row[c]);
    }
    auto adopted = Table::FromColumns(schema, std::move(columns));
    ASSERT_TRUE(adopted.ok()) << adopted.status();

    auto bytes = ColumnarWriter::WriteBytes(appended, {});
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto reader = ColumnarReader::OpenBytes(std::move(*bytes));
    ASSERT_TRUE(reader.ok()) << reader.status();
    auto decoded = (*reader)->ReadTable();
    ASSERT_TRUE(decoded.ok()) << decoded.status();

    ASSERT_EQ(appended.num_rows(), static_cast<int64_t>(rows.size()));
    ASSERT_EQ(adopted->num_rows(), appended.num_rows());
    ASSERT_EQ(decoded->num_rows(), appended.num_rows());
    ExpectSameCells(appended, 0, *adopted, "AppendRow vs FromColumns");
    ExpectSameCells(appended, 0, *decoded, "AppendRow vs ReadTable");
    ExpectSameCells(*adopted, 0, *decoded, "FromColumns vs ReadTable");

    const std::vector<RowBlockMeta>& blocks = (*reader)->footer().blocks;
    const int num_blocks = static_cast<int>(blocks.size());
    for (int first = 0; first < num_blocks; ++first) {
      for (int count = 1; first + count <= num_blocks; ++count) {
        auto part = (*reader)->ReadBlockRange(first, count);
        ASSERT_TRUE(part.ok()) << part.status();
        const std::string what = "ReadBlockRange(" + std::to_string(first) +
                                 ", " + std::to_string(count) + ")";
        ExpectSameCells(appended, blocks[first].start_row, *part, what);
        ExpectSameCells(*decoded, blocks[first].start_row, *part, what);
      }
    }

    // Equal strings share one code, and distinct codes are distinct
    // strings, in every construction.
    for (const Table* t : {&appended, &*adopted, &*decoded}) {
      const Column& sym = t->column(0);
      std::map<std::string, int64_t> code_of;
      for (int64_t r = 0; r < t->num_rows(); ++r) {
        if (sym.is_null(r)) continue;
        const auto [it, fresh] =
            code_of.emplace(sym.string_at(r), sym.ints()[r]);
        ASSERT_EQ(it->second, sym.ints()[r]) << "'" << it->first << "'";
      }
      EXPECT_EQ(static_cast<int64_t>(code_of.size()), sym.dict().size());
    }
  }
}

TEST(TypedTable, DropPrefixKeepsTheRestAndOnlyItsStrings) {
  const Schema schema = TypedSchema();
  std::vector<Row> rows = TypedRows(3);
  ASSERT_GT(rows.size(), 200u);
  // Strings of the first rows that no later row repeats: a dropped
  // prefix takes them out of use.
  for (int r = 0; r < 130; ++r) {
    rows[r][0] = Value::String("gone" + std::to_string(r));
  }
  Table whole(schema);
  for (const Row& row : rows) ASSERT_TRUE(whole.AppendRow(row).ok());
  for (int64_t drop : {0, 1, 63, 64, 65, 130}) {
    Table t = whole;
    t.DropPrefix(drop);
    ASSERT_EQ(t.num_rows(), whole.num_rows() - drop);
    ExpectSameCells(whole, drop, t, "drop " + std::to_string(drop));
    std::map<std::string, int> live;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (!t.column(0).is_null(r)) ++live[t.column(0).string_at(r)];
    }
    EXPECT_EQ(t.column(0).dict().size(), static_cast<int64_t>(live.size()));
  }
}

TEST(TypedTable, CheckpointRowsFromSlotsMatchBoxedRows) {
  const Schema schema = TypedSchema();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Table t(schema);
    for (const Row& row : TypedRows(seed)) ASSERT_TRUE(t.AppendRow(row).ok());
    CheckpointWriter typed, boxed;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      typed.WriteRow(t, r);
      boxed.WriteRow(t.GetRow(r));
    }
    EXPECT_EQ(typed.payload(), boxed.payload()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sqlts
