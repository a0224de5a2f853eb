// Vectorized predicate kernels: compile/refuse decisions, 3VL bitmask
// semantics, and — most importantly — bit-identical agreement with the
// interpreter on every lane, including the numeric edge cases the
// interpreter-parity bugfix sweep pinned down (NaN, ±inf, ±DBL_MAX,
// INT64_MIN/MAX, NULL cells, empty inputs, batch-boundary straddles).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "expr/eval.h"
#include "expr/kernel.h"
#include "storage/csv.h"
#include "test_util.h"

namespace sqlts {
namespace {

using testing_util::MustPlan;

/// Pulls the (resolved, tuple-local) predicate of pattern element j out
/// of a compiled query.
ExprPtr ElementPredicate(const std::string& query, int j,
                         const Schema& schema = QuoteSchema()) {
  PatternPlan plan = MustPlan(query, schema);
  SQLTS_CHECK(j >= 1 && j < static_cast<int>(plan.predicates.size()));
  SQLTS_CHECK(plan.predicates[j] != nullptr);
  return plan.predicates[j];
}

/// Asserts kernel verdicts match the interpreter at every position of
/// `view`: TRUE bits equal EvalPredicate, and TRUE/NULL/FALSE
/// trichotomy equals EvalExpr's 3VL (non-bool counts as NULL).
void ExpectParity(const ExprPtr& pred, const SequenceView& view,
                  const Schema& schema) {
  auto kernel = PredicateKernel::Compile(pred, schema);
  ASSERT_NE(kernel, nullptr) << pred->ToString();
  KernelScratch scratch;
  TriMask mask;
  kernel->Eval(view, 0, view.size(), &scratch, &mask);
  ASSERT_EQ(mask.size, view.size());
  for (int64_t p = 0; p < view.size(); ++p) {
    EvalContext ctx;
    ctx.seq = &view;
    ctx.pos = p;
    Value v = EvalExpr(*pred, ctx);
    bool want_true = v.kind() == TypeKind::kBool && v.bool_value();
    bool want_false = v.kind() == TypeKind::kBool && !v.bool_value();
    EXPECT_EQ(mask.True(p), want_true)
        << pred->ToString() << " at pos " << p;
    EXPECT_EQ(mask.Null(p), !want_true && !want_false)
        << pred->ToString() << " at pos " << p;
    EXPECT_FALSE(mask.True(p) && mask.Null(p)) << "non-canonical mask";
  }
}

/// One-cluster table over the quote schema with the given (nullable)
/// prices; date ascends daily.
Table NullablePrices(const std::vector<Value>& prices) {
  Table t(QuoteSchema());
  for (size_t i = 0; i < prices.size(); ++i) {
    SQLTS_CHECK_OK(t.AppendRow({Value::String("A"),
                                Value::FromDate(Date(10000 + (int)i)),
                                prices[i]}));
  }
  return t;
}

SequenceView FullView(const Table& t) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) rows.push_back(r);
  return SequenceView(&t, std::move(rows));
}

TEST(KernelCompile, RefusesAnchoredRefsAndAggregates) {
  // Z references X across a star group: the offset is unknowable at
  // compile time, so the reference is anchored (span-dependent) and
  // not vectorizable.
  PatternPlan plan = MustPlan(
      "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, *Y, Z) WHERE X.price > 10 AND Z.price > X.price");
  ASSERT_TRUE(plan.anchored_refs);
  bool any_refused = false;
  for (const ExprPtr& p : plan.predicates) {
    if (p == nullptr) continue;
    if (PredicateKernel::Compile(p, QuoteSchema()) == nullptr) {
      any_refused = true;
    }
  }
  EXPECT_TRUE(any_refused);
}

TEST(KernelCompile, RefusesStringPredicates) {
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X) "
      "WHERE X.name = 'IBM'",
      1);
  EXPECT_EQ(PredicateKernel::Compile(pred, QuoteSchema()), nullptr);
}

TEST(KernelCompile, FoldsConstantSubtrees) {
  // 2 * 3 folds at compile; 1 = 1 folds to TRUE and is absorbed.
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X) "
      "WHERE X.price > 2 * 3 AND 1 = 1",
      1);
  auto kernel = PredicateKernel::Compile(pred, QuoteSchema());
  ASSERT_NE(kernel, nullptr);
  Table t = NullablePrices({Value::Double(5), Value::Double(7)});
  SequenceView v = FullView(t);
  KernelScratch scratch;
  TriMask mask;
  kernel->Eval(v, 0, v.size(), &scratch, &mask);
  EXPECT_FALSE(mask.True(0));
  EXPECT_TRUE(mask.True(1));
}

TEST(KernelParity, RelativeTrendPredicate) {
  // The paper's trend shape: price above the previous tuple's price.
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price",
      2);
  Table t = NullablePrices({Value::Double(10), Value::Double(12),
                            Value::Null(), Value::Double(11),
                            Value::Double(11), Value::Double(30)});
  ExpectParity(pred, FullView(t), QuoteSchema());
}

TEST(KernelParity, NumericEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMaxD = std::numeric_limits<double>::max();
  Table t = NullablePrices(
      {Value::Double(kNan), Value::Double(kInf), Value::Double(-kInf),
       Value::Double(kMaxD), Value::Double(-kMaxD), Value::Double(0.0),
       Value::Double(-0.0), Value::Null(), Value::Double(1e-300),
       Value::Double(9.2233720368547758e18)});
  for (const char* where :
       {"X.price > 0", "X.price = X.price", "X.price <> X.previous.price",
        "X.price >= 9223372036854775807", "X.price < -9223372036854775807",
        "X.price * 2.0 > X.price + 1", "X.price / 0 = 1",
        "X.price / X.previous.price >= 1"}) {
    ExprPtr pred = ElementPredicate(
        std::string("SELECT X.date FROM quote SEQUENCE BY date AS (X) "
                    "WHERE ") +
            where,
        1);
    ExpectParity(pred, FullView(t), QuoteSchema());
  }
}

TEST(KernelParity, Int64ExtremesCheckedArithmetic) {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kInt64));
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Table t(s);
  int day = 0;
  for (int64_t v : {kMax, kMin, kMax - 1, kMin + 1, int64_t{0}, int64_t{-1},
                    int64_t{1}, kMax / 2, kMin / 2}) {
    SQLTS_CHECK_OK(t.AppendRow({Value::String("A"),
                                Value::FromDate(Date(10000 + day++)),
                                Value::Int64(v)}));
  }
  SQLTS_CHECK_OK(t.AppendRow(
      {Value::String("A"), Value::FromDate(Date(10000 + day)),
       Value::Null()}));
  for (const char* where :
       {"X.price + 1 > 0", "X.price - 1 < 0", "X.price * 2 <> 0",
        "X.price * X.price >= 0", "X.price + X.previous.price = -1",
        "X.price > 9223372036854775806",
        // Exact int64-vs-double boundary: 2^63 as a double literal.
        "X.price < 9223372036854775808.0",
        "X.price = 9223372036854775807.0"}) {
    ExprPtr pred = ElementPredicate(
        std::string("SELECT X.date FROM quote SEQUENCE BY date AS (X) "
                    "WHERE ") +
            where,
        1, s);
    ExpectParity(pred, FullView(t), s);
  }
}

TEST(KernelParity, DateArithmeticGuards) {
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.date - X.date <= 2 AND Y.date > X.date + 1",
      2);
  Table t = NullablePrices({Value::Double(1), Value::Double(2),
                            Value::Double(3), Value::Double(4)});
  ExpectParity(pred, FullView(t), QuoteSchema());
}

TEST(KernelParity, EmptyAndSingleTupleViews) {
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X) WHERE X.price > 0",
      1);
  Table t = NullablePrices({});
  SequenceView empty = FullView(t);
  auto kernel = PredicateKernel::Compile(pred, QuoteSchema());
  ASSERT_NE(kernel, nullptr);
  KernelScratch scratch;
  TriMask mask;
  kernel->Eval(empty, 0, 0, &scratch, &mask);
  EXPECT_EQ(mask.size, 0);
  Table one = NullablePrices({Value::Double(5)});
  ExpectParity(pred, FullView(one), QuoteSchema());
}

TEST(KernelParity, BatchBoundaryStraddles) {
  // A predicate whose references straddle block boundaries: position
  // 256 reads cell 255, etc.  600 tuples => three blocks, two seams.
  std::vector<Value> prices;
  for (int i = 0; i < 600; ++i) {
    if (i % 97 == 0) {
      prices.push_back(Value::Null());
    } else {
      prices.push_back(Value::Double(100 + std::sin(i * 0.7) * 10));
    }
  }
  Table t = NullablePrices(prices);
  for (int j : {1, 2}) {
    ExprPtr pred = ElementPredicate(
        "SELECT X.date FROM quote SEQUENCE BY date AS (X, Y) "
        "WHERE X.price > 95 AND Y.price < X.price",
        j);
    ExpectParity(pred, FullView(t), QuoteSchema());
  }
}

TEST(KernelParity, RatioFastPath) {
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price < 0.98 * X.price",
      2);
  Table t = NullablePrices({Value::Double(100), Value::Double(97),
                            Value::Double(98.5), Value::Null(),
                            Value::Double(96)});
  ExpectParity(pred, FullView(t), QuoteSchema());
}

TEST(KernelParity, BooleanConnectivesKleene) {
  Table t = NullablePrices({Value::Double(1), Value::Null(),
                            Value::Double(3), Value::Double(-4),
                            Value::Null(), Value::Double(6)});
  for (const char* where :
       {"NOT (X.price > 2)", "X.price > 2 OR X.previous.price > 2",
        "X.price > 0 AND NOT (X.price = 3)",
        "(X.price > 0 OR X.price < -1) AND X.previous.price <> 1"}) {
    ExprPtr pred = ElementPredicate(
        std::string("SELECT X.date FROM quote SEQUENCE BY date AS (X) "
                    "WHERE ") +
            where,
        1);
    ExpectParity(pred, FullView(t), QuoteSchema());
  }
}

TEST(KernelBlocks, PartialLaneRangesCompose) {
  // EvalBlock over sub-ranges must agree with one full-block pass —
  // this is the incremental fill the streaming evaluator relies on.
  ExprPtr pred = ElementPredicate(
      "SELECT X.date FROM quote SEQUENCE BY date AS (X) "
      "WHERE X.price > 100",
      1);
  std::vector<Value> prices;
  for (int i = 0; i < 200; ++i) {
    prices.push_back(i % 7 == 0 ? Value::Null()
                                : Value::Double(90 + (i % 21)));
  }
  Table t = NullablePrices(prices);
  SequenceView v = FullView(t);
  auto kernel = PredicateKernel::Compile(pred, QuoteSchema());
  ASSERT_NE(kernel, nullptr);
  KernelScratch scratch;
  BlockVerdict full, merged;
  kernel->EvalBlock(v, 0, 0, 200, &scratch, &full);
  for (int w = 0; w < kKernelWords; ++w) {
    merged.true_bits[w] = 0;
    merged.null_bits[w] = 0;
  }
  int cuts[] = {0, 63, 64, 129, 200};
  for (int k = 0; k + 1 < 5; ++k) {
    BlockVerdict part;
    kernel->EvalBlock(v, 0, cuts[k], cuts[k + 1], &scratch, &part);
    for (int w = 0; w < kKernelWords; ++w) {
      merged.true_bits[w] |= part.true_bits[w];
      merged.null_bits[w] |= part.null_bits[w];
    }
  }
  for (int w = 0; w < kKernelWords; ++w) {
    EXPECT_EQ(merged.true_bits[w], full.true_bits[w]) << "word " << w;
    EXPECT_EQ(merged.null_bits[w], full.null_bits[w]) << "word " << w;
  }
}

}  // namespace
}  // namespace sqlts

namespace sqlts {
namespace {

/// t(k INT64, i INT64, d DOUBLE, day DATE, b BOOL): every payload
/// column nullable and about 40% NULL.
Schema NullHeavySchema() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("k", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("i", TypeKind::kInt64, /*nullable=*/true));
  SQLTS_CHECK_OK(s.AddColumn("d", TypeKind::kDouble, /*nullable=*/true));
  SQLTS_CHECK_OK(s.AddColumn("day", TypeKind::kDate, /*nullable=*/true));
  SQLTS_CHECK_OK(s.AddColumn("b", TypeKind::kBool, /*nullable=*/true));
  return s;
}

Table NullHeavyTable(int rows, uint64_t seed) {
  Table t(NullHeavySchema());
  uint64_t x = seed;
  auto next = [&x](int mod) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((x >> 33) % mod);
  };
  auto maybe = [&](Value v) { return next(5) < 2 ? Value::Null() : v; };
  for (int r = 0; r < rows; ++r) {
    SQLTS_CHECK_OK(t.AppendRow(
        {Value::Int64(r), maybe(Value::Int64(next(7) - 3)),
         maybe(next(9) == 0 ? Value::Double(-0.0)
                            : Value::Double((next(41) - 20) / 4.0)),
         maybe(Value::FromDate(Date(10000 + next(5)))),
         maybe(Value::Bool(next(2) == 1))}));
  }
  return t;
}

// With typed loads every non-NULL cell loads, so there is no lane the
// kernel defers to the interpreter: its verdicts must equal the
// interpreter's on their own, including at the edges of a sequence,
// where navigation steps off the view onto NULL.
TEST(KernelParity, NullHeavyTypedColumnsAtSequenceEdges) {
  const Schema schema = NullHeavySchema();
  const std::vector<std::string> wheres = {
      "X.i > 0",
      "X.i > X.previous.i",
      "X.i + 1 >= X.previous.previous.i",
      "X.d < X.previous.d",
      "X.d <= 2 * X.previous.i",
      "X.i > 0.5 * X.previous.d",
      "X.d = 0",
      "X.day > DATE '1997-05-20'",
      "X.day - X.previous.day > 1",
      "X.day + 1 = X.previous.day",
      "X.b = TRUE",
      "X.b <> X.previous.b",
      "X.b OR X.previous.i < 0",
      "NOT (X.d > 1) AND X.previous.day < X.day OR X.i = -1",
  };
  for (int rows : {1, 2, 63, 64, 65, 300}) {
    const Table t = NullHeavyTable(rows, 7 + rows);
    std::vector<int64_t> identity(rows), reversed(rows);
    for (int r = 0; r < rows; ++r) {
      identity[r] = r;
      reversed[r] = rows - 1 - r;
    }
    // A view starting mid-table (a streaming cursor's floor): cells
    // before its first position exist in the table but must read NULL.
    const int64_t floor = rows / 3;
    const std::vector<SequenceView> views = {
        SequenceView(&t, identity), SequenceView(&t, reversed),
        SequenceView(&t, &identity, floor)};
    for (const std::string& where : wheres) {
      const std::string query =
          "SELECT X.k FROM t SEQUENCE BY k AS (X) WHERE " + where;
      ExprPtr pred = ElementPredicate(query, 1, schema);
      for (const SequenceView& view : views) {
        ExpectParity(pred, view, schema);
      }
    }
  }
}

}  // namespace
}  // namespace sqlts
