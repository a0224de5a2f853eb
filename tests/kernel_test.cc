// Vectorized predicate kernels: compile/refuse decisions, 3VL bitmask
// semantics, and — most importantly — bit-identical agreement with the
// interpreter on every lane, including the numeric edge cases the
// interpreter-parity bugfix sweep pinned down (NaN, ±inf, ±DBL_MAX,
// INT64_MIN/MAX, NULL cells, empty inputs, batch-boundary straddles),
// on both lane paths: dense blocks read straight off the columns and
// blocks gathered through the row index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include "engine/vectorized_eval.h"
#include "expr/eval.h"
#include "expr/kernel.h"
#include "expr/kernel_lanes.h"
#include "storage/csv.h"
#include "test_util.h"
#include "types/numeric_ops.h"

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

namespace sqlts {
namespace {

// Dense lanes: a block of a contiguous view whose cells are all
// in range and non-NULL is compared straight off the column arrays;
// any other block gathers through the row index.  Both must agree
// with each other bit for bit, and with the interpreter.

/// The kernel's verdicts over every position of `t`, read once through
/// an owning view of the rows in table order (contiguous, so clean
/// blocks take the dense path) and once through a borrowing view of
/// the same rows (never contiguous: every block gathers).  Both must be
/// bit-identical, and equal to the interpreter.
void ExpectDenseParity(const ExprPtr& pred, const Table& t,
                       const Schema& schema) {
  std::vector<int64_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  const SequenceView dense(&t, rows);
  const SequenceView gather(&t, &rows);
  ASSERT_TRUE(dense.contiguous());
  ASSERT_FALSE(gather.contiguous());
  auto kernel = PredicateKernel::Compile(pred, schema);
  ASSERT_NE(kernel, nullptr) << pred->ToString();
  KernelScratch scratch;
  TriMask a, b;
  kernel->Eval(dense, 0, dense.size(), &scratch, &a);
  kernel->Eval(gather, 0, gather.size(), &scratch, &b);
  EXPECT_EQ(a.true_bits, b.true_bits) << pred->ToString();
  EXPECT_EQ(a.null_bits, b.null_bits) << pred->ToString();
  ExpectParity(pred, dense, schema);
}

/// A relative column reference, resolved (column index and offset).
ExprPtr Col(int column_index, int offset = 0) {
  ColumnRef r;
  r.column_index = column_index;
  r.relative = true;
  r.total_offset = offset;
  return MakeColumnRef(r);
}

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

/// Quote-schema rows with the given prices, `copies` times over, so
/// the values fill whole blocks.
Table RepeatedPrices(const std::vector<double>& prices, int copies) {
  std::vector<Value> cells;
  for (int c = 0; c < copies; ++c) {
    for (double p : prices) cells.push_back(Value::Double(p));
  }
  return NullablePrices(cells);
}

TEST(KernelDense, NanSignedZeroAndInfinities) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const Table t = RepeatedPrices(
      {kNan, 0.0, -0.0, kInf, -kInf, 1.5, -1.5, kNan, 0.0, kInf, 2.0}, 70);
  constexpr int kPrice = 2;
  std::vector<ExprPtr> preds;
  for (CmpOp op : kAllOps) {
    for (double lit : {0.0, -0.0, kInf, -kInf, 1.5, kNan}) {
      preds.push_back(MakeCompare(op, Col(kPrice), MakeLiteral(Value::Double(lit))));
    }
    preds.push_back(MakeCompare(op, Col(kPrice), Col(kPrice, -1)));
    preds.push_back(MakeCompare(op, Col(kPrice, 1), Col(kPrice)));
    // Scaled: inf * 0 and NaN products, and -0.0 scales.
    for (double scale : {0.0, -0.0, 2.0, kInf, -1.0}) {
      preds.push_back(MakeCompare(
          op, Col(kPrice),
          MakeArith(ArithOp::kMul, MakeLiteral(Value::Double(scale)),
                    Col(kPrice, -1))));
    }
  }
  for (const ExprPtr& pred : preds) ExpectDenseParity(pred, t, QuoteSchema());
}

TEST(KernelDense, Int64LiteralsAtTheEdgeOfExactDoubles) {
  constexpr int64_t k53 = int64_t{1} << 53;
  const double d53 = static_cast<double>(k53);
  const Table t = RepeatedPrices({d53 - 1, d53, d53 + 2, -(d53 - 1), -d53,
                                  -(d53 + 2), 0.0, 9.5e15, -9.5e15,
                                  std::numeric_limits<double>::quiet_NaN()},
                                 60);
  constexpr int kPrice = 2;
  for (CmpOp op : kAllOps) {
    for (int64_t lit : {k53 - 1, k53, k53 + 1, -(k53 - 1), -k53, -(k53 + 1)}) {
      ExpectDenseParity(
          MakeCompare(op, Col(kPrice), MakeLiteral(Value::Int64(lit))), t,
          QuoteSchema());
      // And with the literal on the left (the builder swaps it over).
      ExpectDenseParity(
          MakeCompare(op, MakeLiteral(Value::Int64(lit)), Col(kPrice)), t,
          QuoteSchema());
    }
  }
}

/// t(k INT64, i INT64, d DOUBLE, day DATE), no NULLs.
Schema IntDoubleSchema() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("k", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("i", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("d", TypeKind::kDouble));
  SQLTS_CHECK_OK(s.AddColumn("day", TypeKind::kDate));
  return s;
}

TEST(KernelDense, Int64MultiplyOverflowIsNull) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<int64_t> vals = {kMax,     kMin,     kMax / 3, kMin / 3,
                                     kMax / 2, kMin / 2, 0,        -1,
                                     1,        3,        kMax / 3 + 1};
  Table t(IntDoubleSchema());
  for (int r = 0; r < 600; ++r) {
    const int64_t v = vals[r % vals.size()];
    SQLTS_CHECK_OK(t.AppendRow({Value::Int64(r), Value::Int64(v),
                                Value::Double(static_cast<double>(v) / 2),
                                Value::FromDate(Date(10000 + r % 9))}));
  }
  constexpr int kI = 1, kD = 2, kDay = 3;
  for (CmpOp op : kAllOps) {
    for (int64_t scale : {int64_t{3}, int64_t{-2}, kMax, kMin}) {
      const ExprPtr lit = MakeLiteral(Value::Int64(scale));
      ExpectDenseParity(
          MakeCompare(op, Col(kI),
                      MakeArith(ArithOp::kMul, lit, Col(kI, -1))),
          t, IntDoubleSchema());
      ExpectDenseParity(
          MakeCompare(op, Col(kD),
                      MakeArith(ArithOp::kMul, Col(kI, 1), lit)),
          t, IntDoubleSchema());
    }
    ExpectDenseParity(
        MakeCompare(op, Col(kI),
                    MakeArith(ArithOp::kMul, MakeLiteral(Value::Double(0.5)),
                              Col(kI, -1))),
        t, IntDoubleSchema());
    ExpectDenseParity(MakeCompare(op, Col(kI), Col(kD, -1)), t,
                      IntDoubleSchema());
    ExpectDenseParity(MakeCompare(op, Col(kD), Col(kI)), t,
                      IntDoubleSchema());
    ExpectDenseParity(MakeCompare(op, Col(kI), Col(kI, 2)), t,
                      IntDoubleSchema());
    ExpectDenseParity(MakeCompare(op, Col(kDay), Col(kDay, -1)), t,
                      IntDoubleSchema());
    ExpectDenseParity(
        MakeCompare(op, Col(kI), MakeLiteral(Value::Double(1e18))), t,
        IntDoubleSchema());
  }
}

TEST(KernelDense, OneNullInAnOtherwiseCleanBlock) {
  std::vector<Value> prices;
  for (int i = 0; i < 700; ++i) {
    prices.push_back(i == 300 ? Value::Null()
                              : Value::Double(100 + std::sin(i * 0.3) * 5));
  }
  const Table t = NullablePrices(prices);
  for (const char* where :
       {"X.price > 100", "X.price < X.previous.price",
        "X.price >= 0.99 * X.previous.price", "X.next.price <> X.price",
        "X.price + 1 > X.previous.price"}) {
    ExpectDenseParity(
        ElementPredicate(
            std::string("SELECT X.date FROM quote SEQUENCE BY date AS (X) "
                        "WHERE ") +
                where,
            1),
        t, QuoteSchema());
  }
}

TEST(KernelDense, OffsetsRunOffEitherEndOfTheView) {
  std::vector<Value> prices;
  for (int i = 0; i < 600; ++i) {
    prices.push_back(Value::Double(50 + (i * 37 % 23)));
  }
  const Table t = NullablePrices(prices);
  constexpr int kPrice = 2;
  // A view over rows [50, 550): its first and last cells have
  // neighbours in the table, but navigation off the view is NULL.
  std::vector<int64_t> middle(500);
  std::iota(middle.begin(), middle.end(), 50);
  const SequenceView inner(&t, middle);
  ASSERT_TRUE(inner.contiguous());
  for (int off : {-3, -1, 1, 2, 255, 256, -256}) {
    for (CmpOp op : {CmpOp::kLt, CmpOp::kGe}) {
      const ExprPtr col_col = MakeCompare(op, Col(kPrice), Col(kPrice, off));
      const ExprPtr scaled = MakeCompare(
          op, Col(kPrice, off),
          MakeArith(ArithOp::kMul, MakeLiteral(Value::Double(1.01)),
                    Col(kPrice)));
      const ExprPtr lit =
          MakeCompare(op, Col(kPrice, off), MakeLiteral(Value::Int64(60)));
      for (const ExprPtr& pred : {col_col, scaled, lit}) {
        ExpectDenseParity(pred, t, QuoteSchema());
        ExpectParity(pred, inner, QuoteSchema());
      }
    }
  }
}

TEST(KernelDense, PartialLaneRangesMatchTheFullBlock) {
  std::vector<Value> prices;
  for (int i = 0; i < 512; ++i) {
    prices.push_back(Value::Double(100 + std::cos(i * 0.9) * 3));
  }
  const Table t = NullablePrices(prices);
  std::vector<int64_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  const SequenceView dense(&t, rows);
  const SequenceView gather(&t, &rows);
  constexpr int kPrice = 2;
  const std::vector<ExprPtr> preds = {
      MakeCompare(CmpOp::kGt, Col(kPrice), Col(kPrice, -1)),
      MakeCompare(CmpOp::kLe, Col(kPrice),
                  MakeArith(ArithOp::kMul, MakeLiteral(Value::Double(0.99)),
                            Col(kPrice, -2))),
      MakeCompare(CmpOp::kNe, Col(kPrice, 1), MakeLiteral(Value::Int64(100)))};
  for (const ExprPtr& pred : preds) {
    auto kernel = PredicateKernel::Compile(pred, QuoteSchema());
    ASSERT_NE(kernel, nullptr);
    KernelScratch scratch;
    for (int64_t pos0 : {int64_t{0}, int64_t{256}}) {
      BlockVerdict full;
      kernel->EvalBlock(dense, pos0, 0, kKernelBlock, &scratch, &full);
      for (auto [lane0, lane1] : {std::pair{1, 2}, {1, 256}, {3, 64},
                                  {63, 65}, {64, 128}, {100, 255},
                                  {255, 256}, {5, 6}}) {
        BlockVerdict part_dense, part_gather;
        kernel->EvalBlock(dense, pos0, lane0, lane1, &scratch, &part_dense);
        kernel->EvalBlock(gather, pos0, lane0, lane1, &scratch,
                          &part_gather);
        for (int w = 0; w < kKernelWords; ++w) {
          const int lo = std::clamp(lane0 - w * 64, 0, 64);
          const int hi = std::clamp(lane1 - w * 64, 0, 64);
          const uint64_t in =
              lo < hi ? kernel_lanes::BitRange(lo, hi) : uint64_t{0};
          EXPECT_EQ(part_dense.true_bits[w], full.true_bits[w] & in)
              << pred->ToString() << " lanes " << lane0 << ".." << lane1;
          EXPECT_EQ(part_dense.null_bits[w], full.null_bits[w] & in);
          EXPECT_EQ(part_gather.true_bits[w], part_dense.true_bits[w]);
          EXPECT_EQ(part_gather.null_bits[w], part_dense.null_bits[w]);
        }
      }
    }
  }
}

#if defined(__SSE2__)
TEST(KernelDense, Sse2MatchesThePortableLoop) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {kNan, 0.0, -0.0, kInf, -kInf, 1.0, -1.0, 1e308};
  std::mt19937_64 rng(20010521);
  std::vector<double> a(kKernelBlock), b(kKernelBlock);
  for (int round = 0; round < 400; ++round) {
    for (int l = 0; l < kKernelBlock; ++l) {
      a[l] = rng() % 4 == 0 ? specials[rng() % 8]
                            : static_cast<double>(rng() % 7) - 3;
      b[l] = rng() % 4 == 0 ? specials[rng() % 8]
                            : static_cast<double>(rng() % 7) - 3;
    }
    const int lane0 = static_cast<int>(rng() % kKernelBlock);
    const int lane1 =
        lane0 + 1 + static_cast<int>(rng() % (kKernelBlock - lane0));
    const double scale = round % 3 == 0 ? specials[rng() % 8]
                                        : static_cast<double>(rng() % 5) - 2;
    for (bool scalar_rhs : {false, true}) {
      const double* rhs = scalar_rhs ? nullptr : b.data() + lane0;
      uint64_t lt_p[kKernelWords] = {}, gt_p[kKernelWords] = {};
      uint64_t lt_s[kKernelWords] = {}, gt_s[kKernelWords] = {};
      kernel_lanes::CmpF64Portable(a.data() + lane0, rhs, scale, lane0,
                                   lane1, lt_p, gt_p);
      kernel_lanes::CmpF64Sse2(a.data() + lane0, rhs, scale, lane0, lane1,
                               lt_s, gt_s);
      for (int w = 0; w < kKernelWords; ++w) {
        EXPECT_EQ(lt_s[w], lt_p[w]) << "round " << round << " word " << w;
        EXPECT_EQ(gt_s[w], gt_p[w]) << "round " << round << " word " << w;
      }
      // Spot-check the portable loop against CompareF64 itself.
      for (int l = lane0; l < lane1; ++l) {
        const double m = scalar_rhs ? scale : scale * b[l];
        const int c = num::CompareF64(a[l], m);
        EXPECT_EQ((lt_p[l >> 6] >> (l & 63)) & 1, uint64_t{c < 0});
        EXPECT_EQ((gt_p[l >> 6] >> (l & 63)) & 1, uint64_t{c > 0});
      }
    }
  }
}
#endif

TEST(KernelDedup, Example10CompilesSixKernels) {
  // Example 10's twelve conjuncts are six shapes: Y/V, Z/U/W (both
  // bounds) and T/R differ only in their variable's name.
  PatternPlan plan = MustPlan(PaperExampleQuery(10));
  auto vec = VectorizedPlanEval::Create(plan, QuoteSchema());
  ASSERT_NE(vec, nullptr);
  EXPECT_EQ(vec->num_kernels(), 6);
}

}  // namespace
}  // namespace sqlts
