#include "expr/kernel.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "common/logging.h"
#include "expr/eval.h"
#include "expr/kernel_lanes.h"
#include "types/numeric_ops.h"

namespace sqlts {

void TriMask::Resize(int64_t n) {
  size = n;
  int64_t words = (n + 63) / 64;
  true_bits.assign(words, 0);
  null_bits.assign(words, 0);
}

kernel_internal::LaneBuf* KernelScratch::Prepare(int num_bufs) {
  if (static_cast<int>(bufs_.size()) < num_bufs) bufs_.resize(num_bufs);
  return bufs_.data();
}

namespace kernel_internal {
namespace {

/// Static lane type of a node's output.  kNull marks a statically-NULL
/// subtree (type mismatches the interpreter resolves to NULL at every
/// tuple resolve to NULL at compile time here).
enum class VType : uint8_t { kNull, kI64, kF64, kDate, kBool };

bool IsNumeric(VType t) { return t == VType::kI64 || t == VType::kF64; }

struct RunCtx {
  const SequenceView* seq;
  int64_t pos0;
  int lane0, lane1;  // active lanes [lane0, lane1)
  int w0, w1;        // words overlapping the active lanes
  uint64_t range[kKernelWords];  // the active lanes' bits
  LaneBuf* bufs;
  LaneBuf* tmp;  // a fused compare's gathered left operand
};

inline void SetBit(uint64_t* words, int l) {
  words[l >> 6] |= uint64_t{1} << (l & 63);
}

inline void ZeroRange(uint64_t* words, const RunCtx& ctx) {
  for (int w = ctx.w0; w < ctx.w1; ++w) words[w] = 0;
}

inline void FillRange(uint64_t* words, const RunCtx& ctx) {
  for (int w = ctx.w0; w < ctx.w1; ++w) words[w] = ~uint64_t{0};
}

/// Numeric lane read mirroring Value::AsDouble's int64 widening.
inline double LaneF64(const LaneBuf& b, VType t, int l) {
  return t == VType::kF64 ? b.f64[l] : static_cast<double>(b.i64[l]);
}

/// The active lanes of one operand: lane l's value is at [l - lane0]
/// of the one pointer its type uses.
struct Lanes {
  const int64_t* i = nullptr;  // every lane type but kF64
  const double* f = nullptr;   // kF64
};

Lanes LanesOf(const LaneBuf& b, VType t, int lane0) {
  Lanes out;
  if (t == VType::kF64) {
    out.f = b.f64 + lane0;
  } else {
    out.i = b.i64 + lane0;
  }
  return out;
}

/// True when no bit in [r0, r1) of a null bitmap is set (r0 < r1).
bool NullFree(const uint64_t* words, int64_t r0, int64_t r1) {
  const int64_t first = r0 >> 6, last = (r1 - 1) >> 6;
  const uint64_t head = ~uint64_t{0} << (r0 & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - ((r1 - 1) & 63));
  if (first == last) return (words[first] & head & tail) == 0;
  if ((words[first] & head) != 0) return false;
  for (int64_t k = first + 1; k < last; ++k) {
    if (words[k] != 0) return false;
  }
  return (words[last] & tail) == 0;
}

template <typename T>
const T* Slots(const Column& c);
template <>
const int64_t* Slots<int64_t>(const Column& c) {
  return c.ints();
}
template <>
const double* Slots<double>(const Column& c) {
  return c.doubles();
}

/// Reads the active lanes of one (column, relative offset) operand,
/// with the interpreter's load semantics: a position off the view is
/// NULL and a NULL cell is NULL.  NULL lanes are ORed into `nulls`.
///
/// Dense path: when the view is contiguous, every lane's position is
/// inside it and the null bitmap is clear over the lanes' row run, the
/// lanes are that run of the column array itself — no copy, no row
/// gather, no NULL lane.  Otherwise the lanes are gathered through the
/// row index into `buf`; a NULL lane (off the view or a NULL cell)
/// holds 0.  The gather branches per lane on its range and null tests:
/// on NULL-free data that is cheaper than a branch-free select, which
/// only pays off when NULLs are dense and scattered (docs/VECTORIZED.md
/// §4).
template <typename T>
const T* LoadTyped(const RunCtx& ctx, int col, int off, T* buf,
                   uint64_t* nulls) {
  const SequenceView& seq = *ctx.seq;
  const Column& column = seq.table().column(col);
  const T* slots = Slots<T>(column);
  const uint64_t* null_words = column.null_words();
  const int64_t n = seq.size();
  const int64_t p0 = ctx.pos0 + ctx.lane0 + off;
  const int64_t p1 = ctx.pos0 + ctx.lane1 + off;
  if (seq.contiguous() && p0 >= 0 && p1 <= n) {
    const int64_t r0 = seq.row_index(0) + p0;
    if (NullFree(null_words, r0, r0 + (p1 - p0))) return slots + r0;
  }
  const int64_t* rows = seq.row_data();
  for (int w = ctx.w0; w < ctx.w1; ++w) {
    const int hi = kernel_lanes::WordHi(ctx.lane1, w);
    uint64_t null_word = 0;
    for (int l = kernel_lanes::WordLo(ctx.lane0, w); l < hi; ++l) {
      const int64_t p = ctx.pos0 + l + off;
      if (p >= 0 && p < n) {
        const int64_t r = rows[p];
        if (((null_words[r >> 6] >> (r & 63)) & 1) == 0) {
          buf[l] = slots[r];
          continue;
        }
      }
      buf[l] = T{};
      null_word |= uint64_t{1} << (l & 63);
    }
    nulls[w] |= null_word;
  }
  return buf + ctx.lane0;
}

Lanes LoadLanes(const RunCtx& ctx, int col, int off, VType t, LaneBuf* buf,
                uint64_t* nulls) {
  Lanes out;
  if (t == VType::kF64) {
    out.f = LoadTyped<double>(ctx, col, off, buf->f64, nulls);
  } else {
    out.i = LoadTyped<int64_t>(ctx, col, off, buf->i64, nulls);
  }
  return out;
}

inline int Cmp3(int64_t x, int64_t y) { return (x > y) - (x < y); }
inline int Cmp3(double x, int64_t y) { return num::CompareF64I64(x, y); }
inline int Cmp3(int64_t x, double y) { return num::CompareI64F64(x, y); }

/// kernel_lanes::CmpF64's contract for the int64 lane pairs, through
/// the exact comparisons of types/numeric_ops.h; with kScalarRhs the
/// right side is `lit` (b is unused).
template <typename A, typename B, bool kScalarRhs>
void CmpExact(const A* a, const B* b, B lit, int lane0, int lane1,
              uint64_t* lt, uint64_t* gt) {
  for (int w = lane0 >> 6; w < (lane1 + 63) >> 6; ++w) {
    const int hi = kernel_lanes::WordHi(lane1, w);
    uint64_t below = 0, above = 0;
    for (int l = kernel_lanes::WordLo(lane0, w); l < hi; ++l) {
      const int c = Cmp3(a[l - lane0], kScalarRhs ? lit : b[l - lane0]);
      below |= static_cast<uint64_t>(c < 0) << (l & 63);
      above |= static_cast<uint64_t>(c > 0) << (l & 63);
    }
    lt[w] = below;
    gt[w] = above;
  }
}

/// Three-way lane comparison of two operands of any numeric or date
/// lane types (dates compare as day numbers).
void CompareLanes(const Lanes& a, const Lanes& b, const RunCtx& ctx,
                  uint64_t* lt, uint64_t* gt) {
  const int lane0 = ctx.lane0, lane1 = ctx.lane1;
  if (a.f != nullptr && b.f != nullptr) {
    // 1.0 * x is x exactly, NaN included.
    kernel_lanes::CmpF64(a.f, b.f, 1.0, lane0, lane1, lt, gt);
  } else if (a.f != nullptr) {
    CmpExact<double, int64_t, false>(a.f, b.i, 0, lane0, lane1, lt, gt);
  } else if (b.f != nullptr) {
    CmpExact<int64_t, double, false>(a.i, b.f, 0, lane0, lane1, lt, gt);
  } else {
    CmpExact<int64_t, int64_t, false>(a.i, b.i, 0, lane0, lane1, lt, gt);
  }
}

/// A comparison node's masks from its three-way lane results: TRUE
/// where `op` holds on a non-NULL active lane, NULL where an operand
/// was NULL.  Canonical, like every bool-producing node's: a lane's
/// true bit is only set when its null bit is clear, so word-parallel
/// Kleene algebra stays exact.
void WriteVerdict(CmpOp op, const uint64_t* lt, const uint64_t* gt,
                  const uint64_t* nulls, const RunCtx& ctx, LaneBuf* o) {
  const uint64_t want_lt =
      op == CmpOp::kLt || op == CmpOp::kLe || op == CmpOp::kNe ? ~uint64_t{0}
                                                                : 0;
  const uint64_t want_eq =
      op == CmpOp::kEq || op == CmpOp::kLe || op == CmpOp::kGe ? ~uint64_t{0}
                                                                : 0;
  const uint64_t want_gt =
      op == CmpOp::kGt || op == CmpOp::kGe || op == CmpOp::kNe ? ~uint64_t{0}
                                                                : 0;
  for (int w = ctx.w0; w < ctx.w1; ++w) {
    const uint64_t holds = (lt[w] & want_lt) | (gt[w] & want_gt) |
                           (~(lt[w] | gt[w]) & want_eq);
    o->null_bits[w] = nulls[w] & ctx.range[w];
    o->true_bits[w] = holds & ~nulls[w] & ctx.range[w];
  }
}

}  // namespace

struct Node {
  VType type = VType::kNull;
  int out = -1;  // this node's LaneBuf index

  virtual ~Node() = default;
  virtual void Run(RunCtx* ctx) const = 0;
  /// Non-null for compile-time-constant nodes (enables folding).
  virtual const Value* AsConst() const { return nullptr; }
};

namespace {

struct NullNode : Node {
  Value null_value;  // NULL

  NullNode() { type = VType::kNull; }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    FillRange(o.null_bits, *ctx);
    ZeroRange(o.true_bits, *ctx);
  }
  const Value* AsConst() const override { return &null_value; }
};

struct ConstNode : Node {
  Value value;

  explicit ConstNode(Value v) : value(std::move(v)) {
    switch (value.kind()) {
      case TypeKind::kBool:
        type = VType::kBool;
        break;
      case TypeKind::kInt64:
        type = VType::kI64;
        break;
      case TypeKind::kDouble:
        type = VType::kF64;
        break;
      case TypeKind::kDate:
        type = VType::kDate;
        break;
      default:
        type = VType::kNull;
        break;
    }
  }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    ZeroRange(o.null_bits, *ctx);
    switch (type) {
      case VType::kBool:
        if (value.bool_value()) {
          FillRange(o.true_bits, *ctx);
        } else {
          ZeroRange(o.true_bits, *ctx);
        }
        break;
      case VType::kI64:
        for (int l = ctx->lane0; l < ctx->lane1; ++l) {
          o.i64[l] = value.int64_value();
        }
        break;
      case VType::kF64:
        for (int l = ctx->lane0; l < ctx->lane1; ++l) {
          o.f64[l] = value.double_value();
        }
        break;
      case VType::kDate:
        for (int l = ctx->lane0; l < ctx->lane1; ++l) {
          o.i64[l] = value.date_value().days_since_epoch();
        }
        break;
      case VType::kNull:
        FillRange(o.null_bits, *ctx);
        ZeroRange(o.true_bits, *ctx);
        break;
    }
  }
  const Value* AsConst() const override { return &value; }
};

/// Columnar extraction: loads one (column, relative offset) stream
/// into raw lanes.  Shared (memoized) across every use site in the
/// predicate, so each cell is loaded once per block.
struct LoadNode : Node {
  int col;
  int off;

  LoadNode(int c, int o, VType t) : col(c), off(o) { type = t; }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    ZeroRange(o.null_bits, *ctx);
    const int lanes = ctx->lane1 - ctx->lane0;
    if (type == VType::kF64) {
      double* dst = o.f64 + ctx->lane0;
      const double* v = LoadTyped<double>(*ctx, col, off, o.f64, o.null_bits);
      if (v != dst) std::copy(v, v + lanes, dst);
      return;
    }
    int64_t* dst = o.i64 + ctx->lane0;
    const int64_t* v = LoadTyped<int64_t>(*ctx, col, off, o.i64, o.null_bits);
    if (v != dst) std::copy(v, v + lanes, dst);
    if (type != VType::kBool) return;
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      const int hi = kernel_lanes::WordHi(ctx->lane1, w);
      uint64_t t = 0;
      for (int l = kernel_lanes::WordLo(ctx->lane0, w); l < hi; ++l) {
        t |= static_cast<uint64_t>(o.i64[l] != 0) << (l & 63);
      }
      o.true_bits[w] = t & ~o.null_bits[w];
    }
  }
};

/// Checked int64 + - * (division never takes this node: it is always
/// evaluated in the double domain, matching the interpreter).
struct ArithI64Node : Node {
  ArithOp op;
  int a, b;

  ArithI64Node(ArithOp o, int x, int y) : op(o), a(x), b(y) {
    type = VType::kI64;
  }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.null_bits[w] = A.null_bits[w] | B.null_bits[w];
    }
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int64_t r = 0;
      bool ok;
      switch (op) {
        case ArithOp::kAdd:
          ok = num::AddI64(A.i64[l], B.i64[l], &r);
          break;
        case ArithOp::kSub:
          ok = num::SubI64(A.i64[l], B.i64[l], &r);
          break;
        default:
          ok = num::MulI64(A.i64[l], B.i64[l], &r);
          break;
      }
      o.i64[l] = r;
      if (!ok) SetBit(o.null_bits, l);
    }
  }
};

/// Double-domain arithmetic (any mixed numeric combination, and all
/// division).  x / 0 is NULL, like the interpreter.
struct ArithF64Node : Node {
  ArithOp op;
  int a, b;
  VType ta, tb;

  ArithF64Node(ArithOp o, int x, VType xt, int y, VType yt)
      : op(o), a(x), b(y), ta(xt), tb(yt) {
    type = VType::kF64;
  }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.null_bits[w] = A.null_bits[w] | B.null_bits[w];
    }
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      double x = LaneF64(A, ta, l), y = LaneF64(B, tb, l);
      switch (op) {
        case ArithOp::kAdd:
          o.f64[l] = x + y;
          break;
        case ArithOp::kSub:
          o.f64[l] = x - y;
          break;
        case ArithOp::kMul:
          o.f64[l] = x * y;
          break;
        case ArithOp::kDiv:
          if (y == 0) {
            SetBit(o.null_bits, l);
            o.f64[l] = 0;
          } else {
            o.f64[l] = x / y;
          }
          break;
      }
    }
  }
};

/// DATE - DATE -> day count (int32 day values subtract exactly in
/// int64).
struct DateSubDateNode : Node {
  int a, b;

  DateSubDateNode(int x, int y) : a(x), b(y) { type = VType::kI64; }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.null_bits[w] = A.null_bits[w] | B.null_bits[w];
    }
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      o.i64[l] = A.i64[l] - B.i64[l];
    }
  }
};

/// DATE ± numeric day count -> DATE, with the interpreter's guards:
/// non-finite / out-of-int64 doubles and results outside the int32
/// date domain are NULL.
struct DateShiftNode : Node {
  int date, days;
  VType days_type;
  bool negate;

  DateShiftNode(int d, int n, VType nt, bool neg)
      : date(d), days(n), days_type(nt), negate(neg) {
    type = VType::kDate;
  }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& D = ctx->bufs[date];
    const LaneBuf& N = ctx->bufs[days];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.null_bits[w] = D.null_bits[w] | N.null_bits[w];
    }
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int64_t delta;
      if (days_type == VType::kI64) {
        delta = N.i64[l];
      } else if (!num::F64ToI64(N.f64[l], &delta)) {
        SetBit(o.null_bits, l);
        continue;
      }
      if (negate) {
        if (delta == std::numeric_limits<int64_t>::min()) {
          SetBit(o.null_bits, l);
          continue;
        }
        delta = -delta;
      }
      int32_t d;
      if (!num::AddDateDays(static_cast<int32_t>(D.i64[l]), delta, &d)) {
        SetBit(o.null_bits, l);
        continue;
      }
      o.i64[l] = d;
    }
  }
};

/// Generic comparison over numeric / date lanes, exact across the
/// int64/double boundary (types/numeric_ops.h).
struct CmpNode : Node {
  CmpOp op;
  int a, b;
  VType ta, tb;

  CmpNode(CmpOp o, int x, VType xt, int y, VType yt)
      : op(o), a(x), b(y), ta(xt), tb(yt) {
    type = VType::kBool;
  }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    uint64_t lt[kKernelWords], gt[kKernelWords], nulls[kKernelWords];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      nulls[w] = A.null_bits[w] | B.null_bits[w];
    }
    CompareLanes(LanesOf(A, ta, ctx->lane0), LanesOf(B, tb, ctx->lane0), *ctx,
                 lt, gt);
    WriteVerdict(op, lt, gt, nulls, *ctx, &ctx->bufs[out]);
  }
};

/// BOOL vs BOOL comparison, word-parallel (false < true).
struct BoolCmpNode : Node {
  CmpOp op;
  int a, b;

  BoolCmpNode(CmpOp o, int x, int y) : op(o), a(x), b(y) {
    type = VType::kBool;
  }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      uint64_t ta = A.true_bits[w], tb = B.true_bits[w];
      uint64_t t;
      switch (op) {
        case CmpOp::kEq:
          t = ~(ta ^ tb);
          break;
        case CmpOp::kNe:
          t = ta ^ tb;
          break;
        case CmpOp::kLt:
          t = ~ta & tb;
          break;
        case CmpOp::kLe:
          t = ~ta | tb;
          break;
        case CmpOp::kGt:
          t = ta & ~tb;
          break;
        default:
          t = ta | ~tb;
          break;
      }
      o.null_bits[w] = A.null_bits[w] | B.null_bits[w];
      o.true_bits[w] = t & ~o.null_bits[w];
    }
  }
};

/// Word-parallel Kleene AND / OR / NOT.
struct AndNode : Node {
  int a, b;

  AndNode(int x, int y) : a(x), b(y) { type = VType::kBool; }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      uint64_t fa = ~A.true_bits[w] & ~A.null_bits[w];
      uint64_t fb = ~B.true_bits[w] & ~B.null_bits[w];
      o.true_bits[w] = A.true_bits[w] & B.true_bits[w];
      o.null_bits[w] = (A.null_bits[w] | B.null_bits[w]) & ~fa & ~fb;
    }
  }
};

struct OrNode : Node {
  int a, b;

  OrNode(int x, int y) : a(x), b(y) { type = VType::kBool; }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    const LaneBuf& B = ctx->bufs[b];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.true_bits[w] = A.true_bits[w] | B.true_bits[w];
      o.null_bits[w] =
          (A.null_bits[w] | B.null_bits[w]) & ~o.true_bits[w];
    }
  }
};

struct NotNode : Node {
  int a;

  explicit NotNode(int x) : a(x) { type = VType::kBool; }
  void Run(RunCtx* ctx) const override {
    const LaneBuf& A = ctx->bufs[a];
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.true_bits[w] = ~A.true_bits[w] & ~A.null_bits[w];
      o.null_bits[w] = A.null_bits[w];
    }
  }
};

/// Fused fast path: column CMP literal in one load + compare pass.
/// Covers the catalogs' most common conjunct shape (X.price > 100,
/// X.date <= DATE '...').  A DOUBLE column against a literal that is a
/// double, or an int64 below 2^53 in magnitude (exact as a double),
/// compares in kernel_lanes::CmpF64; every other pair through the
/// exact int64/double comparisons.
struct ColCmpLitNode : Node {
  int col, off;
  VType ct;  // column lane type
  CmpOp op;
  bool lit_f64;   // the literal is a DOUBLE
  bool cmp_f64;   // compare in the double domain
  double lf;      // the literal as a double (exact when cmp_f64)
  int64_t li;     // an INT64 literal, a DATE's day number or BOOL 0/1

  ColCmpLitNode(int c, int o, VType t, CmpOp p, const Value& v)
      : col(c), off(o), ct(t), op(p) {
    type = VType::kBool;
    lit_f64 = v.kind() == TypeKind::kDouble;
    li = v.kind() == TypeKind::kInt64  ? v.int64_value()
         : v.kind() == TypeKind::kDate ? v.date_value().days_since_epoch()
         : v.kind() == TypeKind::kBool ? (v.bool_value() ? 1 : 0)
                                       : 0;
    constexpr int64_t kTwo53 = int64_t{1} << 53;
    lf = lit_f64 ? v.double_value() : static_cast<double>(li);
    cmp_f64 = ct == VType::kF64 && (lit_f64 || (li > -kTwo53 && li < kTwo53));
  }
  void Run(RunCtx* ctx) const override {
    const int lane0 = ctx->lane0, lane1 = ctx->lane1;
    uint64_t lt[kKernelWords], gt[kKernelWords], nulls[kKernelWords] = {};
    const Lanes a = LoadLanes(*ctx, col, off, ct, ctx->tmp, nulls);
    if (cmp_f64) {
      kernel_lanes::CmpF64(a.f, nullptr, lf, lane0, lane1, lt, gt);
    } else if (ct == VType::kF64) {
      CmpExact<double, int64_t, true>(a.f, nullptr, li, lane0, lane1, lt, gt);
    } else if (lit_f64) {
      CmpExact<int64_t, double, true>(a.i, nullptr, lf, lane0, lane1, lt, gt);
    } else {
      CmpExact<int64_t, int64_t, true>(a.i, nullptr, li, lane0, lane1, lt, gt);
    }
    WriteVerdict(op, lt, gt, nulls, *ctx, &ctx->bufs[out]);
  }
};

/// Fused fast path: column CMP column (possibly at different relative
/// offsets) — the shape of every tuple-vs-previous-tuple trend
/// predicate in the paper's examples.
struct ColCmpColNode : Node {
  int cola, offa;
  VType ta;
  int colb, offb;
  VType tb;
  CmpOp op;

  ColCmpColNode(int ca, int oa, VType xa, int cb, int ob, VType xb, CmpOp p)
      : cola(ca), offa(oa), ta(xa), colb(cb), offb(ob), tb(xb), op(p) {
    type = VType::kBool;
  }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    uint64_t lt[kKernelWords], gt[kKernelWords], nulls[kKernelWords] = {};
    const Lanes a = LoadLanes(*ctx, cola, offa, ta, ctx->tmp, nulls);
    const Lanes b = LoadLanes(*ctx, colb, offb, tb, &o, nulls);
    CompareLanes(a, b, *ctx, lt, gt);
    WriteVerdict(op, lt, gt, nulls, *ctx, &o);
  }
};

/// Fused fast path: column CMP literal * column — ratio predicates
/// such as Y.price < 0.98 * X.previous.price.  Mirrors EvalArith's
/// type rules exactly: int64 literal * int64 column is checked int64
/// multiplication (overflow -> NULL); any double operand moves the
/// product to the double domain.  Two DOUBLE columns multiply and
/// compare in one kernel_lanes::CmpF64 pass.
struct ColCmpScaledColNode : Node {
  int cola, offa;
  VType ta;
  int colb, offb;
  VType tb;
  CmpOp op;
  bool int_mul;  // checked int64 product
  double lf;     // the literal in the double domain
  int64_t li;    // the literal of an int64 product

  ColCmpScaledColNode(int ca, int oa, VType xa, const Value& v, int cb,
                      int ob, VType xb, CmpOp p)
      : cola(ca), offa(oa), ta(xa), colb(cb), offb(ob), tb(xb), op(p) {
    type = VType::kBool;
    int_mul = v.kind() == TypeKind::kInt64 && tb == VType::kI64;
    lf = v.kind() == TypeKind::kDouble ? v.double_value()
                                       : static_cast<double>(v.int64_value());
    li = v.kind() == TypeKind::kInt64 ? v.int64_value() : 0;
  }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    const int lane0 = ctx->lane0, lane1 = ctx->lane1;
    uint64_t lt[kKernelWords], gt[kKernelWords], nulls[kKernelWords] = {};
    const Lanes a = LoadLanes(*ctx, cola, offa, ta, ctx->tmp, nulls);
    const Lanes b = LoadLanes(*ctx, colb, offb, tb, &o, nulls);
    if (!int_mul && a.f != nullptr && b.f != nullptr) {
      kernel_lanes::CmpF64(a.f, b.f, lf, lane0, lane1, lt, gt);
      WriteVerdict(op, lt, gt, nulls, *ctx, &o);
      return;
    }
    // The product into this node's own lanes (in place when b was
    // gathered there), then an exact compare.
    Lanes m;
    if (int_mul) {
      for (int w = ctx->w0; w < ctx->w1; ++w) {
        const int hi = kernel_lanes::WordHi(lane1, w);
        uint64_t overflow = 0;
        for (int l = kernel_lanes::WordLo(lane0, w); l < hi; ++l) {
          overflow |= static_cast<uint64_t>(
                          !num::MulI64(li, b.i[l - lane0], &o.i64[l]))
                      << (l & 63);
        }
        nulls[w] |= overflow;
      }
      m.i = o.i64 + lane0;
    } else {
      for (int l = lane0; l < lane1; ++l) {
        o.f64[l] = lf * (b.f != nullptr ? b.f[l - lane0]
                                        : static_cast<double>(b.i[l - lane0]));
      }
      m.f = o.f64 + lane0;
    }
    CompareLanes(a, m, *ctx, lt, gt);
    WriteVerdict(op, lt, gt, nulls, *ctx, &o);
  }
};

}  // namespace
}  // namespace kernel_internal

namespace {

using kernel_internal::IsNumeric;
using kernel_internal::LaneBuf;
using kernel_internal::Node;
using kernel_internal::RunCtx;
using VType = kernel_internal::VType;  // NOLINT

}  // namespace

/// Compiles an Expr tree into a post-order node program.  Every helper
/// returns a node index, or -1 when the expression leaves the
/// vectorized subset (the whole compile then fails and callers use the
/// interpreter).  Type mismatches the interpreter would resolve to
/// NULL per tuple become statically-NULL nodes instead — same answers,
/// decided once.
struct KernelBuilder {
  const Schema* schema;
  std::vector<std::unique_ptr<Node>> nodes;
  std::map<std::pair<int, int>, int> load_memo;  // (col, offset) -> node
  int min_off = 0;
  int max_off = 0;

  int Add(std::unique_ptr<Node> n) {
    n->out = static_cast<int>(nodes.size());
    nodes.push_back(std::move(n));
    return nodes.back()->out;
  }

  int MakeNull() { return Add(std::make_unique<kernel_internal::NullNode>()); }

  int MakeConst(Value v) {
    if (v.is_null()) return MakeNull();
    if (v.kind() == TypeKind::kString) return -1;
    return Add(std::make_unique<kernel_internal::ConstNode>(std::move(v)));
  }

  /// Column lane type for a supported relative reference; VType::kNull
  /// on failure (unresolved/anchored refs, string columns).
  bool ColumnInfo(const ColumnRef& r, int* col, int* off, VType* t) const {
    if (!r.relative || r.column_index < 0) return false;
    switch (schema->column(r.column_index).type) {
      case TypeKind::kInt64:
        *t = VType::kI64;
        break;
      case TypeKind::kDouble:
        *t = VType::kF64;
        break;
      case TypeKind::kDate:
        *t = VType::kDate;
        break;
      case TypeKind::kBool:
        *t = VType::kBool;
        break;
      default:
        return false;
    }
    *col = r.column_index;
    *off = r.total_offset;
    return true;
  }

  void NoteOffset(int off) {
    min_off = std::min(min_off, off);
    max_off = std::max(max_off, off);
  }

  int BuildLoad(const ColumnRef& r) {
    int col, off;
    VType t;
    if (!ColumnInfo(r, &col, &off, &t)) return -1;
    NoteOffset(off);
    auto it = load_memo.find({col, off});
    if (it != load_memo.end()) return it->second;
    int idx = Add(std::make_unique<kernel_internal::LoadNode>(col, off, t));
    load_memo[{col, off}] = idx;
    return idx;
  }

  /// Interpreter-folds an operation whose operands are compile-time
  /// constants (synthesizing a literal expression keeps folding and
  /// runtime evaluation on the same code path, so they cannot drift).
  int FoldBinary(const Expr& e, const Value& a, const Value& b) {
    ExprPtr synth;
    switch (e.kind) {
      case ExprKind::kArith:
        synth = MakeArith(e.arith_op, MakeLiteral(a), MakeLiteral(b));
        break;
      case ExprKind::kCompare:
        synth = MakeCompare(e.cmp_op, MakeLiteral(a), MakeLiteral(b));
        break;
      case ExprKind::kAnd:
        synth = MakeAnd(MakeLiteral(a), MakeLiteral(b));
        break;
      case ExprKind::kOr:
        synth = MakeOr(MakeLiteral(a), MakeLiteral(b));
        break;
      default:
        return -1;
    }
    return MakeConst(EvalExpr(*synth, EvalContext{}));
  }

  /// Tries the fused comparison shapes; -2 means "no fusion, build
  /// generically", -1 means compile failure.
  int TryFuseCompare(const Expr& e) {
    const Expr& L = *e.lhs;
    const Expr& R = *e.rhs;
    // Normalize to column-on-the-left via SwapOp.
    if (L.kind != ExprKind::kColumnRef && R.kind == ExprKind::kColumnRef) {
      Expr swapped = e;
      swapped.cmp_op = SwapOp(e.cmp_op);
      swapped.lhs = e.rhs;
      swapped.rhs = e.lhs;
      return TryFuseCompare(swapped);
    }
    if (L.kind != ExprKind::kColumnRef) return -2;
    int col, off;
    VType ct;
    if (!ColumnInfo(L.ref, &col, &off, &ct)) return -2;

    if (R.kind == ExprKind::kLiteral) {
      const Value& v = R.literal;
      bool ok = (IsNumeric(ct) && v.is_numeric()) ||
                (ct == VType::kDate && v.kind() == TypeKind::kDate) ||
                (ct == VType::kBool && v.kind() == TypeKind::kBool);
      if (!ok) return -2;
      NoteOffset(off);
      return Add(std::make_unique<kernel_internal::ColCmpLitNode>(
          col, off, ct, e.cmp_op, v));
    }
    if (R.kind == ExprKind::kColumnRef) {
      int colb, offb;
      VType tb;
      if (!ColumnInfo(R.ref, &colb, &offb, &tb)) return -2;
      bool ok = (IsNumeric(ct) && IsNumeric(tb)) ||
                (ct == VType::kDate && tb == VType::kDate);
      if (!ok) return -2;
      NoteOffset(off);
      NoteOffset(offb);
      return Add(std::make_unique<kernel_internal::ColCmpColNode>(
          col, off, ct, colb, offb, tb, e.cmp_op));
    }
    if (R.kind == ExprKind::kArith && R.arith_op == ArithOp::kMul &&
        IsNumeric(ct)) {
      const Expr* lit = nullptr;
      const Expr* colref = nullptr;
      if (R.lhs->kind == ExprKind::kLiteral &&
          R.rhs->kind == ExprKind::kColumnRef) {
        lit = R.lhs.get();
        colref = R.rhs.get();
      } else if (R.rhs->kind == ExprKind::kLiteral &&
                 R.lhs->kind == ExprKind::kColumnRef) {
        lit = R.rhs.get();
        colref = R.lhs.get();
      } else {
        return -2;
      }
      if (!lit->literal.is_numeric()) return -2;
      int colb, offb;
      VType tb;
      if (!ColumnInfo(colref->ref, &colb, &offb, &tb) || !IsNumeric(tb)) {
        return -2;
      }
      NoteOffset(off);
      NoteOffset(offb);
      return Add(std::make_unique<kernel_internal::ColCmpScaledColNode>(
          col, off, ct, lit->literal, colb, offb, tb, e.cmp_op));
    }
    return -2;
  }

  int BuildArith(const Expr& e) {
    int a = Build(*e.lhs);
    if (a < 0) return -1;
    int b = Build(*e.rhs);
    if (b < 0) return -1;
    const Value* ca = nodes[a]->AsConst();
    const Value* cb = nodes[b]->AsConst();
    if (ca != nullptr && cb != nullptr) return FoldBinary(e, *ca, *cb);
    VType ta = nodes[a]->type, tb = nodes[b]->type;
    if (ta == VType::kNull || tb == VType::kNull) return MakeNull();
    if (ta == VType::kDate) {
      if (tb == VType::kDate && e.arith_op == ArithOp::kSub) {
        return Add(std::make_unique<kernel_internal::DateSubDateNode>(a, b));
      }
      if (IsNumeric(tb) && (e.arith_op == ArithOp::kAdd ||
                            e.arith_op == ArithOp::kSub)) {
        return Add(std::make_unique<kernel_internal::DateShiftNode>(
            a, b, tb, e.arith_op == ArithOp::kSub));
      }
      return MakeNull();
    }
    if (tb == VType::kDate) {
      if (IsNumeric(ta) && e.arith_op == ArithOp::kAdd) {
        return Add(std::make_unique<kernel_internal::DateShiftNode>(
            b, a, ta, /*negate=*/false));
      }
      return MakeNull();
    }
    if (!IsNumeric(ta) || !IsNumeric(tb)) return MakeNull();
    if (ta == VType::kI64 && tb == VType::kI64 &&
        e.arith_op != ArithOp::kDiv) {
      return Add(
          std::make_unique<kernel_internal::ArithI64Node>(e.arith_op, a, b));
    }
    return Add(std::make_unique<kernel_internal::ArithF64Node>(e.arith_op, a,
                                                               ta, b, tb));
  }

  int BuildCompare(const Expr& e) {
    int fused = TryFuseCompare(e);
    if (fused != -2) return fused;
    int a = Build(*e.lhs);
    if (a < 0) return -1;
    int b = Build(*e.rhs);
    if (b < 0) return -1;
    const Value* ca = nodes[a]->AsConst();
    const Value* cb = nodes[b]->AsConst();
    if (ca != nullptr && cb != nullptr) return FoldBinary(e, *ca, *cb);
    VType ta = nodes[a]->type, tb = nodes[b]->type;
    if (ta == VType::kNull || tb == VType::kNull) return MakeNull();
    if (IsNumeric(ta) && IsNumeric(tb)) {
      return Add(std::make_unique<kernel_internal::CmpNode>(e.cmp_op, a, ta,
                                                            b, tb));
    }
    if (ta == VType::kDate && tb == VType::kDate) {
      return Add(std::make_unique<kernel_internal::CmpNode>(e.cmp_op, a, ta,
                                                            b, tb));
    }
    if (ta == VType::kBool && tb == VType::kBool) {
      return Add(
          std::make_unique<kernel_internal::BoolCmpNode>(e.cmp_op, a, b));
    }
    // Mixed type families: the interpreter's TypeError -> NULL.
    return MakeNull();
  }

  /// Coerces a node to a boolean operand for AND/OR/NOT: the
  /// interpreter treats any non-bool, non-NULL operand value as NULL.
  int AsBoolOperand(int idx) {
    VType t = nodes[idx]->type;
    if (t == VType::kBool || t == VType::kNull) return idx;
    return MakeNull();
  }

  int BuildLogic(const Expr& e) {
    int a = Build(*e.lhs);
    if (a < 0) return -1;
    if (e.kind == ExprKind::kNot) {
      a = AsBoolOperand(a);
      const Value* ca = nodes[a]->AsConst();
      if (ca != nullptr) {
        return MakeConst(EvalExpr(*MakeNot(MakeLiteral(*ca)), EvalContext{}));
      }
      return Add(std::make_unique<kernel_internal::NotNode>(a));
    }
    int b = Build(*e.rhs);
    if (b < 0) return -1;
    a = AsBoolOperand(a);
    b = AsBoolOperand(b);
    const Value* ca = nodes[a]->AsConst();
    const Value* cb = nodes[b]->AsConst();
    if (ca != nullptr && cb != nullptr) return FoldBinary(e, *ca, *cb);
    // Kleene absorption/identity against a constant side: FALSE
    // dominates AND, TRUE dominates OR, and the neutral element
    // reduces to the other operand.
    auto const_bool = [](const Value* v, bool which) {
      return v != nullptr && v->kind() == TypeKind::kBool &&
             v->bool_value() == which;
    };
    if (e.kind == ExprKind::kAnd) {
      if (const_bool(ca, false) || const_bool(cb, false)) {
        return MakeConst(Value::Bool(false));
      }
      if (const_bool(ca, true)) return b;
      if (const_bool(cb, true)) return a;
      return Add(std::make_unique<kernel_internal::AndNode>(a, b));
    }
    if (const_bool(ca, true) || const_bool(cb, true)) {
      return MakeConst(Value::Bool(true));
    }
    if (const_bool(ca, false)) return b;
    if (const_bool(cb, false)) return a;
    return Add(std::make_unique<kernel_internal::OrNode>(a, b));
  }

  int Build(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return MakeConst(e.literal);
      case ExprKind::kColumnRef:
        return BuildLoad(e.ref);
      case ExprKind::kAggregate:
        return -1;
      case ExprKind::kArith:
        return BuildArith(e);
      case ExprKind::kCompare:
        return BuildCompare(e);
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kNot:
        return BuildLogic(e);
    }
    return -1;
  }
};

PredicateKernel::~PredicateKernel() = default;

std::unique_ptr<PredicateKernel> PredicateKernel::Compile(
    const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) return nullptr;
  KernelBuilder builder;
  builder.schema = &schema;
  int root = builder.Build(*expr);
  if (root < 0) return nullptr;
  VType rt = builder.nodes[root]->type;
  // Only boolean-valued (or statically NULL) roots make sense as
  // predicates; a numeric root is never TRUE, but it is exotic enough
  // to leave to the interpreter.
  if (rt != VType::kBool && rt != VType::kNull) return nullptr;
  auto kernel = std::unique_ptr<PredicateKernel>(new PredicateKernel());
  kernel->nodes_ = std::move(builder.nodes);
  kernel->root_ = root;
  kernel->min_offset_ = builder.min_off;
  kernel->max_offset_ = builder.max_off;
  return kernel;
}

void PredicateKernel::EvalBlock(const SequenceView& seq, int64_t pos0,
                                int lane0, int lane1, KernelScratch* scratch,
                                BlockVerdict* out) const {
  SQLTS_CHECK(lane0 >= 0 && lane0 <= lane1 && lane1 <= kKernelBlock);
  RunCtx ctx;
  ctx.seq = &seq;
  ctx.pos0 = pos0;
  ctx.lane0 = lane0;
  ctx.lane1 = lane1;
  ctx.w0 = lane0 >> 6;
  ctx.w1 = (lane1 + 63) >> 6;
  const int num_nodes = static_cast<int>(nodes_.size());
  ctx.bufs = scratch->Prepare(num_nodes + 1);
  ctx.tmp = &ctx.bufs[num_nodes];
  for (int w = 0; w < kKernelWords; ++w) {
    out->true_bits[w] = 0;
    out->null_bits[w] = 0;
    ctx.range[w] = 0;
  }
  if (lane0 >= lane1) return;
  for (int w = ctx.w0; w < ctx.w1; ++w) {
    ctx.range[w] = kernel_lanes::BitRange(
        kernel_lanes::WordLo(lane0, w) - w * 64,
        kernel_lanes::WordHi(lane1, w) - w * 64);
  }
  for (const auto& node : nodes_) node->Run(&ctx);

  const LaneBuf& r = ctx.bufs[root_];
  for (int w = ctx.w0; w < ctx.w1; ++w) {
    out->null_bits[w] = r.null_bits[w] & ctx.range[w];
    out->true_bits[w] = r.true_bits[w] & ~r.null_bits[w] & ctx.range[w];
  }
}

void PredicateKernel::Eval(const SequenceView& seq, int64_t start, int64_t n,
                           KernelScratch* scratch, TriMask* out) const {
  out->Resize(n);
  BlockVerdict bv;
  for (int64_t done = 0; done < n; done += kKernelBlock) {
    int lanes = static_cast<int>(std::min<int64_t>(kKernelBlock, n - done));
    EvalBlock(seq, start + done, 0, lanes, scratch, &bv);
    int64_t word0 = done / 64;  // done is a multiple of 256
    for (int w = 0; w < kKernelWords && word0 + w < static_cast<int64_t>(
                                                        out->true_bits.size());
         ++w) {
      out->true_bits[word0 + w] = bv.true_bits[w];
      out->null_bits[word0 + w] = bv.null_bits[w];
    }
  }
}

}  // namespace sqlts
