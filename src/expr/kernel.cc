#include "expr/kernel.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "common/logging.h"
#include "expr/eval.h"
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
  LaneBuf* bufs;
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

/// Canonical boolean masks: a lane's true bit is only meaningful (and
/// only set) when its null bit is clear — every bool-producing node
/// re-establishes this, so word-parallel Kleene algebra stays exact.
inline void Canonicalize(LaneBuf* b, const RunCtx& ctx) {
  for (int w = ctx.w0; w < ctx.w1; ++w) b->true_bits[w] &= ~b->null_bits[w];
}

inline bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Numeric lane read mirroring Value::AsDouble's int64 widening.
inline double LaneF64(const LaneBuf& b, VType t, int l) {
  return t == VType::kF64 ? b.f64[l] : static_cast<double>(b.i64[l]);
}

/// Hoisted raw access to one typed column of the view's table: the
/// pointer chases and bounds checks behind SequenceView::at cost more
/// than the comparison itself when paid per cell, so each node hoists
/// a cursor once per block and lanes pay one range check, a null-bit
/// test and a typed load.
///
/// Load semantics match the interpreter exactly: out-of-range
/// positions are NULL (navigation off the sequence) and NULL cells are
/// NULL.  A lane's type comes from the schema, which also fixes the
/// column's slots, so a non-NULL cell always loads.
struct ColCursor {
  const int64_t* ints;
  const double* doubles;
  const uint64_t* nulls;
  const int64_t* rows;
  int64_t n;

  ColCursor(const SequenceView& seq, int col)
      : ints(seq.table().column(col).ints()),
        doubles(seq.table().column(col).doubles()),
        nulls(seq.table().column(col).null_words()),
        rows(seq.row_data()),
        n(seq.size()) {}

  /// False for NULL; otherwise the cell is in *f64v (kF64 lanes) or
  /// *i64v (every other lane type: value, day number or 0/1).
  bool Load(int64_t p, VType t, int64_t* i64v, double* f64v) const {
    if (p < 0 || p >= n) return false;
    const int64_t r = rows[p];
    if ((nulls[r >> 6] >> (r & 63)) & 1) return false;
    if (t == VType::kF64) {
      *f64v = doubles[r];
    } else {
      *i64v = ints[r];
    }
    return true;
  }
};

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

/// Columnar extraction: gathers one (column, relative offset) stream
/// into raw lanes.  Shared (memoized) across every use site in the
/// predicate, so each cell is unboxed once per block.
struct LoadNode : Node {
  int col;
  int off;

  LoadNode(int c, int o, VType t) : col(c), off(o) { type = t; }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    ZeroRange(o.null_bits, *ctx);
    if (type == VType::kBool) ZeroRange(o.true_bits, *ctx);
    const ColCursor cur(*ctx->seq, col);
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int64_t iv = 0;
      double fv = 0;
      if (!cur.Load(ctx->pos0 + l + off, type, &iv, &fv)) {
        SetBit(o.null_bits, l);
      } else if (type == VType::kF64) {
        o.f64[l] = fv;
      } else if (type == VType::kBool) {
        if (iv != 0) SetBit(o.true_bits, l);
      } else {
        o.i64[l] = iv;
      }
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
    LaneBuf& o = ctx->bufs[out];
    for (int w = ctx->w0; w < ctx->w1; ++w) {
      o.null_bits[w] = A.null_bits[w] | B.null_bits[w];
    }
    ZeroRange(o.true_bits, *ctx);
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int c;
      if (ta == VType::kF64) {
        c = tb == VType::kF64 ? num::CompareF64(A.f64[l], B.f64[l])
                              : num::CompareF64I64(A.f64[l], B.i64[l]);
      } else if (tb == VType::kF64) {
        c = num::CompareI64F64(A.i64[l], B.f64[l]);
      } else {
        // int64 vs int64, or date vs date (day numbers).
        c = A.i64[l] < B.i64[l] ? -1 : (A.i64[l] > B.i64[l] ? 1 : 0);
      }
      if (CmpHolds(op, c)) SetBit(o.true_bits, l);
    }
    Canonicalize(&o, *ctx);
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

/// Fused fast path: column CMP literal in a single gather+compare
/// loop.  Covers the catalogs' most common conjunct shape
/// (X.price > 100, X.date <= DATE '...').
struct ColCmpLitNode : Node {
  int col, off;
  VType ct;  // column lane type
  CmpOp op;
  Value lit;

  ColCmpLitNode(int c, int o, VType t, CmpOp p, Value v)
      : col(c), off(o), ct(t), op(p), lit(std::move(v)) {
    type = VType::kBool;
  }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    ZeroRange(o.null_bits, *ctx);
    ZeroRange(o.true_bits, *ctx);
    const ColCursor cur(*ctx->seq, col);
    const bool lit_f64 = lit.kind() == TypeKind::kDouble;
    const double lf = lit_f64 ? lit.double_value() : 0;
    const int64_t li = lit.kind() == TypeKind::kInt64 ? lit.int64_value()
                       : lit.kind() == TypeKind::kDate
                           ? lit.date_value().days_since_epoch()
                       : lit.kind() == TypeKind::kBool
                           ? (lit.bool_value() ? 1 : 0)
                           : 0;
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int64_t iv = 0;
      double fv = 0;
      if (!cur.Load(ctx->pos0 + l + off, ct, &iv, &fv)) {
        SetBit(o.null_bits, l);
        continue;
      }
      int c;
      if (ct == VType::kF64) {
        c = lit_f64 ? num::CompareF64(fv, lf) : num::CompareF64I64(fv, li);
      } else if (lit_f64) {
        c = num::CompareI64F64(iv, lf);
      } else {
        c = iv < li ? -1 : (iv > li ? 1 : 0);
      }
      if (CmpHolds(op, c)) SetBit(o.true_bits, l);
    }
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
    ZeroRange(o.null_bits, *ctx);
    ZeroRange(o.true_bits, *ctx);
    const ColCursor cura(*ctx->seq, cola);
    const ColCursor curb(*ctx->seq, colb);
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int64_t ia = 0, ib = 0;
      double fa = 0, fb = 0;
      if (!cura.Load(ctx->pos0 + l + offa, ta, &ia, &fa) ||
          !curb.Load(ctx->pos0 + l + offb, tb, &ib, &fb)) {
        SetBit(o.null_bits, l);
        continue;
      }
      int c;
      if (ta == VType::kF64) {
        c = tb == VType::kF64 ? num::CompareF64(fa, fb)
                              : num::CompareF64I64(fa, ib);
      } else if (tb == VType::kF64) {
        c = num::CompareI64F64(ia, fb);
      } else {
        c = ia < ib ? -1 : (ia > ib ? 1 : 0);
      }
      if (CmpHolds(op, c)) SetBit(o.true_bits, l);
    }
  }
};

/// Fused fast path: column CMP literal * column — ratio predicates
/// such as Y.price < 0.98 * X.previous.price.  Mirrors EvalArith's
/// type rules exactly: int64 literal * int64 column is checked int64
/// multiplication (overflow -> NULL); any double operand moves the
/// product to the double domain.
struct ColCmpScaledColNode : Node {
  int cola, offa;
  VType ta;
  Value lit;
  int colb, offb;
  VType tb;
  CmpOp op;

  ColCmpScaledColNode(int ca, int oa, VType xa, Value v, int cb, int ob,
                      VType xb, CmpOp p)
      : cola(ca),
        offa(oa),
        ta(xa),
        lit(std::move(v)),
        colb(cb),
        offb(ob),
        tb(xb),
        op(p) {
    type = VType::kBool;
  }
  void Run(RunCtx* ctx) const override {
    LaneBuf& o = ctx->bufs[out];
    ZeroRange(o.null_bits, *ctx);
    ZeroRange(o.true_bits, *ctx);
    const ColCursor cura(*ctx->seq, cola);
    const ColCursor curb(*ctx->seq, colb);
    const bool int_mul =
        lit.kind() == TypeKind::kInt64 && tb == VType::kI64;
    const double lf = lit.kind() == TypeKind::kDouble
                          ? lit.double_value()
                          : static_cast<double>(lit.int64_value());
    const int64_t li = lit.kind() == TypeKind::kInt64 ? lit.int64_value() : 0;
    for (int l = ctx->lane0; l < ctx->lane1; ++l) {
      int64_t ia = 0, ib = 0;
      double fa = 0, fb = 0;
      if (!cura.Load(ctx->pos0 + l + offa, ta, &ia, &fa) ||
          !curb.Load(ctx->pos0 + l + offb, tb, &ib, &fb)) {
        SetBit(o.null_bits, l);
        continue;
      }
      int c;
      if (int_mul) {
        int64_t m;
        if (!num::MulI64(li, ib, &m)) {
          SetBit(o.null_bits, l);
          continue;
        }
        c = ta == VType::kI64 ? (ia < m ? -1 : (ia > m ? 1 : 0))
                              : num::CompareF64I64(fa, m);
      } else {
        double m = lf * (tb == VType::kF64 ? fb : static_cast<double>(ib));
        c = ta == VType::kI64 ? num::CompareI64F64(ia, m)
                              : num::CompareF64(fa, m);
      }
      if (CmpHolds(op, c)) SetBit(o.true_bits, l);
    }
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
  ctx.bufs = scratch->Prepare(static_cast<int>(nodes_.size()));
  for (int w = 0; w < kKernelWords; ++w) {
    out->true_bits[w] = 0;
    out->null_bits[w] = 0;
  }
  if (lane0 >= lane1) return;
  for (const auto& node : nodes_) node->Run(&ctx);

  uint64_t range[kKernelWords] = {0, 0, 0, 0};
  for (int l = lane0; l < lane1; ++l) kernel_internal::SetBit(range, l);
  const LaneBuf& r = ctx.bufs[root_];
  for (int w = ctx.w0; w < ctx.w1; ++w) {
    out->null_bits[w] = r.null_bits[w] & range[w];
    out->true_bits[w] = r.true_bits[w] & ~r.null_bits[w] & range[w];
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
