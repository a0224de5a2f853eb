#ifndef SQLTS_EXPR_KERNEL_H_
#define SQLTS_EXPR_KERNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "expr/expr.h"
#include "storage/sequence.h"
#include "types/schema.h"

namespace sqlts {

/// ---------------------------------------------------------------------
/// Vectorized predicate kernels (ROADMAP item 1).
///
/// The interpreter in expr/eval.cc walks a shared_ptr expression tree
/// and boxes every intermediate in a Value variant — per tuple, per
/// test.  A PredicateKernel compiles one tuple-local conjunct once,
/// into a tree of type-specialized batch nodes that evaluate a whole
/// block of kKernelBlock consecutive sequence positions in tight
/// per-column loops over raw int64/double arrays, producing a 3VL
/// (Kleene) verdict bitmask.
///
/// The kernel tier is answer-preserving: for every position p,
/// EvalBlock's verdict is exactly the 3VL truth value EvalExpr would
/// produce (TRUE / FALSE / NULL; non-boolean results count as NULL,
/// which is indistinguishable at the predicate level — see
/// docs/VECTORIZED.md).  Both tiers share the scalar semantics in
/// types/numeric_ops.h (checked int64 arithmetic, exact int64↔double
/// comparison, NaN total order), so they agree by construction; the
/// differential fuzzer enforces it.
///
/// Compile() returns nullptr for expression shapes the vectorized tier
/// does not handle — anchored (span-dependent) references, aggregates,
/// strings — and callers fall back to the interpreter.  Compiled
/// kernels only ever see *relative* column references, so a verdict at
/// position p depends solely on the cells at p + offset for the
/// kernel's offsets — never on match state.
/// ---------------------------------------------------------------------

/// Lanes evaluated per block, and the words of a block bitmask.
inline constexpr int kKernelBlock = 256;
inline constexpr int kKernelWords = kKernelBlock / 64;

/// 3VL verdict bitmask for one block.  For each lane l in the
/// evaluated range: true_bits set => TRUE; null_bits set => NULL (or a
/// non-boolean value, equally "not satisfied"); neither => FALSE.  The
/// two are mutually exclusive; bits outside the evaluated lane range
/// are zero.
struct BlockVerdict {
  uint64_t true_bits[kKernelWords];
  uint64_t null_bits[kKernelWords];

  bool True(int lane) const {
    return (true_bits[lane >> 6] >> (lane & 63)) & 1;
  }
  bool Null(int lane) const {
    return (null_bits[lane >> 6] >> (lane & 63)) & 1;
  }
};

/// 3VL verdict mask for an arbitrary-length run of positions (test and
/// bench convenience; the engine hot path uses BlockVerdict directly).
struct TriMask {
  int64_t size = 0;
  std::vector<uint64_t> true_bits;
  std::vector<uint64_t> null_bits;

  void Resize(int64_t n);
  bool True(int64_t i) const {
    return (true_bits[i >> 6] >> (i & 63)) & 1;
  }
  bool Null(int64_t i) const {
    return (null_bits[i >> 6] >> (i & 63)) & 1;
  }
};

namespace kernel_internal {
struct Node;

/// Per-node lane buffers: numeric nodes fill i64/f64 lanes with a
/// validity mask; boolean nodes fill true/null masks only.
struct LaneBuf {
  int64_t i64[kKernelBlock];
  double f64[kKernelBlock];
  uint64_t null_bits[kKernelWords];
  uint64_t true_bits[kKernelWords];
};
}  // namespace kernel_internal

/// Reusable per-caller scratch (lane buffers for every node of a
/// kernel).  Kernels themselves are immutable and safe to share across
/// threads; each concurrent caller brings its own scratch.
class KernelScratch {
 public:
  kernel_internal::LaneBuf* Prepare(int num_bufs);

 private:
  std::vector<kernel_internal::LaneBuf> bufs_;
};

class PredicateKernel {
 public:
  /// Compiles `expr` (a tuple-local predicate over `schema`) into a
  /// vectorized kernel.  Constant subtrees are folded at compile time
  /// (via the interpreter, so folding cannot diverge), and
  /// column-vs-literal / column-vs-column / column-vs-scaled-column
  /// comparisons use fused single-loop fast paths.  Returns nullptr
  /// when any part of the expression is outside the vectorized subset.
  static std::unique_ptr<PredicateKernel> Compile(const ExprPtr& expr,
                                                  const Schema& schema);

  ~PredicateKernel();
  PredicateKernel(const PredicateKernel&) = delete;
  PredicateKernel& operator=(const PredicateKernel&) = delete;

  /// Evaluates the predicate at sequence positions pos0 + l for every
  /// lane l in [lane0, lane1), writing verdict bits l of `out` (all
  /// other bits zero).  lane1 <= kKernelBlock.  Positions whose
  /// referenced cells fall outside the view read as NULL, exactly like
  /// the interpreter's out-of-range navigation.
  void EvalBlock(const SequenceView& seq, int64_t pos0, int lane0, int lane1,
                 KernelScratch* scratch, BlockVerdict* out) const;

  /// Convenience: evaluates positions [start, start + n) into `out`
  /// (resized), looping blocks internally.
  void Eval(const SequenceView& seq, int64_t start, int64_t n,
            KernelScratch* scratch, TriMask* out) const;

  /// Most negative / most positive relative cell offset the predicate
  /// reads (0 when it reads none, e.g. a folded constant).
  int min_offset() const { return min_offset_; }
  int max_offset() const { return max_offset_; }

 private:
  PredicateKernel() = default;

  std::vector<std::unique_ptr<kernel_internal::Node>> nodes_;  // post-order
  int root_ = -1;
  int min_offset_ = 0;
  int max_offset_ = 0;

  friend struct KernelBuilder;
};

}  // namespace sqlts

#endif  // SQLTS_EXPR_KERNEL_H_
