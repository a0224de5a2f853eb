#ifndef SQLTS_EXPR_KERNEL_LANES_H_
#define SQLTS_EXPR_KERNEL_LANES_H_

#include <algorithm>
#include <cstdint>

namespace sqlts {
namespace kernel_lanes {

/// Lane-word helpers of the predicate kernels (expr/kernel.cc).  A
/// block's lanes are numbered 0..255 and its verdict bits live in four
/// 64-bit words, bit l of word l / 64 for lane l.  Loops over an active
/// lane range [lane0, lane1) walk it one word at a time and accumulate
/// that word's bits in a register.

/// First and one-past-last lane of [lane0, lane1) in word w.
inline int WordLo(int lane0, int w) { return std::max(lane0, w * 64); }
inline int WordHi(int lane1, int w) { return std::min(lane1, w * 64 + 64); }

/// Bits [lo, hi) of one word, 0 <= lo < hi <= 64.
inline uint64_t BitRange(int lo, int hi) {
  const uint64_t below_hi =
      hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return below_hi & (~uint64_t{0} << lo);
}

/// Three-way comparison of double lanes under num::CompareF64's total
/// order (-0 == +0; NaN equals NaN and sorts above every number).  For
/// each lane l in [lane0, lane1) the left side is a[l - lane0] and the
/// right side scale * b[l - lane0], or `scale` itself when b is null.
/// Bit l of lt (gt) is set when the left side is below (above) the
/// right; neither means equal.  Words lane0 / 64 .. (lane1 - 1) / 64 of
/// lt and gt are overwritten, with zero bits outside the lane range.
/// Branch-free: no lane's value decides a jump.
void CmpF64Portable(const double* a, const double* b, double scale,
                    int lane0, int lane1, uint64_t* lt, uint64_t* gt);

#if defined(__SSE2__)
/// CmpF64Portable two lanes per SSE2 compare and movemask (SSE2 is
/// part of the x86-64 baseline, so this needs no compiler flag).
void CmpF64Sse2(const double* a, const double* b, double scale, int lane0,
                int lane1, uint64_t* lt, uint64_t* gt);
#endif

/// The CmpF64 variant of this build: SSE2 where available.
inline void CmpF64(const double* a, const double* b, double scale,
                   int lane0, int lane1, uint64_t* lt, uint64_t* gt) {
#if defined(__SSE2__)
  CmpF64Sse2(a, b, scale, lane0, lane1, lt, gt);
#else
  CmpF64Portable(a, b, scale, lane0, lane1, lt, gt);
#endif
}

}  // namespace kernel_lanes
}  // namespace sqlts

#endif  // SQLTS_EXPR_KERNEL_LANES_H_
