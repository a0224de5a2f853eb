#include "expr/kernel_lanes.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sqlts {
namespace kernel_lanes {
namespace {

/// One lane of CmpF64: NaN is above every number and equal to NaN;
/// numbers compare in IEEE order (-0 == +0).
inline void CmpLane(double x, double m, int bit, uint64_t* lt,
                    uint64_t* gt) {
  const bool xn = std::isnan(x), mn = std::isnan(m);
  *lt |= static_cast<uint64_t>((x < m) | (!xn & mn)) << bit;
  *gt |= static_cast<uint64_t>((x > m) | (xn & !mn)) << bit;
}

template <bool kScalarRhs>
void Portable(const double* a, const double* b, double scale, int lane0,
              int lane1, uint64_t* lt, uint64_t* gt) {
  for (int w = lane0 >> 6; w < (lane1 + 63) >> 6; ++w) {
    const int hi = WordHi(lane1, w);
    uint64_t l = 0, g = 0;
    for (int i = WordLo(lane0, w); i < hi; ++i) {
      const double m = kScalarRhs ? scale : scale * b[i - lane0];
      CmpLane(a[i - lane0], m, i & 63, &l, &g);
    }
    lt[w] = l;
    gt[w] = g;
  }
}

#if defined(__SSE2__)
template <bool kScalarRhs>
void Sse2(const double* a, const double* b, double scale, int lane0,
          int lane1, uint64_t* lt, uint64_t* gt) {
  const __m128d vs = _mm_set1_pd(scale);
  for (int w = lane0 >> 6; w < (lane1 + 63) >> 6; ++w) {
    const int hi = WordHi(lane1, w);
    uint64_t l = 0, g = 0;
    int i = WordLo(lane0, w);
    // A pair never straddles a word: both lanes are below hi.
    for (; i + 2 <= hi; i += 2) {
      const __m128d x = _mm_loadu_pd(a + (i - lane0));
      const __m128d m =
          kScalarRhs ? vs : _mm_mul_pd(vs, _mm_loadu_pd(b + (i - lane0)));
      const __m128d xn = _mm_cmpunord_pd(x, x);
      const __m128d mn = _mm_cmpunord_pd(m, m);
      const __m128d below =
          _mm_or_pd(_mm_cmplt_pd(x, m), _mm_andnot_pd(xn, mn));
      const __m128d above =
          _mm_or_pd(_mm_cmpgt_pd(x, m), _mm_andnot_pd(mn, xn));
      l |= static_cast<uint64_t>(_mm_movemask_pd(below)) << (i & 63);
      g |= static_cast<uint64_t>(_mm_movemask_pd(above)) << (i & 63);
    }
    if (i < hi) {
      CmpLane(a[i - lane0], kScalarRhs ? scale : scale * b[i - lane0],
              i & 63, &l, &g);
    }
    lt[w] = l;
    gt[w] = g;
  }
}
#endif

}  // namespace

void CmpF64Portable(const double* a, const double* b, double scale,
                    int lane0, int lane1, uint64_t* lt, uint64_t* gt) {
  if (b == nullptr) {
    Portable<true>(a, b, scale, lane0, lane1, lt, gt);
  } else {
    Portable<false>(a, b, scale, lane0, lane1, lt, gt);
  }
}

#if defined(__SSE2__)
void CmpF64Sse2(const double* a, const double* b, double scale, int lane0,
                int lane1, uint64_t* lt, uint64_t* gt) {
  if (b == nullptr) {
    Sse2<true>(a, b, scale, lane0, lane1, lt, gt);
  } else {
    Sse2<false>(a, b, scale, lane0, lane1, lt, gt);
  }
}
#endif

}  // namespace kernel_lanes
}  // namespace sqlts
