// SSE2 kernel variants. SSE2 is baseline on x86-64, so this TU needs no
// extra -m flags. Two __m128d registers emulate the canonical 4-lane
// accumulator layout (lanes 0-1 in A, 2-3 in B) so the reduction order is
// bit-identical to the scalar reference and the AVX2 variant.
#include "ts/kernels.h"

#if HUMDEX_SIMD_ENABLED && defined(__x86_64__)

#include <emmintrin.h>

#include "ts/kernels_detail.h"

namespace humdex {
namespace kernels {
namespace {

using detail::kInf;

inline double HSumPair(__m128d a, __m128d b) {
  // (l0+l2, l1+l3) then low + high: the canonical HSum4 order.
  __m128d s = _mm_add_pd(a, b);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

inline __m128d BoxExcess2(__m128d x, __m128d lo, __m128d hi) {
  __m128d du = _mm_sub_pd(x, hi);
  __m128d dl = _mm_sub_pd(lo, x);
  return _mm_max_pd(_mm_max_pd(du, dl), _mm_setzero_pd());
}

// Four box values as lanes 0-1 and 2-3.
struct Half2 {
  __m128d a, b;
};
inline Half2 Load4(const double* p) {
  return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
}
// Four floats in one load, each half widened to doubles in the register
// (exact), in the same lane order.
inline Half2 Load4(const float* p) {
  const __m128 f = _mm_loadu_ps(p);
  return {_mm_cvtps_pd(f), _mm_cvtps_pd(_mm_movehl_ps(f, f))};
}

template <class Box>
double SqDistToBoxSse2(const double* x, const Box* lo, const Box* hi,
                       std::size_t n, double abandon_at_sq) {
  __m128d acc_a = _mm_setzero_pd();
  __m128d acc_b = _mm_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  while (j < n4) {
    const std::size_t block_end =
        j + kAbandonBlock < n4 ? j + kAbandonBlock : n4;
    for (; j < block_end; j += 4) {
      const Half2 xv = Load4(x + j), lov = Load4(lo + j), hiv = Load4(hi + j);
      __m128d da = BoxExcess2(xv.a, lov.a, hiv.a);
      __m128d db = BoxExcess2(xv.b, lov.b, hiv.b);
      acc_a = _mm_add_pd(acc_a, _mm_mul_pd(da, da));
      acc_b = _mm_add_pd(acc_b, _mm_mul_pd(db, db));
    }
    double peek = HSumPair(acc_a, acc_b);
    if (peek > abandon_at_sq) return peek;
  }
  return detail::SqDistTail(x, lo, hi, j, n, HSumPair(acc_a, acc_b));
}

// One candidate (or block entry) per lane; SSE2 has no blendv, so the inf
// guard is a mask select.
struct Sse2Lanes {
  static constexpr std::size_t kLanes = 2;
  using Reg = __m128d;
  static Reg Load(const double* p) { return _mm_loadu_pd(p); }
  static void Store(double* p, Reg r) { _mm_storeu_pd(p, r); }
  static Reg Set1(double v) { return _mm_set1_pd(v); }
  static Reg Add(Reg a, Reg b) { return _mm_add_pd(a, b); }
  static Reg Sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
  static Reg Min(Reg a, Reg b) { return _mm_min_pd(a, b); }
  static Reg Max(Reg a, Reg b) { return _mm_max_pd(a, b); }
  static Reg AddUnlessInf(Reg c, Reg a) {
    const Reg inf = _mm_set1_pd(kInf);
    const Reg mask = _mm_cmpeq_pd(a, inf);
    return _mm_or_pd(_mm_and_pd(mask, inf),
                     _mm_andnot_pd(mask, _mm_add_pd(c, a)));
  }
  static unsigned GtMask(Reg a, Reg b) {
    return static_cast<unsigned>(_mm_movemask_pd(_mm_cmpgt_pd(a, b)));
  }
};

void DeltaDecodeSse2(const std::int64_t* m, std::size_t n, double v0,
                     double scale, double* out) {
  const __m128i magic_i = _mm_castpd_si128(_mm_set1_pd(detail::kI64Magic));
  const __m128d magic_d = _mm_set1_pd(detail::kI64Magic);
  const __m128d v0v = _mm_set1_pd(v0);
  const __m128d sv = _mm_set1_pd(scale);
  const std::size_t n2 = n & ~std::size_t{1};
  std::size_t j = 0;
  for (; j < n2; j += 2) {
    __m128i mi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + j));
    // Exact int64 -> double for |m| < 2^51 (encoder bounds |m| <= 2^50).
    __m128d md = _mm_sub_pd(_mm_castsi128_pd(_mm_add_epi64(mi, magic_i)),
                            magic_d);
    _mm_storeu_pd(out + j, _mm_add_pd(v0v, _mm_mul_pd(md, sv)));
  }
  detail::DeltaDecodeTail(m, j, n, v0, scale, out);
}

}  // namespace

extern const KernelTable kSse2Table;
const KernelTable kSse2Table = {
    SqDistToBoxSse2<double>,
    SqDistToBoxSse2<float>,
    detail::MindistSqBlock<Sse2Lanes>,
    detail::LdtwLanes<Sse2Lanes>,
    DeltaDecodeSse2,
    "sse2",
};

}  // namespace kernels
}  // namespace humdex

#endif  // HUMDEX_SIMD_ENABLED && __x86_64__
