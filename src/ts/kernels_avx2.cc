// AVX2 kernel variants (compiled with -mavx2 -mfma; see src/CMakeLists.txt).
// One __m256d register holds the canonical 4 accumulator lanes. FMA is part
// of the dispatch tier but deliberately unused in the reductions: contraction
// would break bit-equality with the scalar reference.
#include "ts/kernels.h"

#if HUMDEX_SIMD_ENABLED && defined(__x86_64__)

#include <immintrin.h>

#include "ts/kernels_detail.h"

namespace humdex {
namespace kernels {
namespace {

using detail::kInf;

inline double HSum256(__m256d acc) {
  // (l0+l2, l1+l3) then low + high: the canonical HSum4 order.
  __m128d s =
      _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

inline __m256d BoxExcess4(__m256d x, __m256d lo, __m256d hi) {
  __m256d du = _mm256_sub_pd(x, hi);
  __m256d dl = _mm256_sub_pd(lo, x);
  return _mm256_max_pd(_mm256_max_pd(du, dl), _mm256_setzero_pd());
}

inline __m256d Load4(const double* p) { return _mm256_loadu_pd(p); }
// Four floats widened to doubles in the register (exact).
inline __m256d Load4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

template <class Box>
double SqDistToBoxAvx2(const double* x, const Box* lo, const Box* hi,
                       std::size_t n, double abandon_at_sq) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  while (j < n4) {
    const std::size_t block_end =
        j + kAbandonBlock < n4 ? j + kAbandonBlock : n4;
    for (; j < block_end; j += 4) {
      __m256d d = BoxExcess4(Load4(x + j), Load4(lo + j), Load4(hi + j));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    double peek = HSum256(acc);
    if (peek > abandon_at_sq) return peek;
  }
  return detail::SqDistTail(x, lo, hi, j, n, HSum256(acc));
}

// One candidate (or block entry) per lane. No FMA: the lane recurrence must
// round like the scalar reference. The LDTW entry runs two of these groups
// interleaved (LanePair, 8 candidates), which hides the add -> min latency
// of the row chain: one 4-lane chain took 1.13x as long on the serving path
// (DESIGN.md §10).
struct Avx2Lanes {
  static constexpr std::size_t kLanes = 4;
  using Reg = __m256d;
  static Reg Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Reg r) { _mm256_storeu_pd(p, r); }
  static Reg Set1(double v) { return _mm256_set1_pd(v); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg Sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg Min(Reg a, Reg b) { return _mm256_min_pd(a, b); }
  static Reg Max(Reg a, Reg b) { return _mm256_max_pd(a, b); }
  static Reg AddUnlessInf(Reg c, Reg a) {
    const Reg inf = _mm256_set1_pd(kInf);
    return _mm256_blendv_pd(_mm256_add_pd(c, a), inf,
                            _mm256_cmp_pd(a, inf, _CMP_EQ_OQ));
  }
  static unsigned GtMask(Reg a, Reg b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ)));
  }
};

void DeltaDecodeAvx2(const std::int64_t* m, std::size_t n, double v0,
                     double scale, double* out) {
  const __m256i magic_i = _mm256_castpd_si256(_mm256_set1_pd(detail::kI64Magic));
  const __m256d magic_d = _mm256_set1_pd(detail::kI64Magic);
  const __m256d v0v = _mm256_set1_pd(v0);
  const __m256d sv = _mm256_set1_pd(scale);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    __m256i mi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + j));
    // Exact int64 -> double for |m| < 2^51 (encoder bounds |m| <= 2^50).
    // mul + add, not FMA: this TU is -ffp-contract=off and the scalar
    // reference rounds the product, so the pairing must too.
    __m256d md = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(mi, magic_i)),
                               magic_d);
    _mm256_storeu_pd(out + j, _mm256_add_pd(v0v, _mm256_mul_pd(md, sv)));
  }
  detail::DeltaDecodeTail(m, j, n, v0, scale, out);
}

}  // namespace

extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    SqDistToBoxAvx2<double>,
    SqDistToBoxAvx2<float>,
    detail::MindistSqBlock<Avx2Lanes>,
    detail::LdtwLanes<detail::LanePair<Avx2Lanes>>,
    DeltaDecodeAvx2,
    "avx2",
};

}  // namespace kernels
}  // namespace humdex

#endif  // HUMDEX_SIMD_ENABLED && __x86_64__
