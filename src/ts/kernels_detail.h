// Internal building blocks shared by the kernel variants (scalar, SSE2,
// AVX2). Everything here defines the CANONICAL arithmetic the SIMD variants
// must reproduce bit-for-bit:
//
//   - ScalarMax mirrors x86 maxpd operand semantics ((a > b) ? a : b, NaN
//     in the comparison selects b), so a vector max and the scalar reference
//     pick identical bit patterns (LdtwLanes' traits do the same for min);
//   - BoxExcess is the branchless clamp-excess max(x-hi, lo-x, 0) — the
//     branchless form is canonical so +-inf inputs behave identically in
//     every variant;
//   - HSum4 fixes the 4-lane reduction order (l0+l2)+(l1+l3);
//   - SqDistTail is the shared scalar epilogue of the box distance, over a
//     double box or a float box widened to double (exact);
//   - MindistSqBlock is the one block MINDIST implementation: entries of a
//     dimension-major block run one per lane, each lane summing its gaps in
//     the box distance's blocked order, instantiated per tier with that
//     tier's lane-vector traits;
//   - LdtwLanes is the one banded-LDTW implementation, instantiated per tier
//     with that tier's lane-vector traits (the scalar reference with one
//     double per "vector").
//
// Not a public header: include only from ts/kernels*.cc.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace humdex {
namespace kernels {
namespace detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// maxpd(a, b): (a > b) ? a : b; NaN comparisons select b.
inline double ScalarMax(double a, double b) { return a > b ? a : b; }

/// Clamp excess of x against [lo, hi], branchless canonical form.
inline double BoxExcess(double x, double lo, double hi) {
  return ScalarMax(ScalarMax(x - hi, lo - x), 0.0);
}

/// Canonical 4-lane reduction order.
inline double HSum4(const double acc[4]) {
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

/// Sequential tail of the box-distance reduction, elements [j, n). `Box` is
/// double or float; a float bound widens to double exactly.
template <class Box>
double SqDistTail(const double* x, const Box* lo, const Box* hi,
                  std::size_t j, std::size_t n, double s) {
  for (; j < n; ++j) {
    double d = BoxExcess(x[j], static_cast<double>(lo[j]),
                         static_cast<double>(hi[j]));
    s += d * d;
  }
  return s;
}

/// One double per "vector": the lane reference every SIMD lane reproduces,
/// and the ragged-tail lane of the block kernel in every tier.
struct ScalarLane {
  static constexpr std::size_t kLanes = 1;
  using Reg = double;
  static double Load(const double* p) { return *p; }
  static void Store(double* p, double v) { *p = v; }
  static double Set1(double v) { return v; }
  static double Add(double a, double b) { return a + b; }
  static double Sub(double a, double b) { return a - b; }
  static double Mul(double a, double b) { return a * b; }
  static double Min(double a, double b) { return a < b ? a : b; }
  static double Max(double a, double b) { return ScalarMax(a, b); }
  static double AddUnlessInf(double c, double a) {
    return a == kInf ? kInf : c + a;
  }
  static unsigned GtMask(double a, double b) { return a > b ? 1u : 0u; }
};

/// Block MINDIST over entries [i, count) in groups of V::kLanes, one entry
/// per lane (contract: kernels.h, MindistSqBlockFn). Returns the first entry
/// left over, fewer than V::kLanes before `count`. Each lane computes
///
///   g_d = max(max(lo_d - q_hi_d, q_lo_d - hi_d), 0)   (maxpd operand order)
///
/// and sums g_d^2 exactly as SqDistToBox sums a point's excesses: dimension
/// d into accumulator d % 4 over the leading multiple of 4, HSum4, then the
/// remaining dimensions in sequence. With lo == hi that is BoxExcess, so a
/// point's score is the box distance's bit for bit.
template <class V>
std::size_t MindistBlockGroups(const double* q_lo, const double* q_hi,
                               const double* lo, const double* hi,
                               std::size_t dims, std::size_t count,
                               std::size_t stride, double* out_sq,
                               std::size_t i) {
  using Reg = typename V::Reg;
  constexpr std::size_t L = V::kLanes;
  const std::size_t dims4 = dims & ~std::size_t{3};
  const Reg zero = V::Set1(0.0);
  auto gap_sq = [&](std::size_t d, std::size_t at) {
    const Reg g = V::Max(
        V::Max(V::Sub(V::Load(lo + d * stride + at), V::Set1(q_hi[d])),
               V::Sub(V::Set1(q_lo[d]), V::Load(hi + d * stride + at))),
        zero);
    return V::Mul(g, g);
  };
  for (; i + L <= count; i += L) {
    Reg acc[4] = {zero, zero, zero, zero};
    std::size_t d = 0;
    for (; d < dims4; d += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        acc[l] = V::Add(acc[l], gap_sq(d + l, i));
      }
    }
    Reg s = V::Add(V::Add(acc[0], acc[2]), V::Add(acc[1], acc[3]));
    for (; d < dims; ++d) s = V::Add(s, gap_sq(d, i));
    V::Store(out_sq + i, s);
  }
  return i;
}

/// The block kernel of a tier: full lane groups of V, then the ragged tail
/// one entry at a time through the scalar lane.
template <class V>
void MindistSqBlock(const double* q_lo, const double* q_hi, const double* lo,
                    const double* hi, std::size_t dims, std::size_t count,
                    std::size_t stride, double* out_sq) {
  std::size_t i =
      MindistBlockGroups<V>(q_lo, q_hi, lo, hi, dims, count, stride, out_sq, 0);
  MindistBlockGroups<ScalarLane>(q_lo, q_hi, lo, hi, dims, count, stride,
                                 out_sq, i);
}

/// Banded LDTW over lane groups (contract: kernels.h, LdtwLanesFn). `V` is a
/// lane-vector traits type providing
///
///   kLanes, Reg, Load(p), Store(p, r), Set1(v), Add, Sub, Mul,
///   Min(a, b)           per lane a < b ? a : b (minpd operand order),
///   AddUnlessInf(c, a)  per lane a == inf ? inf : c + a,
///   GtMask(a, b)        bit l set iff lane l has a > b (false on NaN).
///
/// Every lane evaluates the same per-cell recurrence as the one-lane scalar
/// instantiation, so each output is bit-identical to it:
///
///   c     = (x[i] - y[j])^2
///   t1    = min(prev[j-1], prev[j]) + c          (inf-propagating)
///   cur_j = min(cur[j-1] + c, t1)
///
/// The left term needs no inf guard: it only differs from a guarded sum when
/// c is NaN, and then the min selects t1 either way. Row 0 has no t1 and
/// keeps the guard. DP rows are indexed by absolute j, with one pad slot in
/// front.
template <class V>
void LdtwLanes(const double* x, std::size_t n, const double* const* ys,
               std::size_t m, std::size_t count, std::size_t k,
               double threshold_sq, double* scratch, double* out_sq) {
  using Reg = typename V::Reg;
  constexpr std::size_t L = V::kLanes;
  constexpr unsigned kAllDead = (1u << L) - 1;
  const std::size_t len_diff = n > m ? n - m : m - n;
  if (len_diff > k) {
    std::fill(out_sq, out_sq + count, kInf);
    return;
  }
  double* row_a = scratch;
  double* row_b = row_a + (m + 1) * L;
  double* yt = row_b + (m + 1) * L;  // yt[j * L + l] = candidate l's y[j]
  const Reg inf = V::Set1(kInf);
  const Reg thr = V::Set1(threshold_sq);
  for (std::size_t base = 0; base < count; base += L) {
    const std::size_t live = std::min(L, count - base);
    const double* src[L];
    for (std::size_t l = 0; l < L; ++l) src[l] = ys[base + (l < live ? l : 0)];
    // The lane-transposed rows are filled on demand, a few columns ahead of
    // the band, so a group whose lanes all abandon early transposes little.
    const double* y = src[0];
    std::size_t ready = 0;
    auto transpose_through = [&](std::size_t jhi) {
      if constexpr (L > 1) {
        if (jhi < ready) return;
        const std::size_t end = std::min(m, jhi + 8);
        for (; ready < end; ++ready) {
          for (std::size_t l = 0; l < L; ++l) yt[ready * L + l] = src[l][ready];
        }
        y = yt;
      }
    };
    double* prev = row_a + L;
    double* cur = row_b + L;
    // Each row writes infinity just outside both ends of its band, the pad
    // slot (index -1) included, so the next row's prev[j-1] and prev[j]
    // reads never see a stale or uninitialized cell.
    auto fence = [&](double* row, std::size_t jlo, std::size_t jhi) {
      V::Store(row + jlo * L - L, inf);
      if (jhi + 1 < m) V::Store(row + (jhi + 1) * L, inf);
    };
    unsigned dead = 0;
    {
      // Row 0: only the left-neighbour recurrence contributes.
      const Reg xi = V::Set1(x[0]);
      const std::size_t jhi = std::min(m - 1, k);
      transpose_through(jhi);
      fence(cur, 0, jhi);
      Reg d = V::Sub(xi, V::Load(y));
      Reg left = V::Mul(d, d);
      Reg row_min = left;
      V::Store(cur, left);
      for (std::size_t j = 1; j <= jhi; ++j) {
        d = V::Sub(xi, V::Load(y + j * L));
        left = V::AddUnlessInf(V::Mul(d, d), left);
        V::Store(cur + j * L, left);
        row_min = V::Min(left, row_min);
      }
      dead |= V::GtMask(row_min, thr);
      std::swap(prev, cur);
    }
    for (std::size_t i = 1; i < n && dead != kAllDead; ++i) {
      const std::size_t jlo = i > k ? i - k : 0;
      const std::size_t jhi = std::min(m - 1, i + k);
      transpose_through(jhi);
      fence(cur, jlo, jhi);
      const Reg xi = V::Set1(x[i]);
      Reg left = inf;
      Reg row_min = inf;
      for (std::size_t j = jlo; j <= jhi; ++j) {
        const Reg d = V::Sub(xi, V::Load(y + j * L));
        const Reg c = V::Mul(d, d);
        const Reg a =
            V::Min(V::Load(prev + j * L - L), V::Load(prev + j * L));
        left = V::Min(V::Add(c, left), V::AddUnlessInf(c, a));
        V::Store(cur + j * L, left);
        row_min = V::Min(left, row_min);
      }
      dead |= V::GtMask(row_min, thr);
      std::swap(prev, cur);
    }
    double last[L];
    V::Store(last, V::Load(prev + (m - 1) * L));
    for (std::size_t l = 0; l < live; ++l) {
      out_sq[base + l] = (dead >> l) & 1u ? kInf : last[l];
    }
  }
}

/// Two independent lane groups of V run as one: both dependency chains of
/// the row recurrence are in flight at once, hiding the add -> min latency.
template <class V>
struct LanePair {
  static constexpr std::size_t kLanes = 2 * V::kLanes;
  struct Reg {
    typename V::Reg lo, hi;
  };
  static Reg Load(const double* p) {
    return {V::Load(p), V::Load(p + V::kLanes)};
  }
  static void Store(double* p, Reg r) {
    V::Store(p, r.lo);
    V::Store(p + V::kLanes, r.hi);
  }
  static Reg Set1(double v) { return {V::Set1(v), V::Set1(v)}; }
  static Reg Add(Reg a, Reg b) { return {V::Add(a.lo, b.lo), V::Add(a.hi, b.hi)}; }
  static Reg Sub(Reg a, Reg b) { return {V::Sub(a.lo, b.lo), V::Sub(a.hi, b.hi)}; }
  static Reg Mul(Reg a, Reg b) { return {V::Mul(a.lo, b.lo), V::Mul(a.hi, b.hi)}; }
  static Reg Min(Reg a, Reg b) { return {V::Min(a.lo, b.lo), V::Min(a.hi, b.hi)}; }
  static Reg AddUnlessInf(Reg c, Reg a) {
    return {V::AddUnlessInf(c.lo, a.lo), V::AddUnlessInf(c.hi, a.hi)};
  }
  static unsigned GtMask(Reg a, Reg b) {
    return V::GtMask(a.lo, b.lo) | (V::GtMask(a.hi, b.hi) << V::kLanes);
  }
};

/// The SIMD variants' int64 -> double magic constant, 2^52 + 2^51: adding it
/// as an integer places |m| < 2^51 inside the double mantissa, so
/// reinterpreting and subtracting it back recovers (double)m exactly.
inline constexpr double kI64Magic = 6755399441055744.0;  // 0x4338000000000000

/// Elementwise tail of the delta-decode reconstruction, elements [j, n) —
/// the canonical per-element arithmetic every variant reproduces.
inline void DeltaDecodeTail(const std::int64_t* m, std::size_t j,
                            std::size_t n, double v0, double scale,
                            double* out) {
  for (; j < n; ++j) out[j] = v0 + static_cast<double>(m[j]) * scale;
}

}  // namespace detail
}  // namespace kernels
}  // namespace humdex
