#include "ts/envelope.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {
namespace {
constexpr double kInfiniteAbandon = std::numeric_limits<double>::infinity();
}  // namespace

bool Envelope::Contains(const Series& x, double eps) const {
  if (x.size() != lower.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lower[i] - eps || x[i] > upper[i] + eps) return false;
  }
  return true;
}

namespace {

// maxpd/minpd operand order with the newer value second: on a tie (-0.0
// against +0.0 included) the newer value wins.
inline double NewerMax(double older, double newer) {
  return older > newer ? older : newer;
}
inline double NewerMin(double older, double newer) {
  return older < newer ? older : newer;
}

}  // namespace

// van Herk / Gil-Werman: cut x into blocks of w = 2k + 1 elements and keep,
// per element, the running extrema from its block's start (pre_*) and to
// its block's end (suf_*). A full window [i - k, i + k] then spans the tail
// of one block and the head of the next, so its extremum is one combine of
// suf[i - k] and pre[i + k]. Every branch depends on positions only.
void BuildEnvelopeInto(const double* x, std::size_t n, std::size_t k,
                       double* lower, double* upper, double* scratch) {
  if (n == 0) return;
  k = std::min(k, n - 1);  // a wider radius clamps to the same windows
  const std::size_t w = 2 * k + 1;
  double* pre_hi = scratch;
  double* pre_lo = scratch + n;
  double* suf_hi = scratch + 2 * n;
  double* suf_lo = scratch + 3 * n;
  for (std::size_t b = 0; b < n; b += w) {
    const std::size_t e = std::min(b + w, n);  // the last block ends at n
    // The prefix runs forward and the suffix backward in one loop: four
    // independent dependency chains in flight, each held in a register so
    // no chain waits on a store it may alias.
    double ph = x[b], pl = x[b], sh = x[e - 1], sl = x[e - 1];
    pre_hi[b] = ph;
    pre_lo[b] = pl;
    suf_hi[e - 1] = sh;
    suf_lo[e - 1] = sl;
    for (std::size_t j = b + 1, r = e - 2; j < e; ++j, --r) {
      const double xj = x[j], xr = x[r];
      ph = NewerMax(ph, xj);
      pl = NewerMin(pl, xj);
      sh = NewerMax(xr, sh);
      sl = NewerMin(xr, sl);
      pre_hi[j] = ph;
      pre_lo[j] = pl;
      suf_hi[r] = sh;
      suf_lo[r] = sl;
    }
  }
  // Left-clamped windows [0, min(i + k, n - 1)], i < k: prefixes of block 0
  // (i + k < w).
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t b = std::min(i + k, n - 1);
    upper[i] = pre_hi[b];
    lower[i] = pre_lo[b];
  }
  // Full windows. When i - k starts a block, both terms cover that one
  // block and the prefix — the newer operand — wins, as it should.
  for (std::size_t i = k; i + k < n; ++i) {
    upper[i] = NewerMax(suf_hi[i - k], pre_hi[i + k]);
    lower[i] = NewerMin(suf_lo[i - k], pre_lo[i + k]);
  }
  // Right-clamped windows [i - k, n - 1]: the suffix of i - k's block, plus
  // the head of the last block when that is a different one.
  const std::size_t last_block = (n - 1) / w;
  for (std::size_t i = std::max(k, n - k); i < n; ++i) {
    const std::size_t a = i - k;
    if (a / w == last_block) {
      upper[i] = suf_hi[a];
      lower[i] = suf_lo[a];
    } else {
      upper[i] = NewerMax(suf_hi[a], pre_hi[n - 1]);
      lower[i] = NewerMin(suf_lo[a], pre_lo[n - 1]);
    }
  }
}

namespace {

// Four lanes per operation through GCC/Clang vector extensions: SSE2 on
// x86-64, NEON on ARM, scalar code elsewhere.
using F4 = float __attribute__((vector_size(16)));
using F2 = float __attribute__((vector_size(8)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using D2 = double __attribute__((vector_size(16)));
using L2 = std::int64_t __attribute__((vector_size(16)));

inline F4 Load(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void Store(float* p, F4 v) { std::memcpy(p, &v, sizeof v); }

// FloatAtOrBelow (kBelow) or FloatAtOrAbove of p[0, 4), bit for bit: a
// lane steps one float outward where the nearest float landed on the wrong
// side of its double, by bits -/+ (2 * sign + 1) for sign in {0, -1}.
// Doubles go two to a vector, the width every x86-64 CPU compares natively.
template <bool kBelow>
F4 RoundOutward4(const double* p) {
  D2 v0, v1;
  std::memcpy(&v0, p, sizeof v0);
  std::memcpy(&v1, p + 2, sizeof v1);
  const F4 f = __builtin_shufflevector(__builtin_convertvector(v0, F2),
                                       __builtin_convertvector(v1, F2), 0, 1,
                                       2, 3);
  const D2 b0 = __builtin_convertvector(
      __builtin_shufflevector(f, f, 0, 1), D2);
  const D2 b1 = __builtin_convertvector(
      __builtin_shufflevector(f, f, 2, 3), D2);
  const L2 w0 = kBelow ? b0 > v0 : b0 < v0;
  const L2 w1 = kBelow ? b1 > v1 : b1 < v1;
  // The low halves of the 64-bit lane masks (each all ones or all zeros).
  const I4 mask = __builtin_shufflevector(std::bit_cast<I4>(w0),
                                          std::bit_cast<I4>(w1), 0, 2, 4, 6);
  const I4 bits = std::bit_cast<I4>(f);
  const I4 step = mask & ((bits >> 31) * 2 + 1);
  const I4 out = kBelow ? bits - step : bits + step;
  return std::bit_cast<F4>(out);
}

// The same operand order as NewerMin/NewerMax: on a tie the newer wins.
inline F4 NewerMin4(F4 older, F4 newer) {
  return older < newer ? older : newer;
}
inline F4 NewerMax4(F4 older, F4 newer) {
  return older > newer ? older : newer;
}
inline float NewerMinF(float older, float newer) {
  return older < newer ? older : newer;
}
inline float NewerMaxF(float older, float newer) {
  return older > newer ? older : newer;
}

}  // namespace

void BuildFloatEnvelopeInto(const double* x, std::size_t n, std::size_t k,
                            float* lo, float* hi, float* scratch) {
  if (n == 0) return;
  k = std::min(k, n - 1);
  const std::size_t w = 2 * k + 1;
  const std::size_t m = n + 2 * k;  // a window per i: padded [i, i + w)
  // Rows of m values and 8 of slack, so whole 4-lane blocks past a pass's
  // last valid start stay inside the row (they compute unused values).
  const std::size_t len = m + 8;
  float* rlo = scratch;
  float* rhi = scratch + len;
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  std::fill(rlo, rlo + len, kInfF);
  std::fill(rhi, rhi + len, -kInfF);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    Store(rlo + k + j, RoundOutward4<true>(x + j));
    Store(rhi + k + j, RoundOutward4<false>(x + j));
  }
  for (; j < n; ++j) {
    rlo[k + j] = FloatAtOrBelow(x[j]);
    rhi[k + j] = FloatAtOrAbove(x[j]);
  }
  // Doubling, in place and ascending (a block loads both operands before
  // it stores): after the pass for p, r[i] is the extremum of the padded
  // range [i, i + 2p), valid for i < m - 2p + 1.
  std::size_t p = 1;
  for (; 2 * p <= w; p *= 2) {
    const std::size_t valid = m - 2 * p + 1;
    for (std::size_t i = 0; i < valid; i += 4) {
      Store(rlo + i, NewerMin4(Load(rlo + i), Load(rlo + i + p)));
      Store(rhi + i, NewerMax4(Load(rhi + i), Load(rhi + i + p)));
    }
  }
  // [i, i + p) and [i + w - p, i + w) cover the window (w < 2p); the
  // second range is the newer one.
  const std::size_t d = w - p;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Store(lo + i, NewerMin4(Load(rlo + i), Load(rlo + i + d)));
    Store(hi + i, NewerMax4(Load(rhi + i), Load(rhi + i + d)));
  }
  for (; i < n; ++i) {
    lo[i] = NewerMinF(rlo[i], rlo[i + d]);
    hi[i] = NewerMaxF(rhi[i], rhi[i + d]);
  }
}

Envelope BuildEnvelope(const Series& x, std::size_t k) {
  HUMDEX_CHECK(!x.empty());
  const std::size_t n = x.size();
  Envelope e;
  e.lower.resize(n);
  e.upper.resize(n);
  std::vector<double> scratch(EnvelopeScratchDoubles(n));
  BuildEnvelopeInto(x.data(), n, k, e.lower.data(), e.upper.data(),
                    scratch.data());
  return e;
}

double SquaredDistanceToEnvelope(const Series& x, const Envelope& e,
                                 double abandon_at_sq) {
  HUMDEX_CHECK(x.size() == e.lower.size());
  return kernels::ActiveKernels().sq_dist_to_box(
      x.data(), e.lower.data(), e.upper.data(), x.size(), abandon_at_sq);
}

double SquaredDistanceToEnvelope(const Series& x, const Envelope& e) {
  return SquaredDistanceToEnvelope(x, e, kInfiniteAbandon);
}

double DistanceToEnvelope(const Series& x, const Envelope& e) {
  return std::sqrt(SquaredDistanceToEnvelope(x, e));
}

double DistanceToEnvelope(const Series& x, const Envelope& e,
                          double abandon_at) {
  return std::sqrt(
      SquaredDistanceToEnvelope(x, e, abandon_at * abandon_at));
}

}  // namespace humdex
