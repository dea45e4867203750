// Runtime-dispatched SIMD kernels for the hot loops of the query cascade
// (see DESIGN.md §10):
//
//   1. early-abandoning squared distance-to-envelope — the LB_Keogh /
//      LB_Improved inner loop (ts/envelope.h, ts/lower_bound.h) — over a
//      double box, and over the candidate arena's outward-rounded float
//      envelope rows, widened to double in registers;
//   2. squared MINDIST from every entry of a dimension-major block (an
//      R*-tree node, a linear-scan page) to a query rectangle — the
//      feature-index candidate test, one entry per SIMD lane. For a point
//      entry it equals (1)'s sum bit for bit;
//   3. lane-parallel banded LDTW — exact verification of several candidates
//      against one query, one candidate per SIMD lane (ts/dtw.cc,
//      gemini/query_engine.cc);
//   4. the delta+bitpack codec's value reconstruction (ts/codec.h).
//
// Variants (scalar / SSE2 / AVX2+FMA) are selected once at startup via
// util/cpu.h. Every variant is BIT-IDENTICAL to the scalar reference on the
// same inputs: reductions use a fixed 4-lane blocked summation order
// (mirrored exactly by the scalar reference), element-wise operations avoid
// reassociation and FMA contraction, and min/max use x86 minpd/maxpd operand
// semantics. The LDTW kernel needs no reduction order at all: each lane runs
// the scalar recurrence on its own candidate. The cascade layers a relative
// threshold slack on top, so even the blocked-vs-sequential ulp difference
// against pre-kernel code can never produce a false dismissal
// (query_engine.cc).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace humdex {
namespace kernels {

/// Alignment (bytes) the candidate arena guarantees for its rows. Kernels
/// use unaligned loads, so this is a performance contract, not a safety one.
inline constexpr std::size_t kAlignment = 32;

/// Early-abandon checkpoint cadence (elements) of the reduction kernels.
inline constexpr std::size_t kAbandonBlock = 32;

/// Squared distance from x to the box [lo, hi], sum over i of
/// max(x[i]-hi[i], lo[i]-x[i], 0)^2, with early abandoning: every
/// kAbandonBlock elements the partial sum is tested against `abandon_at_sq`
/// and returned as soon as it exceeds it. The return value is the exact full
/// sum when it never tripped a checkpoint, otherwise a partial sum that is
/// both > abandon_at_sq and a valid lower bound of the full sum. Callers
/// must treat any return > threshold as "pruned" and anything else as the
/// full sum. Pass +infinity to disable abandoning.
using SqDistToBoxFn = double (*)(const double* x, const double* lo,
                                 const double* hi, std::size_t n,
                                 double abandon_at_sq);

/// SqDistToBoxFn over a float box: lo and hi are widened to double (exact)
/// and the sum is the double kernel's, in the same order, so it equals
/// sq_dist_to_box over the widened rows bit for bit in every variant.
using SqDistToFboxFn = double (*)(const double* x, const float* lo,
                                  const float* hi, std::size_t n,
                                  double abandon_at_sq);

/// Squared MINDIST from each of `count` entries of a dimension-major block
/// to the query rectangle [q_lo, q_hi] of `dims` dimensions. Entry i spans
/// [lo[d * stride + i], hi[d * stride + i]] in dimension d; a block of
/// points passes the same rows as lo and hi. out_sq[i] receives
///
///   sum over d of max(lo_d - q_hi_d, q_lo_d - hi_d, 0)^2
///
/// summed in SqDistToBoxFn's blocked order (dimension d into accumulator
/// d % 4, HSum4, then the tail in sequence), so for a point it equals
/// sq_dist_to_box(point, q_lo, q_hi, dims, +inf) bit for bit, and every
/// variant equals the scalar reference. One order for points and
/// rectangles also makes a parent entry's score <= each child's: a gap can
/// only shrink as the box grows, and rounded sums and squares are monotone.
/// No early abandoning; entries are vectorized across lanes, not dims.
using MindistSqBlockFn = void (*)(const double* q_lo, const double* q_hi,
                                  const double* lo, const double* hi,
                                  std::size_t dims, std::size_t count,
                                  std::size_t stride, double* out_sq);

/// Widest lane group any LDTW variant runs (two interleaved 4-lane AVX2
/// chains); sizes the caller's scratch.
inline constexpr std::size_t kMaxLdtwLanes = 8;

/// Doubles of scratch an LdtwLanesFn call needs for candidates of length m:
/// the lane-transposed candidate rows plus two padded DP rows per lane.
inline constexpr std::size_t LdtwScratchDoubles(std::size_t m) {
  return kMaxLdtwLanes * (3 * m + 2);
}

/// Squared k-local DTW (ts/dtw.h) of one query x[0, n) against `count`
/// candidates ys[c][0, m), with early abandoning: out_sq[c] is the exact
/// squared distance, or +infinity when no path fits the band (|n - m| > k)
/// or some DP row's minimum exceeded `threshold_sq` (pass +infinity to
/// disable abandoning). `scratch` holds LdtwScratchDoubles(m) doubles.
///
/// The SIMD variants run one candidate per lane: the candidate rows are
/// transposed into scratch, x[i] is broadcast, and each lane evaluates
/// exactly the scalar reference's recurrence, so every output is
/// bit-identical to the scalar reference by construction. A lane group stops
/// once every lane has abandoned; a ragged last group pads its spare lanes
/// with a copy of a live candidate and discards their results.
using LdtwLanesFn = void (*)(const double* x, std::size_t n,
                             const double* const* ys, std::size_t m,
                             std::size_t count, std::size_t k,
                             double threshold_sq, double* scratch,
                             double* out_sq);

/// Value reconstruction pass of the delta+bitpack series codec (ts/codec.h):
///   out[i] = v0 + static_cast<double>(m[i]) * scale    for i in [0, n)
/// where m[i] is the exact integer prefix sum of the decoded deltas. Exact
/// and variant-independent by construction: the encoder bounds |m[i]| <=
/// 2^50 so the int64 -> double conversion is exact in every variant
/// (including the SIMD magic-number form), `scale` is a power of two (exact
/// multiply), and each output therefore involves exactly one rounded
/// addition — the same in scalar, SSE2, and AVX2.
using DeltaDecodeFn = void (*)(const std::int64_t* m, std::size_t n, double v0,
                               double scale, double* out);

/// One dispatchable implementation set.
struct KernelTable {
  SqDistToBoxFn sq_dist_to_box;
  SqDistToFboxFn sq_dist_to_fbox;
  MindistSqBlockFn mindist_sq_block;
  LdtwLanesFn ldtw_lanes;
  DeltaDecodeFn delta_decode;
  const char* name;
};

/// The portable scalar reference (always available).
const KernelTable& ScalarKernels();

/// Table for a tier, or nullptr when this binary/CPU cannot run it.
const KernelTable* KernelTableFor(SimdLevel level);

/// The table selected at startup (highest supported tier, demoted to scalar
/// by HUMDEX_FORCE_SCALAR — see util/cpu.h). A single relaxed atomic read.
const KernelTable& ActiveKernels();

/// Test hook: override the active table for the lifetime of this object
/// (e.g. force the scalar reference to A/B a whole query). Install and
/// destroy only while no other thread is mid-query.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(SimdLevel level);
  ~ScopedKernelOverride();
  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const KernelTable* prev_;
};

}  // namespace kernels
}  // namespace humdex
