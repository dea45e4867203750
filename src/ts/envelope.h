// k-Envelopes (paper Definition 6) and the series-to-envelope distance
// (Definition 7), which is Keogh's LB for banded DTW (Lemma 2).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "ts/time_series.h"

namespace humdex {

/// Upper/lower running-extremum envelope of a series. Invariant:
/// lower[i] <= upper[i] for all i, and a series is "inside" its own envelope.
struct Envelope {
  Series lower;
  Series upper;

  std::size_t size() const { return lower.size(); }

  /// True iff lower[i] <= x[i] <= upper[i] for all i (within +/- eps).
  bool Contains(const Series& x, double eps = 1e-12) const;
};

/// Build the k-envelope (Definition 6):
///   upper[i] = max_{|j| <= k} x[i+j],  lower[i] = min_{|j| <= k} x[i+j],
/// with window indices clamped to [0, n). Runs in O(n) with van Herk /
/// Gil-Werman block prefix and suffix extrema, so large k costs the same as
/// small k.
Envelope BuildEnvelope(const Series& x, std::size_t k);

/// Doubles of scratch BuildEnvelopeInto needs for a series of length n.
inline constexpr std::size_t EnvelopeScratchDoubles(std::size_t n) {
  return 4 * n;
}

/// BuildEnvelope over caller storage, for allocation-free hot loops: writes
/// the k-envelope of x[0, n) to lower[0, n) and upper[0, n), using
/// `scratch` (EnvelopeScratchDoubles(n) doubles) for the block extrema.
/// Free of data-dependent branches. Ties resolve to the newest equal value
/// in the window, so -0.0 and +0.0 come out with the sign of the latest
/// equal element.
void BuildEnvelopeInto(const double* x, std::size_t n, std::size_t k,
                       double* lower, double* upper, double* scratch);

/// The largest float <= v: the lower side of an outward rounding, so a
/// float box [FloatAtOrBelow(lo), FloatAtOrAbove(hi)] contains the double
/// box [lo, hi]. Below -FLT_MAX the result is -inf, above it FLT_MAX; a
/// signed zero keeps its sign, and a negative value that rounds to -0
/// becomes -2^-149, the negative float denormal nearest zero. NaN stays
/// NaN. Branch-free.
inline float FloatAtOrBelow(double v) {
  const float f = static_cast<float>(v);
  // When the nearest float lies above v, step one float toward -inf: the
  // magnitude grows for a negative f and shrinks for a positive one. A +0
  // never needs the step (a negative v rounds to -0), and -0 steps to the
  // negative denormal.
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t step = static_cast<double>(f) > v;
  return std::bit_cast<float>(bits + step * (2 * (bits >> 31) - 1));
}

/// The smallest float >= v; the mirror image of FloatAtOrBelow.
inline float FloatAtOrAbove(double v) {
  const float f = static_cast<float>(v);
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t step = static_cast<double>(f) < v;
  return std::bit_cast<float>(bits + step * (1 - 2 * (bits >> 31)));
}

/// Floats of scratch BuildFloatEnvelopeInto needs for a series of length n.
inline constexpr std::size_t FloatEnvelopeScratchFloats(std::size_t n) {
  return 6 * n + 16;
}

/// The k-envelope of x[0, n) rounded outward into float rows, as the
/// candidate arena stores it: lo[i] and hi[i] equal, as values,
/// FloatAtOrBelow(lower[i]) and FloatAtOrAbove(upper[i]) of
/// BuildEnvelope(x, k). Each x[j] is rounded first; FloatAtOrBelow and
/// FloatAtOrAbove are monotone, so the extremum of the rounded values is the
/// rounded extremum. The window extrema then come from doubling passes
/// (ranges of 1, 2, 4, ... values, the last two overlapping), four lanes per
/// operation, over rows padded with k infinities on each side. Ties resolve
/// to the newest equal float; that gives a zero the other sign than
/// rounding BuildEnvelope's row would only where x holds a nonzero value of
/// magnitude below 2^-149. Uses `scratch` (FloatEnvelopeScratchFloats(n)
/// floats). Free of data-dependent branches.
void BuildFloatEnvelopeInto(const double* x, std::size_t n, std::size_t k,
                            float* lo, float* hi, float* scratch);

/// Distance between a series and an envelope (Definition 7):
///   min over all z inside e of D(x, z)
/// which evaluates pointwise to the clamp distance. Lengths must match.
/// Computed by the dispatched SIMD kernel (ts/kernels.h).
double DistanceToEnvelope(const Series& x, const Envelope& e);

/// Early-abandoning DistanceToEnvelope: once the running squared sum exceeds
/// abandon_at^2 at a kernel checkpoint, a partial distance > abandon_at is
/// returned without touching the rest of the series. Any return > abandon_at
/// means "the true distance exceeds abandon_at"; any other return is exact.
double DistanceToEnvelope(const Series& x, const Envelope& e,
                          double abandon_at);

/// Squared version of DistanceToEnvelope.
double SquaredDistanceToEnvelope(const Series& x, const Envelope& e);

/// Early-abandoning squared distance: same contract as the abandoning
/// DistanceToEnvelope, thresholded in squared space (pass +infinity to
/// disable). The cascade uses this form end-to-end so no sqrt is paid per
/// candidate (DESIGN.md §10).
double SquaredDistanceToEnvelope(const Series& x, const Envelope& e,
                                 double abandon_at_sq);

}  // namespace humdex
