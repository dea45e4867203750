// k-Envelopes (paper Definition 6) and the series-to-envelope distance
// (Definition 7), which is Keogh's LB for banded DTW (Lemma 2).
#pragma once

#include <cstddef>

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
/// with window indices clamped to [0, n). Runs in O(n) using the
/// Lemire ascending-minima algorithm, so large k costs the same as small k.
Envelope BuildEnvelope(const Series& x, std::size_t k);

/// BuildEnvelope over caller storage, for allocation-free hot loops: writes
/// the k-envelope of x[0, n) to lower[0, n) and upper[0, n), using `window`
/// (n indices) as the sliding-window queue. Bit-identical to BuildEnvelope,
/// ties included: a newer value equal to the current extremum replaces it,
/// so -0.0 and +0.0 resolve the same way in both.
void BuildEnvelopeInto(const double* x, std::size_t n, std::size_t k,
                       double* lower, double* upper, std::size_t* window);

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
