// Raw-space lower bounds for DTW: the global bound of Yi et al. [33], the
// constant-space Kim bound, and Keogh's envelope bound (Lemma 2). The
// reduced-dimension bounds (Keogh_PAA / New_PAA / DFT / SVD) live in
// src/transform since they require the envelope-transform machinery.
#pragma once

#include <cstddef>

#include "ts/envelope.h"
#include "ts/time_series.h"

namespace humdex {

/// Yi et al.'s global lower bound for (unconstrained and banded) DTW: every
/// point of x that lies outside [min(y), max(y)] must pay at least its excess.
/// Equivalent to LbKeogh with k = infinity; uses only 2 values of y.
double LbYi(const Series& x, const Series& y);

/// Symmetric Yi bound: max of LbYi(x, y) and LbYi(y, x). Still a lower bound
/// of DTW because DTW is symmetric.
double LbYiSymmetric(const Series& x, const Series& y);

/// Kim-style constant-time bound: first and last elements of any warping path
/// are aligned, so |x_0 - y_0| and |x_{n-1} - y_{m-1}| each lower-bound DTW,
/// as do the differences of the global extrema.
double LbKim(const Series& x, const Series& y);

/// Keogh's envelope lower bound (Lemma 2): distance from x to the k-envelope
/// of y. Lengths must match. This is the tightest raw-space bound and is the
/// paper's "LB" curve in Figures 6 and 7.
double LbKeogh(const Series& x, const Series& y, std::size_t k);

/// LbKeogh against a precomputed envelope of y.
double LbKeogh(const Series& x, const Envelope& env_y);

/// Pointwise projection of x onto the envelope: h[i] = clamp(x[i] to
/// [lower[i], upper[i]]). The "H" series of Lemire's LB_Improved; x's
/// distance to the envelope equals its distance to h.
Series ProjectOntoEnvelope(const Series& x, const Envelope& e);

/// Lemire's two-pass LB_Improved (arXiv:0811.3301) for band radius k:
///   LB_Improved(x, y)^2 = LB_Keogh(x, y)^2 + LB_Keogh(y, H)^2
/// where H is x projected onto y's k-envelope. Still a lower bound of the
/// banded LDTW distance, and never smaller than LB_Keogh — the second pass
/// charges y for the distance it must cover to reach even the closest series
/// inside the envelope. A library bound, not a query-cascade stage: its
/// second pass costs more than the exact lane LDTW it would skip (DESIGN.md
/// §11).
double LbImproved(const Series& x, const Series& y, std::size_t k);

/// Squared LB_Improved against a precomputed k-envelope of y, with early
/// abandoning: any return > abandon_at_sq means the bound exceeds the
/// threshold (the value may then be partial); any other return is the exact
/// squared bound. Pass +infinity to disable abandoning.
double SquaredLbImproved(const Series& x, const Series& y,
                         const Envelope& env_y, std::size_t k,
                         double abandon_at_sq);

/// Second pass of LB_Improved alone: LB_Keogh(y, H)^2 with H the projection
/// of x onto env_y, early-abandoning at abandon_at_sq. For callers that
/// already hold LB_Keogh(x, env_y)^2 from an earlier cascade stage and want
/// to add the two squared passes themselves.
double SquaredLbImprovedSecondPass(const Series& x, const Series& y,
                                   const Envelope& env_y, std::size_t k,
                                   double abandon_at_sq);

}  // namespace humdex
