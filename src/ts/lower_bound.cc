#include "ts/lower_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {

double LbYi(const Series& x, const Series& y) {
  HUMDEX_CHECK(!x.empty() && !y.empty());
  double lo = SeriesMin(y), hi = SeriesMax(y);
  double s = 0.0;
  for (double v : x) {
    double d = 0.0;
    if (v > hi) {
      d = v - hi;
    } else if (v < lo) {
      d = lo - v;
    }
    s += d * d;
  }
  return std::sqrt(s);
}

double LbYiSymmetric(const Series& x, const Series& y) {
  return std::max(LbYi(x, y), LbYi(y, x));
}

double LbKim(const Series& x, const Series& y) {
  HUMDEX_CHECK(!x.empty() && !y.empty());
  double d_first = std::fabs(x.front() - y.front());
  double d_last = std::fabs(x.back() - y.back());
  double d_max = std::fabs(SeriesMax(x) - SeriesMax(y));
  double d_min = std::fabs(SeriesMin(x) - SeriesMin(y));
  return std::max({d_first, d_last, d_max, d_min});
}

double LbKeogh(const Series& x, const Series& y, std::size_t k) {
  return DistanceToEnvelope(x, BuildEnvelope(y, k));
}

double LbKeogh(const Series& x, const Envelope& env_y) {
  return DistanceToEnvelope(x, env_y);
}

Series ProjectOntoEnvelope(const Series& x, const Envelope& e) {
  HUMDEX_CHECK(x.size() == e.lower.size());
  Series h(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    h[i] = std::min(std::max(x[i], e.lower[i]), e.upper[i]);
  }
  return h;
}

double SquaredLbImprovedSecondPass(const Series& x, const Series& y,
                                   const Envelope& env_y, std::size_t k,
                                   double abandon_at_sq) {
  const std::size_t n = x.size();
  HUMDEX_CHECK(n == env_y.size() && y.size() == n);
  // Per-thread scratch reused across calls: the projection H, its
  // k-envelope and the envelope builder's block extrema.
  struct Scratch {
    std::vector<double> h, lo, hi, env;
  };
  thread_local Scratch s;
  if (s.h.size() < n) {
    s.h.resize(n);
    s.lo.resize(n);
    s.hi.resize(n);
    s.env.resize(EnvelopeScratchDoubles(n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.h[i] = std::min(std::max(x[i], env_y.lower[i]), env_y.upper[i]);
  }
  BuildEnvelopeInto(s.h.data(), n, k, s.lo.data(), s.hi.data(),
                    s.env.data());
  return kernels::ActiveKernels().sq_dist_to_box(
      y.data(), s.lo.data(), s.hi.data(), n, abandon_at_sq);
}

double SquaredLbImproved(const Series& x, const Series& y,
                         const Envelope& env_y, std::size_t k,
                         double abandon_at_sq) {
  double part1 = SquaredDistanceToEnvelope(x, env_y, abandon_at_sq);
  if (part1 > abandon_at_sq) return part1;
  double part2 =
      SquaredLbImprovedSecondPass(x, y, env_y, k, abandon_at_sq - part1);
  return part1 + part2;
}

double LbImproved(const Series& x, const Series& y, std::size_t k) {
  HUMDEX_CHECK(x.size() == y.size());
  return std::sqrt(SquaredLbImproved(
      x, y, BuildEnvelope(y, k), k,
      std::numeric_limits<double>::infinity()));
}

}  // namespace humdex
