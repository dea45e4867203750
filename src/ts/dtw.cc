#include "ts/dtw.h"

#include <algorithm>
#include <cmath>

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {

namespace {

inline double Sq(double d) { return d * d; }

// Single-pair banded DP: the scalar reference of the lane kernel
// (ts/kernels.h), on per-thread scratch that is reused across calls.
// `threshold_sq` enables early abandoning; pass infinity to disable. Returns
// squared distance or infinity. Batches of candidates go through the
// dispatched lane kernel instead (gemini/query_engine.cc); both produce the
// same bits.
double SquaredLdtwDistanceImpl(const Series& x, const Series& y, std::size_t k,
                               double threshold_sq) {
  HUMDEX_CHECK(!x.empty() && !y.empty());
  thread_local std::vector<double> scratch;
  const std::size_t need = kernels::LdtwScratchDoubles(y.size());
  if (scratch.size() < need) scratch.resize(need);
  const double* row = y.data();
  double out = kInfiniteDistance;
  kernels::ScalarKernels().ldtw_lanes(x.data(), x.size(), &row, y.size(), 1,
                                      k, threshold_sq, scratch.data(), &out);
  return out;
}

}  // namespace

double SquaredDtwDistance(const Series& x, const Series& y) {
  HUMDEX_CHECK(!x.empty() && !y.empty());
  const std::size_t n = x.size(), m = y.size();
  // Two rolling rows over the m-axis.
  std::vector<double> prev(m, kInfiniteDistance), cur(m, kInfiniteDistance);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double cost = Sq(x[i] - y[j]);
      double best;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        best = kInfiniteDistance;
        if (i > 0) best = std::min(best, prev[j]);
        if (j > 0) best = std::min(best, cur[j - 1]);
        if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
      }
      cur[j] = cost + best;
    }
    std::swap(prev, cur);
  }
  return prev[m - 1];
}

double DtwDistance(const Series& x, const Series& y) {
  return std::sqrt(SquaredDtwDistance(x, y));
}

double SquaredLdtwDistance(const Series& x, const Series& y, std::size_t k) {
  return SquaredLdtwDistanceImpl(x, y, k, kInfiniteDistance);
}

double LdtwDistance(const Series& x, const Series& y, std::size_t k) {
  return std::sqrt(SquaredLdtwDistance(x, y, k));
}

double SquaredLdtwDistanceEarlyAbandon(const Series& x, const Series& y,
                                       std::size_t k, double threshold_sq) {
  return SquaredLdtwDistanceImpl(x, y, k, threshold_sq);
}

double LdtwDistanceEarlyAbandon(const Series& x, const Series& y, std::size_t k,
                                double threshold) {
  // Relative slack on the squared threshold: squaring a sqrt'ed distance can
  // round a hair below the true squared value, and an item whose distance
  // EQUALS the threshold (the boundary case range-based kNN relies on) must
  // not be abandoned. The caller's final `distance <= threshold` comparison
  // stays authoritative, so the slack cannot admit false positives.
  double thr_sq = threshold * threshold;
  thr_sq += thr_sq * 1e-12;
  double sq = SquaredLdtwDistanceImpl(x, y, k, thr_sq);
  return std::isinf(sq) ? kInfiniteDistance : std::sqrt(sq);
}

double UtwDistance(const Series& x, const Series& y) {
  HUMDEX_CHECK(!x.empty() && !y.empty());
  const std::size_t n = x.size(), m = y.size();
  // D^2(U_m(x), U_n(y)) evaluated index-by-index; index t in [0, mn) maps to
  // x[t / m] and y[t / n] (the 1-based ceil of the paper becomes 0-based
  // floor division).
  double s = 0.0;
  for (std::size_t t = 0; t < n * m; ++t) {
    s += Sq(x[t / m] - y[t / n]);
  }
  return std::sqrt(s / static_cast<double>(n * m));
}

double DtwNormalFormDistance(const Series& x, const Series& y,
                             std::size_t normal_len, std::size_t k) {
  Series xs(normal_len), ys(normal_len);
  for (std::size_t i = 0; i < normal_len; ++i) {
    xs[i] = x[i * x.size() / normal_len];
    ys[i] = y[i * y.size() / normal_len];
  }
  return LdtwDistance(xs, ys, k);
}

std::size_t BandRadiusForWidth(double delta, std::size_t n) {
  HUMDEX_CHECK(delta >= 0.0);
  // delta = (2k+1)/n  =>  k = (delta*n - 1) / 2, clamped at zero.
  double k = (delta * static_cast<double>(n) - 1.0) / 2.0;
  if (k <= 0.0) return 0;
  return static_cast<std::size_t>(std::llround(k));
}

double WidthForBandRadius(std::size_t k, std::size_t n) {
  HUMDEX_CHECK(n > 0);
  return (2.0 * static_cast<double>(k) + 1.0) / static_cast<double>(n);
}

double DtwDistanceWithPath(const Series& x, const Series& y, WarpingPath* path) {
  HUMDEX_CHECK(path != nullptr);
  HUMDEX_CHECK(!x.empty() && !y.empty());
  const std::size_t n = x.size(), m = y.size();
  std::vector<double> dp(n * m, kInfiniteDistance);
  auto at = [&](std::size_t i, std::size_t j) -> double& { return dp[i * m + j]; };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double cost = Sq(x[i] - y[j]);
      double best;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        best = kInfiniteDistance;
        if (i > 0) best = std::min(best, at(i - 1, j));
        if (j > 0) best = std::min(best, at(i, j - 1));
        if (i > 0 && j > 0) best = std::min(best, at(i - 1, j - 1));
      }
      at(i, j) = cost + best;
    }
  }

  // Backtrack, preferring the diagonal on ties.
  path->clear();
  std::size_t i = n - 1, j = m - 1;
  path->emplace_back(i, j);
  while (i > 0 || j > 0) {
    if (i == 0) {
      --j;
    } else if (j == 0) {
      --i;
    } else {
      double diag = at(i - 1, j - 1), up = at(i - 1, j), left = at(i, j - 1);
      if (diag <= up && diag <= left) {
        --i;
        --j;
      } else if (up <= left) {
        --i;
      } else {
        --j;
      }
    }
    path->emplace_back(i, j);
  }
  std::reverse(path->begin(), path->end());
  return std::sqrt(at(n - 1, m - 1));
}

}  // namespace humdex
