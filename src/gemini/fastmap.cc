#include "gemini/fastmap.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ts/dtw.h"
#include "util/random.h"
#include "util/status.h"

namespace humdex {

double FastMapEmbedding::ResidualSq(const Series& x, const Series& x_coords,
                                    const Series& y, const Series& y_coords,
                                    std::size_t level) const {
  double d = LdtwDistance(x, y, band_k_);
  double sq = d * d;
  for (std::size_t l = 0; l < level; ++l) {
    double g = x_coords[l] - y_coords[l];
    sq -= g * g;
  }
  // DTW is non-metric: the residual can go negative. FastMap clamps — the
  // information loss behind its false dismissals.
  return std::max(0.0, sq);
}

FastMapEmbedding::FastMapEmbedding(const std::vector<Series>& corpus,
                                   std::size_t dims, std::size_t band_k,
                                   std::uint64_t seed)
    : band_k_(band_k) {
  HUMDEX_CHECK(corpus.size() >= 2);
  HUMDEX_CHECK(dims >= 1);
  Rng rng(seed);

  // Partial coordinates of every corpus object, built dimension by dimension.
  std::vector<Series> coords(corpus.size(), Series(dims, 0.0));

  for (std::size_t level = 0; level < dims; ++level) {
    // Pivot heuristic: random object, then its farthest partner, then the
    // partner's farthest partner (one refinement round).
    std::size_t ia = rng.NextBounded(static_cast<std::uint32_t>(corpus.size()));
    std::size_t ib = ia;
    for (int round = 0; round < 2; ++round) {
      double best = -1.0;
      std::size_t far = ia;
      for (std::size_t j = 0; j < corpus.size(); ++j) {
        if (j == ia) continue;
        double d = ResidualSq(corpus[ia], coords[ia], corpus[j], coords[j], level);
        if (d > best) {
          best = d;
          far = j;
        }
      }
      ib = ia;
      ia = far;
    }
    PivotPair pivot;
    pivot.a = corpus[ia];
    pivot.b = corpus[ib];
    pivot.dab_sq =
        ResidualSq(corpus[ia], coords[ia], corpus[ib], coords[ib], level);

    // Project every object onto the pivot line. ResidualSq only reads
    // coordinates below `level`, so updating coords in place is safe.
    for (std::size_t j = 0; j < corpus.size(); ++j) {
      double daj = ResidualSq(corpus[ia], coords[ia], corpus[j], coords[j], level);
      double dbj = ResidualSq(corpus[ib], coords[ib], corpus[j], coords[j], level);
      coords[j][level] = pivot.dab_sq <= 1e-12
                             ? 0.0
                             : (daj + pivot.dab_sq - dbj) /
                                   (2.0 * std::sqrt(pivot.dab_sq));
    }
    // Snapshot the pivots' (now complete through `level`) coordinates for
    // embedding out-of-corpus queries later.
    pivot.a_coords = coords[ia];
    pivot.b_coords = coords[ib];
    pivots_.push_back(std::move(pivot));
  }
}

Series FastMapEmbedding::Embed(const Series& x) const {
  Series out(pivots_.size(), 0.0);
  for (std::size_t level = 0; level < pivots_.size(); ++level) {
    const PivotPair& p = pivots_[level];
    double dax = ResidualSq(p.a, p.a_coords, x, out, level);
    double dbx = ResidualSq(p.b, p.b_coords, x, out, level);
    out[level] = p.dab_sq <= 1e-12
                     ? 0.0
                     : (dax + p.dab_sq - dbx) / (2.0 * std::sqrt(p.dab_sq));
  }
  return out;
}

}  // namespace humdex
