// FastMap embedding under DTW — the *prior* indexing approach of Yi,
// Jagadish & Faloutsos [33] that the paper's §2 critiques: FastMap maps
// objects to k-d points using only pairwise distances, but DTW violates the
// triangle inequality, so the embedding's distances do NOT lower-bound DTW
// and range queries through it can miss true matches ("this technique might
// result in false negatives"). Implemented here as a measurable baseline;
// the ablation bench quantifies the recall loss against the paper's exact
// envelope-transform pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "ts/time_series.h"

namespace humdex {

/// FastMap (Faloutsos & Lin) pivot embedding with DTW as the distance oracle.
class FastMapEmbedding {
 public:
  /// Choose `dims` pivot pairs from `corpus` (band radius `band_k` for all
  /// DTW computations; `seed` drives the pivot heuristic).
  FastMapEmbedding(const std::vector<Series>& corpus, std::size_t dims,
                   std::size_t band_k, std::uint64_t seed);

  std::size_t dims() const { return pivots_.size(); }

  /// Embed any series (not necessarily from the corpus).
  Series Embed(const Series& x) const;

 private:
  struct PivotPair {
    Series a;
    Series b;
    double dab_sq;        // residual-squared distance between the pivots
    Series a_coords;      // coordinates of pivot a in earlier dimensions
    Series b_coords;
  };

  // Squared residual distance at `level`: DTW^2 minus the coordinate gaps of
  // the first `level` dimensions (clamped at zero, as FastMap requires for
  // non-metric distances).
  double ResidualSq(const Series& x, const Series& x_coords, const Series& y,
                    const Series& y_coords, std::size_t level) const;

  std::size_t band_k_;
  std::vector<PivotPair> pivots_;
};

}  // namespace humdex
