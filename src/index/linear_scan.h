// Baseline "index": a flat array scanned in full on every query. Points are
// packed into fixed-size pages, each a dimension-major block scored by one
// call of the block MINDIST kernel (ts/kernels.h), the same kernel and layout
// an R*-tree node uses. Its page accesses model sequential IO, giving the
// yardstick the tree indexes must beat.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/rect.h"

namespace humdex {

/// Linear scan over all stored points.
class LinearScanIndex : public SpatialIndex {
 public:
  /// `points_per_page` sets the page size: the block each kernel call
  /// scores, and the page-access accounting.
  explicit LinearScanIndex(std::size_t dims, std::size_t points_per_page = 64);

  void Insert(const Series& point, std::int64_t id) override;

  bool Delete(const Series& point, std::int64_t id) override;

  std::vector<std::int64_t> RangeQuery(const Rect& query, double radius,
                                       IndexStats* stats = nullptr) const override;

  std::vector<Neighbor> KnnQuery(const Series& query, std::size_t k,
                                 IndexStats* stats = nullptr) const override;

  std::vector<Neighbor> NearestToRect(const Rect& query, std::size_t k,
                                      IndexStats* stats = nullptr) const override;

  std::size_t size() const override { return ids_.size(); }

 private:
  /// Coordinate d of point i: page i / points_per_page_ holds a block of
  /// dims_ rows of points_per_page_ doubles.
  double& Coord(std::size_t i, std::size_t d) {
    return blocks_[((i / points_per_page_) * dims_ + d) * points_per_page_ +
                   i % points_per_page_];
  }
  std::size_t PageCount() const {
    return (ids_.size() + points_per_page_ - 1) / points_per_page_;
  }
  /// Score every point against `query` into `out_sq` (size() doubles).
  void ScoreAll(const Rect& query, double* out_sq) const;

  std::size_t dims_;
  std::size_t points_per_page_;
  std::vector<double> blocks_;  // whole pages, dimension-major
  std::vector<std::int64_t> ids_;
};

}  // namespace humdex
