#include "index/linear_scan.h"

#include <algorithm>
#include <cmath>

#include "ts/kernels.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace humdex {

LinearScanIndex::LinearScanIndex(std::size_t dims, std::size_t points_per_page)
    : dims_(dims), points_per_page_(points_per_page) {
  HUMDEX_CHECK(dims_ >= 1);
  HUMDEX_CHECK(points_per_page_ >= 1);
}

void LinearScanIndex::Insert(const Series& point, std::int64_t id) {
  HUMDEX_CHECK(point.size() == dims_);
  const std::size_t i = ids_.size();
  if (i % points_per_page_ == 0) {
    blocks_.resize(blocks_.size() + dims_ * points_per_page_);
  }
  ids_.push_back(id);
  for (std::size_t d = 0; d < dims_; ++d) Coord(i, d) = point[d];
}

bool LinearScanIndex::Delete(const Series& point, std::int64_t id) {
  HUMDEX_CHECK(point.size() == dims_);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] != id) continue;
    bool same = true;
    for (std::size_t d = 0; d < dims_; ++d) {
      same = same && Coord(i, d) == point[d];
    }
    if (!same) continue;
    // Shift the later points down one slot, keeping the scan order.
    for (std::size_t j = i + 1; j < ids_.size(); ++j) {
      for (std::size_t d = 0; d < dims_; ++d) Coord(j - 1, d) = Coord(j, d);
    }
    ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(i));
    blocks_.resize(PageCount() * dims_ * points_per_page_);
    return true;
  }
  return false;
}

void LinearScanIndex::ScoreAll(const Rect& query, double* out_sq) const {
  HUMDEX_CHECK(query.dims() == dims_);
  const kernels::MindistSqBlockFn score =
      kernels::ActiveKernels().mindist_sq_block;
  const std::size_t n = ids_.size();
  for (std::size_t first = 0; first < n; first += points_per_page_) {
    const double* page = blocks_.data() + first * dims_;
    score(query.lo.data(), query.hi.data(), page, page, dims_,
          std::min(points_per_page_, n - first), points_per_page_,
          out_sq + first);
  }
}

std::vector<std::int64_t> LinearScanIndex::RangeQuery(const Rect& query,
                                                      double radius,
                                                      IndexStats* stats) const {
  const double r2 = radius * radius;
  std::vector<double> scores(ids_.size());
  ScoreAll(query, scores.data());
  // Branch-free compaction: every id is written, survivors advance.
  std::vector<std::int64_t> out(ids_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    out[kept] = ids_[i];
    kept += scores[i] <= r2 ? 1 : 0;
  }
  out.resize(kept);
  if (stats != nullptr) stats->page_accesses = PageCount();
  return out;
}

std::vector<Neighbor> LinearScanIndex::KnnQuery(const Series& query, std::size_t k,
                                                IndexStats* stats) const {
  return NearestToRect(Rect::FromPoint(query), k, stats);
}

std::vector<Neighbor> LinearScanIndex::NearestToRect(const Rect& query,
                                                     std::size_t k,
                                                     IndexStats* stats) const {
  std::vector<double> scores(ids_.size());
  ScoreAll(query, scores.data());
  std::vector<Neighbor> all(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    all[i] = {ids_[i], std::sqrt(scores[i])};
  }
  std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end());
  all.resize(take);
  if (stats != nullptr) stats->page_accesses = PageCount();
  return all;
}

}  // namespace humdex
