#include "index/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {

Rect::Rect(Series lo_in, Series hi_in) : lo(std::move(lo_in)), hi(std::move(hi_in)) {
  HUMDEX_CHECK(lo.size() == hi.size());
  for (std::size_t d = 0; d < lo.size(); ++d) HUMDEX_CHECK(lo[d] <= hi[d]);
}

Rect Rect::FromEnvelope(const Envelope& e) {
  Series lo = e.lower, hi = e.upper;
  for (std::size_t d = 0; d < lo.size(); ++d) {
    if (hi[d] < lo[d]) {
      double mid = 0.5 * (hi[d] + lo[d]);
      lo[d] = hi[d] = mid;
    }
  }
  return Rect(std::move(lo), std::move(hi));
}

double Rect::MinDistSq(const Series& p) const {
  HUMDEX_CHECK(p.size() == dims());
  // A point's clamp-excess against the rectangle, via the dispatched
  // kernel: the same sum a block scan scores for it (kernels.h).
  return kernels::ActiveKernels().sq_dist_to_box(
      p.data(), lo.data(), hi.data(), p.size(),
      std::numeric_limits<double>::infinity());
}

double Rect::MinDistSq(const Rect& other) const {
  HUMDEX_CHECK(other.dims() == dims());
  double s = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    double g = 0.0;
    if (other.hi[d] < lo[d]) {
      g = lo[d] - other.hi[d];
    } else if (other.lo[d] > hi[d]) {
      g = other.lo[d] - hi[d];
    }
    s += g * g;
  }
  return s;
}

void Rect::Enlarge(const Rect& other) {
  if (lo.empty()) {
    *this = other;
    return;
  }
  HUMDEX_CHECK(other.dims() == dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = std::min(lo[d], other.lo[d]);
    hi[d] = std::max(hi[d], other.hi[d]);
  }
}

void Rect::EnlargePoint(const Series& p) { Enlarge(Rect::FromPoint(p)); }

double Rect::Area() const {
  double a = 1.0;
  for (std::size_t d = 0; d < dims(); ++d) a *= (hi[d] - lo[d]);
  return a;
}

double Rect::Margin() const {
  double m = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) m += (hi[d] - lo[d]);
  return m;
}

double Rect::OverlapArea(const Rect& other) const {
  HUMDEX_CHECK(other.dims() == dims());
  double a = 1.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    double w = std::min(hi[d], other.hi[d]) - std::max(lo[d], other.lo[d]);
    if (w <= 0.0) return 0.0;
    a *= w;
  }
  return a;
}

double Rect::Enlargement(const Rect& other) const {
  Rect grown = *this;
  grown.Enlarge(other);
  return grown.Area() - Area();
}

bool Rect::Contains(const Series& p) const {
  HUMDEX_CHECK(p.size() == dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    if (p[d] < lo[d] || p[d] > hi[d]) return false;
  }
  return true;
}

}  // namespace humdex
