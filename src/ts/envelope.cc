#include "ts/envelope.h"

#include <cmath>
#include <limits>
#include <vector>

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {
namespace {
constexpr double kInfiniteAbandon = std::numeric_limits<double>::infinity();
}  // namespace

bool Envelope::Contains(const Series& x, double eps) const {
  if (x.size() != lower.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lower[i] - eps || x[i] > upper[i] + eps) return false;
  }
  return true;
}

namespace {

// Sliding-window extremum over window [i-k, i+k] via a monotonic index queue
// held in window[head, tail): every index enters once, so n slots suffice.
// keeps(a, b) true means an older a stays ahead of a newer b; otherwise the
// newer value evicts it, so on ties the newer index wins.
template <typename Keeps>
void SlidingExtremum(const double* x, std::size_t n, std::size_t k,
                     Keeps keeps, double* out, std::size_t* window) {
  std::size_t head = 0, tail = 0;  // extremum at window[head]
  // Window for position i covers [i-k, i+k]; process arrival of index j and
  // emit position i = j - k once j >= k.
  for (std::size_t j = 0; j < n + k; ++j) {
    if (j < n) {
      while (tail > head && !keeps(x[window[tail - 1]], x[j])) --tail;
      window[tail++] = j;
    }
    if (j >= k) {
      std::size_t i = j - k;
      while (tail > head && window[head] + k < i) ++head;
      out[i] = x[window[head]];
    }
  }
}

}  // namespace

void BuildEnvelopeInto(const double* x, std::size_t n, std::size_t k,
                       double* lower, double* upper, std::size_t* window) {
  SlidingExtremum(x, n, k, [](double a, double b) { return a > b; }, upper,
                  window);
  SlidingExtremum(x, n, k, [](double a, double b) { return a < b; }, lower,
                  window);
}

Envelope BuildEnvelope(const Series& x, std::size_t k) {
  HUMDEX_CHECK(!x.empty());
  const std::size_t n = x.size();
  Envelope e;
  e.lower.resize(n);
  e.upper.resize(n);
  std::vector<std::size_t> window(n);
  BuildEnvelopeInto(x.data(), n, k, e.lower.data(), e.upper.data(),
                    window.data());
  return e;
}

double SquaredDistanceToEnvelope(const Series& x, const Envelope& e,
                                 double abandon_at_sq) {
  HUMDEX_CHECK(x.size() == e.lower.size());
  return kernels::ActiveKernels().sq_dist_to_box(
      x.data(), e.lower.data(), e.upper.data(), x.size(), abandon_at_sq);
}

double SquaredDistanceToEnvelope(const Series& x, const Envelope& e) {
  return SquaredDistanceToEnvelope(x, e, kInfiniteAbandon);
}

double DistanceToEnvelope(const Series& x, const Envelope& e) {
  return std::sqrt(SquaredDistanceToEnvelope(x, e));
}

double DistanceToEnvelope(const Series& x, const Envelope& e,
                          double abandon_at) {
  return std::sqrt(
      SquaredDistanceToEnvelope(x, e, abandon_at * abandon_at));
}

}  // namespace humdex
