#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ts/envelope.h"
#include "util/random.h"

namespace humdex {
namespace {

// Reference O(nk) envelope for validating the O(n) sliding-window queue.
Envelope NaiveEnvelope(const Series& x, std::size_t k) {
  const std::size_t n = x.size();
  Envelope e;
  e.lower.resize(n);
  e.upper.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t lo = i >= k ? i - k : 0;
    std::size_t hi = std::min(n - 1, i + k);
    double mn = x[lo], mx = x[lo];
    for (std::size_t j = lo; j <= hi; ++j) {
      mn = std::min(mn, x[j]);
      mx = std::max(mx, x[j]);
    }
    e.lower[i] = mn;
    e.upper[i] = mx;
  }
  return e;
}

TEST(EnvelopeTest, ZeroRadiusEqualsSeries) {
  Series x{1, 5, 2, 4};
  Envelope e = BuildEnvelope(x, 0);
  EXPECT_EQ(e.lower, x);
  EXPECT_EQ(e.upper, x);
}

TEST(EnvelopeTest, KnownSmallCase) {
  Series x{1, 5, 2, 4};
  Envelope e = BuildEnvelope(x, 1);
  Series expect_upper{5, 5, 5, 4};
  Series expect_lower{1, 1, 2, 2};
  EXPECT_EQ(e.upper, expect_upper);
  EXPECT_EQ(e.lower, expect_lower);
}

TEST(EnvelopeTest, MatchesNaiveOnRandomInputs) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 200));
    std::size_t k = static_cast<std::size_t>(rng.UniformInt(0, 30));
    Series x(n);
    for (double& v : x) v = rng.Gaussian();
    Envelope fast = BuildEnvelope(x, k);
    Envelope naive = NaiveEnvelope(x, k);
    EXPECT_EQ(fast.lower, naive.lower) << "n=" << n << " k=" << k;
    EXPECT_EQ(fast.upper, naive.upper) << "n=" << n << " k=" << k;
  }
}

// Equal values tie-break to the newest index in the window, so signed zeros
// come out of the envelope with the sign of the latest equal element.
TEST(EnvelopeTest, TiesResolveToTheNewestEqualValue) {
  Series x = {0.0, -0.0, 0.0, -0.0};
  Envelope e = BuildEnvelope(x, 1);
  const bool want_neg[] = {true, false, true, true};
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::signbit(e.upper[i]), want_neg[i]) << "upper i=" << i;
    EXPECT_EQ(std::signbit(e.lower[i]), want_neg[i]) << "lower i=" << i;
  }
}

TEST(EnvelopeTest, ContainsItsOwnSeries) {
  Rng rng(13);
  Series x(100);
  for (double& v : x) v = rng.Gaussian();
  for (std::size_t k : {0u, 1u, 5u, 50u, 500u}) {
    EXPECT_TRUE(BuildEnvelope(x, k).Contains(x));
  }
}

TEST(EnvelopeTest, LargerRadiusIsWider) {
  Rng rng(17);
  Series x(64);
  for (double& v : x) v = rng.Gaussian();
  Envelope small = BuildEnvelope(x, 2);
  Envelope big = BuildEnvelope(x, 8);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(big.lower[i], small.lower[i]);
    EXPECT_GE(big.upper[i], small.upper[i]);
  }
}

TEST(EnvelopeTest, HugeRadiusIsGlobalMinMax) {
  Series x{3, -1, 4, 1, 5};
  Envelope e = BuildEnvelope(x, 100);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(e.lower[i], -1.0);
    EXPECT_DOUBLE_EQ(e.upper[i], 5.0);
  }
}

TEST(EnvelopeTest, ContainsRejectsOutliers) {
  Series x{0, 0, 0, 0};
  Envelope e = BuildEnvelope(x, 1);
  Series inside{0, 0, 0, 0};
  Series outside{0, 0, 1, 0};
  EXPECT_TRUE(e.Contains(inside));
  EXPECT_FALSE(e.Contains(outside));
  EXPECT_FALSE(e.Contains({0, 0, 0}));  // length mismatch
}

TEST(EnvelopeDistanceTest, ZeroInsideEnvelope) {
  Series y{1, 2, 3, 4, 5};
  Envelope e = BuildEnvelope(y, 2);
  EXPECT_DOUBLE_EQ(DistanceToEnvelope(y, e), 0.0);
}

TEST(EnvelopeDistanceTest, ClampDistanceKnownValue) {
  Series y{0, 0, 0};
  Envelope e = BuildEnvelope(y, 0);  // envelope == y
  Series x{3, 0, -4};
  EXPECT_DOUBLE_EQ(SquaredDistanceToEnvelope(x, e), 25.0);
  EXPECT_DOUBLE_EQ(DistanceToEnvelope(x, e), 5.0);
}

TEST(EnvelopeDistanceTest, IsMinOverContainedSeries) {
  // D(x, e) <= D(x, z) for a sample of z inside e.
  Rng rng(19);
  Series y(32);
  for (double& v : y) v = rng.Gaussian();
  Envelope e = BuildEnvelope(y, 3);
  Series x(32);
  for (double& v : x) v = rng.Gaussian(0.0, 2.0);
  double de = DistanceToEnvelope(x, e);
  for (int trial = 0; trial < 200; ++trial) {
    Series z(32);
    for (std::size_t i = 0; i < 32; ++i) {
      z[i] = rng.Uniform(e.lower[i], e.upper[i] + 1e-15);
    }
    EXPECT_LE(de, EuclideanDistance(x, z) + 1e-9);
  }
}

}  // namespace
}  // namespace humdex
