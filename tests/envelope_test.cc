#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

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

// Definitional O(n * w) envelope with the builder's tie rule: scanning each
// window oldest to newest, a value equal to the running extremum replaces
// it. Unlike NaiveEnvelope it pins down which of -0.0 and +0.0 comes out.
Envelope NewestTieEnvelope(const Series& x, std::size_t k) {
  const std::size_t n = x.size();
  Envelope e;
  e.lower.resize(n);
  e.upper.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= k ? i - k : 0;
    const std::size_t hi = std::min(n - 1, i + k);
    double mn = x[lo], mx = x[lo];
    for (std::size_t j = lo + 1; j <= hi; ++j) {
      if (!(mn < x[j])) mn = x[j];
      if (!(mx > x[j])) mx = x[j];
    }
    e.lower[i] = mn;
    e.upper[i] = mx;
  }
  return e;
}

::testing::AssertionResult SameBits(const Series& got, const Series& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "length " << got.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "i=" << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// The block-extrema builder equals the definition bit for bit on every
// window shape — radius 0, 1, up to and past the series — over inputs full
// of ties and signed zeros, where only the tie rule decides the bits.
TEST(EnvelopeTest, BlockBuilderMatchesDefinitionBitForBitWithTies) {
  Rng rng(23);
  const double alphabet[] = {-1.0, -0.0, 0.0, 1.0, 2.0};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(127);
  lengths.push_back(128);
  for (std::size_t n : lengths) {
    for (int trial = 0; trial < 8; ++trial) {
      Series x(n);
      for (double& v : x) {
        v = trial % 2 == 0 ? alphabet[rng.NextBounded(5)] : rng.Gaussian();
      }
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                            n - 1, n, n + 4}) {
        const Envelope got = BuildEnvelope(x, k);
        const Envelope want = NewestTieEnvelope(x, k);
        EXPECT_TRUE(SameBits(got.lower, want.lower)) << "n=" << n << " k=" << k;
        EXPECT_TRUE(SameBits(got.upper, want.upper)) << "n=" << n << " k=" << k;
      }
    }
  }
}

// Definition of the float rows: round every value outward (FloatAtOrBelow
// for the lower row, FloatAtOrAbove for the upper), then scan each window
// oldest to newest, a float equal to the running extremum replacing it.
std::vector<float> NewestTieFloatRow(const Series& x, std::size_t k,
                                     bool lower) {
  const std::size_t n = x.size();
  std::vector<float> r(n), out(n);
  for (std::size_t j = 0; j < n; ++j) {
    r[j] = lower ? FloatAtOrBelow(x[j]) : FloatAtOrAbove(x[j]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= k ? i - k : 0;
    const std::size_t hi = std::min(n - 1, i + k);
    float e = r[lo];
    for (std::size_t j = lo + 1; j <= hi; ++j) {
      if (lower ? !(e < r[j]) : !(e > r[j])) e = r[j];
    }
    out[i] = e;
  }
  return out;
}

// BuildFloatEnvelopeInto equals that definition bit for bit on every window
// shape and on every length up to 40 plus longer rows (4-lane blocks and
// scalar tails), over inputs of ties, signed zeros, values beyond FLT_MAX,
// float and double subnormals and float-exact values. As values its rows
// also equal BuildEnvelope's rounded outward, and so do the bits wherever x
// holds no nonzero value below 2^-149 in magnitude.
TEST(EnvelopeTest, FloatRowsMatchRoundedWindowsBitForBit) {
  Rng rng(29);
  const double alphabet[] = {-1.0,  -0.0,   0.0,    1.0,     2.0,   0.5,
                             0.1,   -0.1,   1e39,   -1e39,   1e-40, -1e-40,
                             1e-300, -1e-300, 3.4028234663852886e38};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (std::size_t n : {127, 128, 131, 300}) lengths.push_back(n);
  for (std::size_t n : lengths) {
    for (int trial = 0; trial < 8; ++trial) {
      Series x(n);
      for (double& v : x) {
        v = trial % 2 == 0 ? alphabet[rng.NextBounded(std::size(alphabet))]
                           : rng.Gaussian();
      }
      const bool tiny = std::any_of(x.begin(), x.end(), [](double v) {
        return v != 0.0 && std::abs(v) < 0x1p-149;
      });
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                            n - 1, n, n + 4}) {
        std::vector<float> lo(n), hi(n);
        std::vector<float> scratch(FloatEnvelopeScratchFloats(n));
        BuildFloatEnvelopeInto(x.data(), n, k, lo.data(), hi.data(),
                               scratch.data());
        const std::vector<float> want_lo = NewestTieFloatRow(x, k, true);
        const std::vector<float> want_hi = NewestTieFloatRow(x, k, false);
        const Envelope env = BuildEnvelope(x, k);
        for (std::size_t i = 0; i < n; ++i) {
          const float rounded_lo = FloatAtOrBelow(env.lower[i]);
          const float rounded_hi = FloatAtOrAbove(env.upper[i]);
          EXPECT_EQ(std::bit_cast<std::uint32_t>(lo[i]),
                    std::bit_cast<std::uint32_t>(want_lo[i]))
              << "n=" << n << " k=" << k << " i=" << i;
          EXPECT_EQ(std::bit_cast<std::uint32_t>(hi[i]),
                    std::bit_cast<std::uint32_t>(want_hi[i]))
              << "n=" << n << " k=" << k << " i=" << i;
          EXPECT_EQ(lo[i], rounded_lo) << "n=" << n << " k=" << k;
          EXPECT_EQ(hi[i], rounded_hi) << "n=" << n << " k=" << k;
          if (!tiny) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(lo[i]),
                      std::bit_cast<std::uint32_t>(rounded_lo));
            EXPECT_EQ(std::bit_cast<std::uint32_t>(hi[i]),
                      std::bit_cast<std::uint32_t>(rounded_hi));
          }
        }
      }
    }
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
