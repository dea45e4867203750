#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string_view>

#include "transform/dft.h"
#include "transform/dwt.h"
#include "transform/paa.h"
#include "transform/svd_transform.h"
#include "ts/dtw.h"
#include "util/fft.h"
#include "util/random.h"

namespace humdex {
namespace {

Series RandomWalk(Rng* rng, std::size_t n) {
  Series x(n);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += rng->Gaussian();
    x[i] = v;
  }
  return x;
}

std::vector<Series> RandomCorpus(Rng* rng, std::size_t count, std::size_t n) {
  std::vector<Series> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(RandomWalk(rng, n));
  return out;
}

// ---------- PAA ----------

TEST(PaaTest, FeaturesAreScaledFrameMeans) {
  PaaTransform paa(8, 2);
  Series x{1, 2, 3, 4, 10, 10, 10, 10};
  Series f = paa.Apply(x);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_NEAR(f[0], std::sqrt(4.0) * 2.5, 1e-12);
  EXPECT_NEAR(f[1], std::sqrt(4.0) * 10.0, 1e-12);
}

TEST(PaaTest, FastPathMatchesGenericMatrixPath) {
  Rng rng(3);
  PaaTransform paa(64, 8);
  for (int t = 0; t < 20; ++t) {
    Series x = RandomWalk(&rng, 64);
    Series fast = paa.Apply(x);
    Series generic = paa.coefficients().MultiplyVector(x);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(fast[i], generic[i], 1e-9);
  }
}

TEST(PaaTest, EnvelopeFastPathMatchesLemma3Generic) {
  Rng rng(5);
  PaaTransform paa(64, 8);
  const LinearTransform& generic = paa;
  for (int t = 0; t < 10; ++t) {
    Envelope e = BuildEnvelope(RandomWalk(&rng, 64), 6);
    Envelope fast = paa.ApplyToEnvelope(e);
    Envelope gen = generic.LinearTransform::ApplyToEnvelope(e);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(fast.lower[i], gen.lower[i], 1e-9);
      EXPECT_NEAR(fast.upper[i], gen.upper[i], 1e-9);
    }
  }
}

TEST(PaaTest, IdentityWhenOutputEqualsInput) {
  PaaTransform paa(8, 8);
  Series x{5, 3, 1, 2, 8, 9, 0, 4};
  EXPECT_EQ(paa.Apply(x), x);
}

// ---------- lower-bounding of every transform for Euclidean distance ----

std::unique_ptr<LinearTransform> MakePaa(Rng*) {
  return std::make_unique<PaaTransform>(64, 8);
}
std::unique_ptr<LinearTransform> MakeDft(Rng*) {
  return std::make_unique<DftTransform>(64, 8);
}
std::unique_ptr<LinearTransform> MakeDwt(Rng*) {
  return std::make_unique<DwtTransform>(64, 8);
}
std::unique_ptr<LinearTransform> MakeSvd(Rng* rng) {
  return std::make_unique<SvdTransform>(RandomCorpus(rng, 50, 64), 8);
}

// Holds plain bytes only: gtest prints the parameter's bytes into every listed
// test name, so a pointer member would rename the tests on each run.
struct TransformFactory {
  char name[16];

  std::unique_ptr<LinearTransform> make(Rng* rng) const {
    const std::string_view n = name;
    if (n == "paa") return MakePaa(rng);
    if (n == "dft") return MakeDft(rng);
    if (n == "dwt") return MakeDwt(rng);
    return MakeSvd(rng);
  }
};

class AllTransformsTest : public ::testing::TestWithParam<TransformFactory> {};

TEST_P(AllTransformsTest, LowerBoundsEuclideanDistance) {
  Rng rng(11);
  auto t = GetParam().make(&rng);
  for (int trial = 0; trial < 60; ++trial) {
    Series x = RandomWalk(&rng, 64), y = RandomWalk(&rng, 64);
    double feat = EuclideanDistance(t->Apply(x), t->Apply(y));
    double raw = EuclideanDistance(x, y);
    EXPECT_LE(feat, raw + 1e-9) << GetParam().name;
  }
}

TEST_P(AllTransformsTest, EnvelopeTransformIsContainerInvariant) {
  // Definition 8: z inside e  =>  T(z) inside T(e).
  Rng rng(13);
  auto t = GetParam().make(&rng);
  for (int trial = 0; trial < 20; ++trial) {
    Series y = RandomWalk(&rng, 64);
    Envelope e = BuildEnvelope(y, 5);
    Envelope fe = t->ApplyToEnvelope(e);
    for (int inner = 0; inner < 20; ++inner) {
      Series z(64);
      for (std::size_t i = 0; i < 64; ++i) {
        z[i] = rng.Uniform(e.lower[i], e.upper[i] + 1e-15);
      }
      EXPECT_TRUE(fe.Contains(t->Apply(z), 1e-7)) << GetParam().name;
    }
  }
}

TEST_P(AllTransformsTest, Theorem1NoFalseNegativesBound) {
  // D(T(x), T(Env_k(y))) <= DTW_k(x, y).
  Rng rng(17);
  auto t = GetParam().make(&rng);
  for (std::size_t k : {0u, 3u, 6u, 12u}) {
    for (int trial = 0; trial < 25; ++trial) {
      Series x = RandomWalk(&rng, 64), y = RandomWalk(&rng, 64);
      double lb = ReducedDtwLowerBound(*t, x, y, k);
      double dtw = LdtwDistance(x, y, k);
      EXPECT_LE(lb, dtw + 1e-9) << GetParam().name << " k=" << k;
    }
  }
}

TEST_P(AllTransformsTest, EnvelopeOfDegenerateEnvelopeIsFeatureVector) {
  // When the envelope collapses to the series, its transform collapses to
  // the series' features.
  Rng rng(19);
  auto t = GetParam().make(&rng);
  Series x = RandomWalk(&rng, 64);
  Envelope e{x, x};
  Envelope fe = t->ApplyToEnvelope(e);
  Series f = t->Apply(x);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(fe.lower[i], f[i], 1e-9);
    EXPECT_NEAR(fe.upper[i], f[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Transforms, AllTransformsTest,
                         ::testing::Values(TransformFactory{"paa"}, TransformFactory{"dft"},
                                           TransformFactory{"dwt"}, TransformFactory{"svd"}),
                         [](const ::testing::TestParamInfo<TransformFactory>& info) {
                           return info.param.name;
                         });

// ---------- Keogh vs New PAA ----------

TEST(KeoghVsNewPaaTest, NewEnvelopeIsAlwaysInsideKeoghEnvelope) {
  Rng rng(23);
  PaaTransform paa(128, 8);
  for (int trial = 0; trial < 30; ++trial) {
    Envelope e = BuildEnvelope(RandomWalk(&rng, 128), 8);
    Envelope nw = paa.ApplyToEnvelope(e);
    Envelope kg = KeoghPaaEnvelope(e, 8);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_LE(kg.lower[i], nw.lower[i] + 1e-9);
      EXPECT_GE(kg.upper[i], nw.upper[i] - 1e-9);
    }
  }
}

TEST(KeoghVsNewPaaTest, NewBoundDominatesKeoghBound) {
  Rng rng(29);
  PaaTransform paa(128, 8);
  for (int trial = 0; trial < 60; ++trial) {
    Series x = RandomWalk(&rng, 128), y = RandomWalk(&rng, 128);
    double nw = ReducedDtwLowerBound(paa, x, y, 6);
    double kg = KeoghPaaLowerBound(paa, x, y, 6);
    EXPECT_GE(nw, kg - 1e-9);
  }
}

TEST(KeoghVsNewPaaTest, KeoghBoundStillLowerBoundsDtw) {
  Rng rng(31);
  PaaTransform paa(128, 8);
  for (std::size_t k : {0u, 6u, 12u}) {
    for (int trial = 0; trial < 30; ++trial) {
      Series x = RandomWalk(&rng, 128), y = RandomWalk(&rng, 128);
      EXPECT_LE(KeoghPaaLowerBound(paa, x, y, k), LdtwDistance(x, y, k) + 1e-9);
    }
  }
}

// ---------- DFT specifics ----------

TEST(DftTransformTest, FullDimensionPreservesDistances) {
  // With all n features the (boosted) DFT should still lower-bound, and with
  // no boost beyond n/2 pairs it underestimates at most mildly; here we only
  // check the lower-bound property at full width.
  Rng rng(37);
  DftTransform t(32, 32);
  for (int trial = 0; trial < 20; ++trial) {
    Series x = RandomWalk(&rng, 32), y = RandomWalk(&rng, 32);
    EXPECT_LE(EuclideanDistance(t.Apply(x), t.Apply(y)),
              EuclideanDistance(x, y) + 1e-9);
  }
}

TEST(DftTransformTest, FeaturesMatchFftBins) {
  Rng rng(41);
  Series x = RandomWalk(&rng, 64);
  DftTransform t(64, 5);
  Series f = t.Apply(x);
  auto spec = RealFft(x);
  const double unit = 1.0 / std::sqrt(64.0);
  const double sqrt2 = std::sqrt(2.0);
  EXPECT_NEAR(f[0], unit * spec[0].real(), 1e-9);
  EXPECT_NEAR(f[1], unit * sqrt2 * spec[1].real(), 1e-9);
  EXPECT_NEAR(f[2], unit * sqrt2 * spec[1].imag(), 1e-9);
  EXPECT_NEAR(f[3], unit * sqrt2 * spec[2].real(), 1e-9);
  EXPECT_NEAR(f[4], unit * sqrt2 * spec[2].imag(), 1e-9);
}

// ---------- DWT specifics ----------

TEST(DwtTest, HaarTransformIsOrthonormal) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    Series x = RandomWalk(&rng, 32);
    Series h = HaarTransform(x);
    double ex = 0.0, eh = 0.0;
    for (double v : x) ex += v * v;
    for (double v : h) eh += v * v;
    EXPECT_NEAR(ex, eh, 1e-8);
  }
}

TEST(DwtTest, ConstantSeriesHasOnlyApproximation) {
  Series x(16, 2.0);
  Series h = HaarTransform(x);
  EXPECT_NEAR(h[0], 8.0, 1e-9);  // 2 * sqrt(16)
  for (std::size_t i = 1; i < 16; ++i) EXPECT_NEAR(h[i], 0.0, 1e-12);
}

TEST(DwtTest, FullDimensionTransformIsIsometry) {
  Rng rng(47);
  DwtTransform t(32, 32);
  Series x = RandomWalk(&rng, 32), y = RandomWalk(&rng, 32);
  EXPECT_NEAR(EuclideanDistance(t.Apply(x), t.Apply(y)), EuclideanDistance(x, y),
              1e-8);
}

// ---------- SVD specifics ----------

TEST(SvdTransformTest, OptimalAtZeroWarpOnTrainingData) {
  // On its own training distribution SVD should capture more pairwise
  // distance than PAA at the same dimensionality (it is the Euclidean-optimal
  // linear reduction; paper Fig. 7 at delta = 0).
  Rng rng(53);
  auto corpus = RandomCorpus(&rng, 100, 64);
  SvdTransform svd(corpus, 8);
  PaaTransform paa(64, 8);
  double svd_sum = 0.0, paa_sum = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    const Series& x = corpus[static_cast<std::size_t>(rng.UniformInt(0, 99))];
    const Series& y = corpus[static_cast<std::size_t>(rng.UniformInt(0, 99))];
    svd_sum += EuclideanDistance(svd.Apply(x), svd.Apply(y));
    paa_sum += EuclideanDistance(paa.Apply(x), paa.Apply(y));
  }
  EXPECT_GT(svd_sum, paa_sum);
}

}  // namespace
}  // namespace humdex
