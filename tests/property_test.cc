// Cross-module property sweeps: the paper's correctness claims checked over
// parameter grids (warping width x dimensionality x data family).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "transform/feature_scheme.h"
#include "ts/dtw.h"
#include "ts/lower_bound.h"
#include "util/random.h"

namespace humdex {
namespace {

enum class DataFamily { kRandomWalk, kWhiteNoise, kSine, kStep, kMelodyLike };

Series MakeSeries(DataFamily family, Rng* rng, std::size_t n) {
  Series x(n);
  switch (family) {
    case DataFamily::kRandomWalk: {
      double v = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        v += rng->Gaussian();
        x[i] = v;
      }
      break;
    }
    case DataFamily::kWhiteNoise:
      for (double& v : x) v = rng->Gaussian();
      break;
    case DataFamily::kSine: {
      double freq = rng->Uniform(1.0, 6.0);
      double phase = rng->Uniform(0.0, 2.0 * M_PI);
      double amp = rng->Uniform(0.5, 3.0);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = amp * std::sin(2.0 * M_PI * freq * i / n + phase);
      }
      break;
    }
    case DataFamily::kStep: {
      double level = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (rng->Bernoulli(0.05)) level = rng->Uniform(-3.0, 3.0);
        x[i] = level;
      }
      break;
    }
    case DataFamily::kMelodyLike: {
      double pitch = rng->UniformInt(-6, 6);
      std::size_t i = 0;
      while (i < n) {
        std::size_t dur = static_cast<std::size_t>(rng->UniformInt(4, 16));
        for (std::size_t j = 0; j < dur && i < n; ++j, ++i) x[i] = pitch;
        pitch += rng->UniformInt(-3, 3);
      }
      break;
    }
  }
  return x;
}

using SweepParam = std::tuple<DataFamily, std::size_t /*k*/, std::size_t /*dim*/>;

class TheoremOneSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TheoremOneSweep, AllSchemesLowerBoundDtw) {
  auto [family, k, dim] = GetParam();
  const std::size_t n = 64;
  Rng rng(static_cast<std::uint64_t>(k * 100 + dim));
  std::vector<Series> corpus;
  for (int i = 0; i < 30; ++i) corpus.push_back(MakeSeries(family, &rng, n));

  std::vector<std::shared_ptr<FeatureScheme>> schemes = {
      MakeNewPaaScheme(n, dim), MakeKeoghPaaScheme(n, dim), MakeDftScheme(n, dim),
      MakeDwtScheme(n, dim), MakeSvdScheme(corpus, dim)};

  for (int trial = 0; trial < 15; ++trial) {
    Series x = MakeSeries(family, &rng, n);
    Series y = MakeSeries(family, &rng, n);
    double dtw = LdtwDistance(x, y, k);
    Envelope env_y = BuildEnvelope(y, k);
    double lb_raw = LbKeogh(x, env_y);
    EXPECT_LE(lb_raw, dtw + 1e-9);
    for (const auto& scheme : schemes) {
      Series fx = scheme->Features(x);
      Envelope fe = scheme->ReduceEnvelope(env_y);
      double lb = DistanceToEnvelope(fx, fe);
      EXPECT_LE(lb, dtw + 1e-9) << scheme->name() << " k=" << k << " dim=" << dim;
      // Reduced-dimension bound can never beat the raw envelope bound.
      EXPECT_LE(lb, lb_raw + 1e-9) << scheme->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremOneSweep,
    ::testing::Combine(::testing::Values(DataFamily::kRandomWalk,
                                         DataFamily::kWhiteNoise, DataFamily::kSine,
                                         DataFamily::kStep, DataFamily::kMelodyLike),
                       ::testing::Values(0u, 3u, 6u, 13u),
                       ::testing::Values(4u, 8u, 16u)));

class NewBeatsKeoghSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(NewBeatsKeoghSweep, NewPaaTightnessDominates) {
  auto [k, dim] = GetParam();
  const std::size_t n = 128;
  Rng rng(static_cast<std::uint64_t>(7000 + k * 10 + dim));
  auto new_paa = MakeNewPaaScheme(n, dim);
  auto keogh = MakeKeoghPaaScheme(n, dim);
  for (int trial = 0; trial < 40; ++trial) {
    Series x = MakeSeries(DataFamily::kRandomWalk, &rng, n);
    Series y = MakeSeries(DataFamily::kRandomWalk, &rng, n);
    Envelope env_y = BuildEnvelope(y, k);
    double lb_new = DistanceToEnvelope(new_paa->Features(x),
                                       new_paa->ReduceEnvelope(env_y));
    double lb_keogh = DistanceToEnvelope(keogh->Features(x),
                                         keogh->ReduceEnvelope(env_y));
    EXPECT_GE(lb_new, lb_keogh - 1e-9) << "k=" << k << " dim=" << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NewBeatsKeoghSweep,
                         ::testing::Combine(::testing::Values(0u, 3u, 6u, 13u, 26u),
                                            ::testing::Values(4u, 8u, 16u, 32u)));

class EnvelopeWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnvelopeWidthSweep, BoundsLooseMonotonicallyWithBand) {
  // Wider bands -> wider envelopes -> smaller (looser) lower bounds, for the
  // raw bound and for every reduced bound.
  const std::size_t dim = GetParam();
  const std::size_t n = 128;
  Rng rng(9000 + dim);
  auto scheme = MakeNewPaaScheme(n, dim);
  for (int trial = 0; trial < 20; ++trial) {
    Series x = MakeSeries(DataFamily::kRandomWalk, &rng, n);
    Series y = MakeSeries(DataFamily::kRandomWalk, &rng, n);
    double prev_raw = kInfiniteDistance, prev_red = kInfiniteDistance;
    for (std::size_t k : {0u, 2u, 4u, 8u, 16u, 32u}) {
      Envelope env = BuildEnvelope(y, k);
      double raw = LbKeogh(x, env);
      double red = DistanceToEnvelope(scheme->Features(x), scheme->ReduceEnvelope(env));
      EXPECT_LE(raw, prev_raw + 1e-9);
      EXPECT_LE(red, prev_red + 1e-9);
      prev_raw = raw;
      prev_red = red;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, EnvelopeWidthSweep, ::testing::Values(4u, 8u, 32u));

}  // namespace
}  // namespace humdex
