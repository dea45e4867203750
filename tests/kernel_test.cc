// Equivalence properties of the dispatched SIMD kernels (ts/kernels.h): every
// variant the binary carries must produce BIT-IDENTICAL output to the scalar
// reference on the same inputs — the whole-query exactness argument of
// DESIGN.md §10 rests on this. Lengths sweep 1..1024 so every lane remainder
// of the 2-wide (SSE2) and 4-wide (AVX2) main loops is hit; inputs include
// denormals and ±infinity, and abandoning thresholds exercise every
// checkpoint path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "ts/dtw.h"
#include "ts/envelope.h"
#include "ts/codec.h"
#include "ts/kernels.h"
#include "ts/lower_bound.h"
#include "util/random.h"

namespace humdex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bitwise comparison: NaN == NaN, +0 != -0. The kernels are deterministic
// functions of their input bits, so nothing weaker is acceptable.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "bit mismatch: " << a << " vs " << b;
}

Series RandomSeries(Rng* rng, std::size_t n) {
  Series x(n);
  for (double& v : x) v = rng->Uniform(-4.0, 4.0);
  return x;
}

// A box around a random center, occasionally degenerate (lo == hi).
void RandomBox(Rng* rng, std::size_t n, Series* lo, Series* hi) {
  lo->resize(n);
  hi->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double c = rng->Uniform(-4.0, 4.0);
    double w = rng->Bernoulli(0.1) ? 0.0 : rng->Uniform(0.0, 1.0);
    (*lo)[i] = c - w;
    (*hi)[i] = c + w;
  }
}

// Sprinkle special values: denormals, ±inf, exact zeros.
void AddSpecials(Rng* rng, Series* x) {
  for (double& v : *x) {
    if (rng->Bernoulli(0.05)) v = 4.9e-324;   // smallest denormal
    if (rng->Bernoulli(0.03)) v = -2.3e-310;  // denormal
    if (rng->Bernoulli(0.02)) v = 0.0;
    if (rng->Bernoulli(0.02)) v = kInf;
    if (rng->Bernoulli(0.02)) v = -kInf;
  }
}

// A box rounded outward to float rows, as the candidate arena stores it.
void ToFloatBox(const Series& lo, const Series& hi, std::vector<float>* flo,
                std::vector<float>* fhi) {
  flo->resize(lo.size());
  fhi->resize(hi.size());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    (*flo)[i] = FloatAtOrBelow(lo[i]);
    (*fhi)[i] = FloatAtOrAbove(hi[i]);
  }
}

// Adversarial doubles for outward rounding: beyond +-FLT_MAX (and just past
// it, inside the float rounding range), double and float subnormals, signed
// zeros, infinities, and values exactly representable in float.
std::vector<double> RoundingEdgeValues() {
  const double fmax = std::numeric_limits<float>::max();
  const double fden = std::numeric_limits<float>::denorm_min();
  std::vector<double> out = {
      0.0,  -0.0,  1e300, -1e300, fmax, -fmax, fmax * (1 + 1e-9),
      -fmax * (1 + 1e-9), std::nextafter(fmax, kInf), kInf, -kInf,
      4.9e-324, -4.9e-324, -2.3e-310, 2.3e-310, fden, -fden, fden / 3,
      -fden / 3, 1e-40, -1e-40, 0.5, -1.25, 3.0, 1.0 / 3.0, -0.1,
      std::numeric_limits<float>::min(), -std::numeric_limits<float>::min()};
  return out;
}

// Sprinkle the rounding edge values over x.
void AddRoundingEdges(Rng* rng, Series* x) {
  const std::vector<double> edges = RoundingEdgeValues();
  for (double& v : *x) {
    if (rng->Bernoulli(0.1)) {
      v = edges[rng->NextBounded(static_cast<std::uint32_t>(edges.size()))];
    }
  }
}

std::vector<SimdLevel> VariantLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (kernels::KernelTableFor(level) != nullptr) out.push_back(level);
  }
  return out;
}

class KernelVariantTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    table_ = kernels::KernelTableFor(GetParam());
    if (table_ == nullptr) {
      GTEST_SKIP() << "tier " << SimdLevelName(GetParam())
                   << " not available in this binary/CPU";
    }
  }
  const kernels::KernelTable* table_ = nullptr;
};

TEST_P(KernelVariantTest, SqDistToBoxMatchesScalarBitForBitAllLengths) {
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  Rng rng(42);
  for (std::size_t n = 1; n <= 1024; n = n < 140 ? n + 1 : n + 97) {
    Series x = RandomSeries(&rng, n), lo, hi;
    RandomBox(&rng, n, &lo, &hi);
    double ref = scalar.sq_dist_to_box(x.data(), lo.data(), hi.data(), n, kInf);
    double got = table_->sq_dist_to_box(x.data(), lo.data(), hi.data(), n, kInf);
    EXPECT_TRUE(BitEqual(ref, got)) << "n=" << n;
  }
}

TEST_P(KernelVariantTest, SqDistToBoxMatchesScalarOnSpecialValues) {
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t n = 1 + rng.NextBounded(300);
    Series x = RandomSeries(&rng, n), lo, hi;
    RandomBox(&rng, n, &lo, &hi);
    AddSpecials(&rng, &x);
    double ref = scalar.sq_dist_to_box(x.data(), lo.data(), hi.data(), n, kInf);
    double got = table_->sq_dist_to_box(x.data(), lo.data(), hi.data(), n, kInf);
    EXPECT_TRUE(BitEqual(ref, got)) << "trial=" << trial << " n=" << n;
  }
}

TEST_P(KernelVariantTest, SqDistToBoxAbandonMatchesScalarAndStaysLowerBound) {
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  Rng rng(44);
  for (int trial = 0; trial < 300; ++trial) {
    std::size_t n = 1 + rng.NextBounded(400);
    Series x = RandomSeries(&rng, n), lo, hi;
    RandomBox(&rng, n, &lo, &hi);
    double full = scalar.sq_dist_to_box(x.data(), lo.data(), hi.data(), n, kInf);
    // Thresholds from 0 (abandon at the first checkpoint) through the full
    // sum (never abandon), including exactly the full sum.
    for (double frac : {0.0, 0.1, 0.5, 0.9, 1.0, 2.0}) {
      double abandon = full * frac;
      double ref =
          scalar.sq_dist_to_box(x.data(), lo.data(), hi.data(), n, abandon);
      double got =
          table_->sq_dist_to_box(x.data(), lo.data(), hi.data(), n, abandon);
      EXPECT_TRUE(BitEqual(ref, got))
          << "trial=" << trial << " n=" << n << " frac=" << frac;
      // Partial or not, the return is a lower bound of the full sum, and a
      // return <= abandon implies it IS the full sum.
      if (!std::isnan(ref)) {
        EXPECT_LE(ref, full);
        if (ref <= abandon) EXPECT_TRUE(BitEqual(ref, full));
      }
    }
  }
}

// The float-box entry matches the scalar reference bit for bit in every
// tier, abandoning or not, and equals the double kernel over the widened
// rows: widening is exact, so nothing but the loads differs.
TEST_P(KernelVariantTest, SqDistToFboxMatchesScalarBitForBitAllLengths) {
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  Rng rng(49);
  for (std::size_t n = 1; n <= 1024; n = n < 140 ? n + 1 : n + 97) {
    Series x = RandomSeries(&rng, n), lo, hi;
    RandomBox(&rng, n, &lo, &hi);
    if (n % 3 == 0) {
      AddRoundingEdges(&rng, &lo);
      AddRoundingEdges(&rng, &hi);
    }
    std::vector<float> flo, fhi;
    ToFloatBox(lo, hi, &flo, &fhi);
    const double full =
        scalar.sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n, kInf);
    const Series wlo(flo.begin(), flo.end()), whi(fhi.begin(), fhi.end());
    EXPECT_TRUE(BitEqual(
        full, scalar.sq_dist_to_box(x.data(), wlo.data(), whi.data(), n, kInf)))
        << "n=" << n;
    for (double frac : {0.0, 0.1, 0.5, 1.0, 2.0, kInf}) {
      const double abandon = full * frac;
      const double ref =
          scalar.sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n, abandon);
      const double got =
          table_->sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n, abandon);
      EXPECT_TRUE(BitEqual(ref, got)) << "n=" << n << " frac=" << frac;
    }
  }
}

// Definitional banded DP over the full matrix: D(i, j) = cost + min of the
// three predecessors, cells outside |i - j| <= k infinite. Rounding is
// monotone, so cost + min(...) equals the kernels' min over per-predecessor
// sums bit for bit on finite inputs.
double NaiveSquaredLdtw(const Series& x, const Series& y, std::size_t k) {
  const std::size_t n = x.size(), m = y.size();
  std::vector<double> d(n * m, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if ((i > j ? i - j : j - i) > k) continue;
      double best = i == 0 && j == 0 ? 0.0 : kInf;
      if (i > 0) best = std::min(best, d[(i - 1) * m + j]);
      if (j > 0) best = std::min(best, d[i * m + j - 1]);
      if (i > 0 && j > 0) best = std::min(best, d[(i - 1) * m + j - 1]);
      const double diff = x[i] - y[j];
      d[i * m + j] = diff * diff + best;
    }
  }
  return d[n * m - 1];
}

// Runs `table`'s lane kernel on every candidate at once, and the scalar
// reference one candidate at a time, and checks every output bit for bit.
void ExpectLanesMatchScalar(const kernels::KernelTable& table, const Series& x,
                            const std::vector<Series>& ys, std::size_t k,
                            double threshold_sq, const std::string& label) {
  const std::size_t m = ys.front().size();
  std::vector<const double*> rows;
  for (const Series& y : ys) rows.push_back(y.data());
  std::vector<double> scratch(kernels::LdtwScratchDoubles(m));
  std::vector<double> got(ys.size());
  table.ldtw_lanes(x.data(), x.size(), rows.data(), m, ys.size(), k,
                   threshold_sq, scratch.data(), got.data());
  for (std::size_t c = 0; c < ys.size(); ++c) {
    double ref = 0.0;
    kernels::ScalarKernels().ldtw_lanes(x.data(), x.size(), &rows[c], m, 1, k,
                                        threshold_sq, scratch.data(), &ref);
    EXPECT_TRUE(BitEqual(ref, got[c]))
        << label << " candidate " << c << " of " << ys.size();
    EXPECT_TRUE(BitEqual(ref, SquaredLdtwDistanceEarlyAbandon(x, ys[c], k,
                                                              threshold_sq)))
        << label << " candidate " << c;
  }
}

TEST_P(KernelVariantTest, LdtwLanesMatchScalarOnRaggedBatchesAndBands) {
  Rng rng(45);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(70);
    // Every ragged tail of the 2-, 4- and 8-lane groups.
    const std::size_t count = 1 + rng.NextBounded(17);
    Series x = RandomSeries(&rng, n);
    std::vector<Series> ys;
    for (std::size_t c = 0; c < count; ++c) ys.push_back(RandomSeries(&rng, n));
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          n - 1, n, n + 4}) {
      const std::string label = "trial=" + std::to_string(trial) +
                                " n=" + std::to_string(n) +
                                " k=" + std::to_string(k);
      ExpectLanesMatchScalar(*table_, x, ys, k, kInf, label);
    }
  }
}

TEST_P(KernelVariantTest, LdtwLanesAbandonPerLaneAtDifferentRows) {
  Rng rng(46);
  const std::size_t n = 96, k = 5;
  int mixed_batches = 0;  // some lanes abandoned, others finished
  for (int trial = 0; trial < 40; ++trial) {
    Series x = RandomSeries(&rng, n);
    // Candidate c follows the query up to row 6c, then jumps away, so each
    // lane's row minimum crosses a threshold at a different row.
    const std::size_t count = 1 + rng.NextBounded(12);
    std::vector<Series> ys;
    std::vector<double> exact;
    for (std::size_t c = 0; c < count; ++c) {
      Series y = x;
      for (std::size_t j = 6 * c; j < n; ++j) y[j] += 3.0 + rng.Uniform(0.0, 1.0);
      exact.push_back(SquaredLdtwDistance(x, y, k));
      ys.push_back(std::move(y));
    }
    const std::string label = "trial=" + std::to_string(trial);
    // Thresholds between the candidates' distances abandon some lanes and
    // keep others; a threshold exactly equal to one lane's distance must
    // keep that lane, with its exact distance.
    const double pick = exact[rng.NextBounded(static_cast<std::uint32_t>(count))];
    for (double thr : {0.0, pick * 0.5, pick, 4.0, 40.0, kInf}) {
      ExpectLanesMatchScalar(*table_, x, ys, k, thr, label);
    }
    std::vector<const double*> rows;
    for (const Series& y : ys) rows.push_back(y.data());
    std::vector<double> scratch(kernels::LdtwScratchDoubles(n));
    std::vector<double> got(count);
    table_->ldtw_lanes(x.data(), n, rows.data(), n, count, k, pick,
                       scratch.data(), got.data());
    // A lane within the threshold is never abandoned; a lane past it may
    // finish (its last row dipped under the threshold) but then reports the
    // exact distance.
    std::size_t abandoned = 0;
    for (std::size_t c = 0; c < count; ++c) {
      if (exact[c] <= pick || !std::isinf(got[c])) {
        EXPECT_TRUE(BitEqual(exact[c], got[c])) << label << " c=" << c;
      }
      if (std::isinf(got[c])) ++abandoned;
    }
    if (abandoned > 0 && abandoned < count) ++mixed_batches;
  }
  EXPECT_GT(mixed_batches, 10);
}

TEST_P(KernelVariantTest, LdtwLanesMatchScalarOnSpecialValuesAndLengths) {
  Rng rng(47);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(40);
    const std::size_t m = 1 + rng.NextBounded(40);
    const std::size_t k = rng.NextBounded(12);
    Series x = RandomSeries(&rng, n);
    AddSpecials(&rng, &x);
    if (rng.Bernoulli(0.1)) x[0] = std::numeric_limits<double>::quiet_NaN();
    std::vector<Series> ys;
    const std::size_t count = 1 + rng.NextBounded(9);
    for (std::size_t c = 0; c < count; ++c) {
      ys.push_back(RandomSeries(&rng, m));
      AddSpecials(&rng, &ys.back());
    }
    // |n - m| > k yields infinity for every candidate; otherwise specials
    // propagate through the DP identically in every lane.
    const std::string label = "trial=" + std::to_string(trial);
    ExpectLanesMatchScalar(*table_, x, ys, k, kInf, label);
    ExpectLanesMatchScalar(*table_, x, ys, k, 10.0, label);
  }
}

TEST_P(KernelVariantTest, DeltaDecodeMatchesScalarBitForBitAllLengths) {
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  Rng rng(48);
  for (std::size_t n = 1; n <= 1024; n = n < 140 ? n + 1 : n + 97) {
    std::vector<std::int64_t> m(n);
    for (std::int64_t& v : m) {
      // Stay within the encoder's |m[i]| <= 2^50 bound that makes the
      // int64 -> double conversion exact in every variant.
      v = static_cast<std::int64_t>(rng.NextBounded(1u << 20)) - (1 << 19);
      if (rng.Bernoulli(0.05)) v <<= 30;
    }
    const double v0 = rng.Uniform(-100.0, 100.0);
    const double scale = std::ldexp(1.0, -20);
    std::vector<double> ref(n), got(n);
    scalar.delta_decode(m.data(), n, v0, scale, ref.data());
    table_->delta_decode(m.data(), n, v0, scale, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(ref[i], got[i])) << "n=" << n << " i=" << i;
    }
  }
}

// Values for the block kernel's inputs: signed zeros, subnormals, +-inf,
// NaN, magnitudes whose squares overflow, and ordinary values.
double BlockValue(Rng* rng) {
  switch (rng->NextBounded(12)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 4.9e-324;
    case 3: return -2.3e-310;
    case 4: return kInf;
    case 5: return -kInf;
    case 6: return std::numeric_limits<double>::quiet_NaN();
    case 7: return rng->Bernoulli(0.5) ? 1e200 : -1e300;
    default: return rng->Uniform(-4.0, 4.0);
  }
}

// The canonical lane of the block kernel for a rectangle entry, written out
// from its definition: clamp excess per dimension (maxpd operand order),
// dimension d into accumulator d % 4, HSum4, then the tail in sequence.
double BlockLaneReference(const double* q_lo, const double* q_hi,
                          const double* lo, const double* hi,
                          std::size_t dims) {
  auto max = [](double a, double b) { return a > b ? a : b; };
  auto gap_sq = [&](std::size_t d) {
    const double g = max(max(lo[d] - q_hi[d], q_lo[d] - hi[d]), 0.0);
    return g * g;
  };
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t dims4 = dims & ~std::size_t{3};
  std::size_t d = 0;
  for (; d < dims4; d += 4) {
    for (std::size_t l = 0; l < 4; ++l) acc[l] += gap_sq(d + l);
  }
  double s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; d < dims; ++d) s += gap_sq(d);
  return s;
}

// Bit-equal, except that any NaN equals any NaN: which NaN payload an add
// of two NaNs keeps depends on operand order, which no tier promises.
::testing::AssertionResult SameLaneValue(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  return BitEqual(a, b);
}

// Every lane of the block kernel, for every entry count 1..130 (each ragged
// tail of each tier's lane group) and dims 1..33, equals the box distance
// of its point (point blocks: lo and hi are the same rows) or the canonical
// blocked clamp-excess sum of its rectangle, in the scalar table and in
// this tier, on adversarial values.
TEST_P(KernelVariantTest, MindistBlockMatchesScalarBitForBit) {
  const std::vector<const kernels::KernelTable*> tables = {
      &kernels::ScalarKernels(), table_};
  Rng rng(61);
  std::vector<double> got;
  for (std::size_t count = 1; count <= 130; ++count) {
    const std::size_t dims = 1 + (count * 7) % 33;
    const std::size_t stride = count + rng.NextBounded(5);
    const bool specials = count % 3 == 0;
    Series q_lo(dims), q_hi(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      q_lo[d] = specials ? BlockValue(&rng) : rng.Uniform(-4.0, 4.0);
      q_hi[d] = q_lo[d] + (rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 2.0));
    }
    std::vector<double> lo(dims * stride), hi(dims * stride);
    for (std::size_t j = 0; j < lo.size(); ++j) {
      lo[j] = specials ? BlockValue(&rng) : rng.Uniform(-4.0, 4.0);
      hi[j] = lo[j] + (rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 1.0));
    }
    got.assign(count, 0.0);
    for (const kernels::KernelTable* table : tables) {
      // A block of points: each lane is sq_dist_to_box of its column.
      table->mindist_sq_block(q_lo.data(), q_hi.data(), lo.data(), lo.data(),
                              dims, count, stride, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        Series point(dims);
        for (std::size_t d = 0; d < dims; ++d) point[d] = lo[d * stride + i];
        const double want = kernels::ScalarKernels().sq_dist_to_box(
            point.data(), q_lo.data(), q_hi.data(), dims, kInf);
        EXPECT_TRUE(SameLaneValue(want, got[i]))
            << table->name << " point count=" << count << " dims=" << dims
            << " i=" << i;
      }
      // A block of rectangles.
      table->mindist_sq_block(q_lo.data(), q_hi.data(), lo.data(), hi.data(),
                              dims, count, stride, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        Series elo(dims), ehi(dims);
        for (std::size_t d = 0; d < dims; ++d) {
          elo[d] = lo[d * stride + i];
          ehi[d] = hi[d * stride + i];
        }
        const double want = BlockLaneReference(q_lo.data(), q_hi.data(),
                                               elo.data(), ehi.data(), dims);
        EXPECT_TRUE(SameLaneValue(want, got[i]))
            << table->name << " rect count=" << count << " dims=" << dims
            << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelVariantTest,
                         ::testing::Values(SimdLevel::kSse2, SimdLevel::kAvx2),
                         [](const auto& info) {
                           return std::string(SimdLevelName(info.param));
                         });

// The kernelized entry points (envelope distance, banded DTW) agree with
// definitional re-computation regardless of which table is active.
TEST(KernelDispatchTest, ActiveTableMatchesScalarThroughPublicApis) {
  Rng rng(46);
  for (SimdLevel level : VariantLevels()) {
    kernels::ScopedKernelOverride scalar_first(SimdLevel::kScalar);
    Series x = RandomSeries(&rng, 96), y = RandomSeries(&rng, 96);
    Envelope env = BuildEnvelope(y, 5);
    double d_env = SquaredDistanceToEnvelope(x, env);
    double d_dtw = SquaredLdtwDistance(x, y, 5);
    {
      kernels::ScopedKernelOverride with_simd(level);
      EXPECT_TRUE(BitEqual(d_env, SquaredDistanceToEnvelope(x, env)));
      EXPECT_TRUE(BitEqual(d_dtw, SquaredLdtwDistance(x, y, 5)));
    }
  }
}

// The scalar reference itself — batched or one candidate at a time — equals
// the definitional full-matrix DP bit for bit, in every build (including
// HUMDEX_SIMD=OFF, where the tier-parameterized tests skip).
TEST(KernelDispatchTest, ScalarLdtwMatchesDefinitionBitForBit) {
  Rng rng(57);
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(60);
    const std::size_t m = n + rng.NextBounded(4);
    const std::size_t count = 1 + rng.NextBounded(5);
    Series x = RandomSeries(&rng, n);
    std::vector<Series> ys;
    std::vector<const double*> rows;
    for (std::size_t c = 0; c < count; ++c) {
      ys.push_back(RandomSeries(&rng, m));
      rows.push_back(ys.back().data());
    }
    std::vector<double> scratch(kernels::LdtwScratchDoubles(m)), got(count);
    for (std::size_t k : {std::size_t{0}, std::size_t{2}, n, n + 3}) {
      scalar.ldtw_lanes(x.data(), n, rows.data(), m, count, k, kInf,
                        scratch.data(), got.data());
      for (std::size_t c = 0; c < count; ++c) {
        const double want = NaiveSquaredLdtw(x, ys[c], k);
        EXPECT_TRUE(BitEqual(want, got[c])) << "trial=" << trial << " k=" << k;
        EXPECT_TRUE(BitEqual(want, SquaredLdtwDistance(x, ys[c], k)));
      }
    }
  }
}

TEST(KernelDispatchTest, ForceScalarEnvVariableIsRespectedInTableFor) {
  // ActiveSimdLevel() caches the env lookup, so this only checks the level
  // enumeration helpers stay consistent; the end-to-end env-var behavior is
  // exercised by scripts/check.sh running this binary under
  // HUMDEX_FORCE_SCALAR=1.
  EXPECT_NE(kernels::KernelTableFor(SimdLevel::kScalar), nullptr);
  EXPECT_STREQ(kernels::ScalarKernels().name, "scalar");
  if (ForcedScalar()) {
    EXPECT_EQ(&kernels::ActiveKernels(), &kernels::ScalarKernels());
  }
}

// Outward rounding: FloatAtOrBelow(v) is the largest float <= v and
// FloatAtOrAbove(v) the smallest float >= v, for every edge value and a
// random sweep; a value exactly representable in float (signed zeros and
// infinities included) comes back with the same bits from both.
TEST(FloatEnvelopeTest, OutwardRoundingIsTightAndExactOnFloatValues) {
  std::vector<double> values = RoundingEdgeValues();
  Rng rng(50);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.Gaussian() * std::pow(2.0, rng.UniformInt(-160, 160)));
  }
  for (double v : values) {
    const float below = FloatAtOrBelow(v);
    const float above = FloatAtOrAbove(v);
    EXPECT_LE(static_cast<double>(below), v) << v;
    EXPECT_GE(static_cast<double>(above), v) << v;
    if (below != std::numeric_limits<float>::infinity()) {
      EXPECT_GT(static_cast<double>(std::nextafter(below, INFINITY)), v) << v;
    }
    if (above != -std::numeric_limits<float>::infinity()) {
      EXPECT_LT(static_cast<double>(std::nextafter(above, -INFINITY)), v) << v;
    }
    if (static_cast<double>(static_cast<float>(v)) == v) {
      EXPECT_TRUE(BitEqual(static_cast<double>(below), v)) << v;
      EXPECT_TRUE(BitEqual(static_cast<double>(above), v)) << v;
    }
  }
  const double fmax = std::numeric_limits<float>::max();
  EXPECT_EQ(FloatAtOrBelow(1e300), std::numeric_limits<float>::max());
  EXPECT_EQ(FloatAtOrAbove(1e300), INFINITY);
  EXPECT_EQ(FloatAtOrBelow(-1e300), -INFINITY);
  EXPECT_EQ(FloatAtOrAbove(-1e300), -std::numeric_limits<float>::max());
  EXPECT_EQ(FloatAtOrBelow(fmax * (1 + 1e-9)), std::numeric_limits<float>::max());
  EXPECT_EQ(FloatAtOrBelow(-2.3e-310), -std::numeric_limits<float>::denorm_min());
  EXPECT_EQ(FloatAtOrAbove(2.3e-310), std::numeric_limits<float>::denorm_min());
  EXPECT_TRUE(BitEqual(FloatAtOrAbove(-2.3e-310), -0.0));
  EXPECT_TRUE(BitEqual(FloatAtOrBelow(2.3e-310), 0.0));
}

// The float box the arena stores contains the double envelope, so LB_Keogh
// against it can only fall: LB(float box) <= LB(double box) <= LDTW, on
// random rows and on rows full of rounding edge values. The first
// inequality holds bit for bit (every step of the sum is monotone in the
// bounds); the second up to the cascade's 1e-12 relative slack.
TEST(FloatEnvelopeTest, FloatBoxContainsDoubleBoxAndLowersTheBound) {
  const kernels::KernelTable& active = kernels::ActiveKernels();
  Rng rng(51);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(300);
    const std::size_t k = rng.NextBounded(16);
    const bool adversarial = trial % 2 == 1;
    Series x = RandomSeries(&rng, n), y = RandomSeries(&rng, n);
    if (adversarial) AddRoundingEdges(&rng, &y);
    const Envelope env = BuildEnvelope(y, k);
    std::vector<float> flo, fhi;
    ToFloatBox(env.lower, env.upper, &flo, &fhi);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(static_cast<double>(flo[i]), env.lower[i]) << "i=" << i;
      EXPECT_GE(static_cast<double>(fhi[i]), env.upper[i]) << "i=" << i;
    }
    const double lb_float =
        active.sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n, kInf);
    const double lb_double = active.sq_dist_to_box(
        x.data(), env.lower.data(), env.upper.data(), n, kInf);
    EXPECT_LE(lb_float, lb_double) << "trial=" << trial;
    if (!adversarial) {
      const double ldtw = SquaredLdtwDistance(x, y, k);
      EXPECT_LE(lb_double, ldtw + ldtw * 1e-12) << "trial=" << trial;
    }
  }
}

// The dispatched float-box entry equals the scalar reference through the
// active table — the path HUMDEX_FORCE_SCALAR=1 demotes.
TEST(KernelDispatchTest, ActiveFboxMatchesScalarBitForBit) {
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  const kernels::KernelTable& active = kernels::ActiveKernels();
  Rng rng(52);
  for (std::size_t n = 1; n <= 1024; n = n < 140 ? n + 1 : n + 97) {
    Series x = RandomSeries(&rng, n), lo, hi;
    RandomBox(&rng, n, &lo, &hi);
    std::vector<float> flo, fhi;
    ToFloatBox(lo, hi, &flo, &fhi);
    const double full =
        scalar.sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n, kInf);
    for (double frac : {0.0, 0.5, 1.0, kInf}) {
      EXPECT_TRUE(BitEqual(
          scalar.sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n,
                                 full * frac),
          active.sq_dist_to_fbox(x.data(), flo.data(), fhi.data(), n,
                                 full * frac)))
          << "n=" << n << " frac=" << frac;
    }
  }
}

// LB_Improved is sandwiched between LB_Keogh and the exact banded distance,
// which is exactly why it earns its place in the cascade.
TEST(LbImprovedTest, SandwichedBetweenKeoghAndExactDtw) {
  Rng rng(47);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 8 + rng.NextBounded(120);
    const std::size_t k = rng.NextBounded(8);
    Series x = RandomSeries(&rng, n), y = RandomSeries(&rng, n);
    double keogh = LbKeogh(x, y, k);
    double improved = LbImproved(x, y, k);
    double exact = LdtwDistance(x, y, k);
    EXPECT_LE(keogh, improved + 1e-9) << "trial=" << trial;
    EXPECT_LE(improved, exact + 1e-9) << "trial=" << trial;
  }
}

// The two-pass decomposition used by the cascade (part1 carried from the
// Keogh stage, abandoning second pass) reproduces the reference bound.
TEST(LbImprovedTest, SecondPassDecompositionMatchesReference) {
  Rng rng(48);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 8 + rng.NextBounded(120);
    const std::size_t k = rng.NextBounded(8);
    Series x = RandomSeries(&rng, n), y = RandomSeries(&rng, n);
    Envelope env_y = BuildEnvelope(y, k);
    double part1 = SquaredDistanceToEnvelope(x, env_y);
    double part2 = SquaredLbImprovedSecondPass(x, y, env_y, k, kInf);
    double whole = SquaredLbImproved(x, y, env_y, k, kInf);
    EXPECT_TRUE(BitEqual(part1 + part2, whole)) << "trial=" << trial;
    EXPECT_NEAR(std::sqrt(whole), LbImproved(x, y, k), 1e-12);
  }
}

// The allocation-free second pass equals its definition — project, build
// the projection's envelope, measure y against it — bit for bit, including
// series of signed zeros where the envelope's tie rule picks the sign.
TEST(LbImprovedTest, SecondPassMatchesDefinitionBitForBit) {
  Rng rng(56);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(150);
    const std::size_t k = rng.NextBounded(10);
    Series x = RandomSeries(&rng, n), y = RandomSeries(&rng, n);
    if (trial % 4 == 0) {
      for (double& v : x) v = rng.Bernoulli(0.5) ? 0.0 : -0.0;
      for (double& v : y) v = rng.Bernoulli(0.5) ? 0.0 : -0.0;
    }
    Envelope env_y = BuildEnvelope(y, k);
    Envelope env_h = BuildEnvelope(ProjectOntoEnvelope(x, env_y), k);
    for (double abandon : {kInf, 1.0}) {
      EXPECT_TRUE(BitEqual(SquaredDistanceToEnvelope(y, env_h, abandon),
                           SquaredLbImprovedSecondPass(x, y, env_y, k, abandon)))
          << "trial=" << trial << " n=" << n << " k=" << k;
    }
  }
}

// The delta+bitpack series codec (ts/codec.h) that the v3 binary format
// persists pitch-like series with: losslessness is verified per series at
// encode time, and decode runs through the dispatched delta_decode kernel.
::testing::AssertionResult SeriesBitEqual(const Series& a, const Series& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto r = BitEqual(a[i], b[i]);
    if (!r) return r << " at index " << i;
  }
  return ::testing::AssertionSuccess();
}

Series PitchLikeSeries(Rng* rng, std::size_t n) {
  Series s(n);
  double v = 60.0;
  for (double& x : s) {
    v += (static_cast<double>(rng->NextBounded(9)) - 4.0) * 0.5;
    x = v;
  }
  return s;
}

TEST(CodecTest, PitchLikeSeriesRoundTripBitExactlyAndCompress) {
  Rng rng(49);
  for (std::size_t n : {1u, 2u, 3u, 64u, 128u, 1000u}) {
    Series s = PitchLikeSeries(&rng, n);
    std::string buf;
    std::size_t written = codec::EncodeSeries(s, &buf);
    EXPECT_EQ(written, buf.size());
    if (n >= 64) {
      EXPECT_LT(buf.size(), n * sizeof(double) / 2);  // at least 2x smaller
    }
    Series back;
    std::size_t pos = 0;
    ASSERT_TRUE(codec::DecodeSeries(buf, &pos, n, &back).ok()) << "n=" << n;
    EXPECT_EQ(pos, buf.size());
    EXPECT_TRUE(SeriesBitEqual(s, back)) << "n=" << n;
  }
}

TEST(CodecTest, UnpackableSeriesFallBackToRawAndStillRoundTrip) {
  // Values off the 2^-20 grid, huge ranges, specials: the encoder must fall
  // back to the raw block, and the round trip stays bit-exact regardless.
  Rng rng(50);
  Series s(37);
  for (double& v : s) v = rng.Uniform(-1e9, 1e9) * 1e-7;
  s[3] = 1e-300;                                      // denormal territory
  s[5] = std::numeric_limits<double>::quiet_NaN();    // raw preserves bits
  s[7] = kInf;
  std::string buf;
  codec::EncodeSeries(s, &buf);
  Series back;
  std::size_t pos = 0;
  ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &back).ok());
  EXPECT_TRUE(SeriesBitEqual(s, back));
}

TEST(CodecTest, DecodeIsBitIdenticalAcrossKernelTiers) {
  Rng rng(51);
  Series s = PitchLikeSeries(&rng, 512);
  std::string buf;
  codec::EncodeSeries(s, &buf);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 1u);  // packed mode

  Series scalar_out;
  {
    kernels::ScopedKernelOverride scalar(SimdLevel::kScalar);
    std::size_t pos = 0;
    ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &scalar_out).ok());
  }
  EXPECT_TRUE(SeriesBitEqual(s, scalar_out));
  for (SimdLevel level : VariantLevels()) {
    kernels::ScopedKernelOverride with_simd(level);
    Series out;
    std::size_t pos = 0;
    ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &out).ok());
    EXPECT_TRUE(SeriesBitEqual(scalar_out, out))
        << "tier " << SimdLevelName(level);
  }
}

TEST(CodecTest, TruncatedOrMalformedInputIsCorruptionNeverAbort) {
  Rng rng(52);
  Series s = PitchLikeSeries(&rng, 96);
  std::string buf;
  codec::EncodeSeries(s, &buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    Series out;
    std::size_t pos = 0;
    Status st = codec::DecodeSeries(buf.substr(0, len), &pos, s.size(), &out);
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << "len=" << len;
  }
  // Unknown mode byte and an over-wide bit width are rejected.
  Series out;
  std::size_t pos = 0;
  EXPECT_FALSE(codec::DecodeSeries(std::string("\x07junk"), &pos, 2, &out).ok());
  std::string wide = buf;
  wide[1] = 60;  // bit width > 53
  pos = 0;
  EXPECT_FALSE(codec::DecodeSeries(wide, &pos, s.size(), &out).ok());
}

// SkipSeries ends every encoding exactly where DecodeSeries does — raw,
// packed, packed with exceptions, and a constant series of zero-width
// deltas — and rejects every truncation, so a reader can frame a section
// first and decode its series in parallel.
TEST(CodecTest, SkipSeriesEndsWhereDecodeEndsInEveryMode) {
  Rng rng(54);
  std::vector<Series> cases;
  cases.push_back(PitchLikeSeries(&rng, 128));
  cases.push_back(Series(128, 1.5));
  cases.push_back(RandomSeries(&rng, 64));  // unpackable: raw
  cases.push_back(PitchLikeSeries(&rng, 128));
  cases.back()[77] = 2.0 + 0.123456789012345678;  // one exception
  cases.push_back(Series(1, 3.0));
  std::set<unsigned> modes;
  for (const Series& s : cases) {
    std::string buf;
    codec::EncodeSeries(s, &buf);
    modes.insert(static_cast<unsigned char>(buf[0]));
    buf += "next";  // a following series' bytes must not be consumed
    std::size_t skip_pos = 0, decode_pos = 0;
    ASSERT_TRUE(codec::SkipSeries(buf, &skip_pos, s.size()).ok());
    Series out;
    ASSERT_TRUE(codec::DecodeSeries(buf, &decode_pos, s.size(), &out).ok());
    EXPECT_EQ(skip_pos, decode_pos);
    EXPECT_EQ(skip_pos, buf.size() - 4);
    for (std::size_t len = 0; len < buf.size() - 4; ++len) {
      std::size_t pos = 0;
      EXPECT_EQ(codec::SkipSeries(buf.substr(0, len), &pos, s.size()).code(),
                Status::Code::kCorruption)
          << "len=" << len;
    }
  }
  EXPECT_EQ(modes, (std::set<unsigned>{0, 1, 2}));
  std::size_t pos = 0;
  EXPECT_FALSE(codec::SkipSeries(std::string("\x07junk"), &pos, 2).ok());
}

TEST(CodecTest, OutlierBecomesExceptionNotRawFallback) {
  // One full-precision value (the fermata-duration case: every generated
  // melody ends on one) must not force the whole series to 8 bytes/value.
  Rng rng(53);
  Series s = PitchLikeSeries(&rng, 128);
  s[77] = 2.0 + 0.123456789012345678;  // off every power-of-two grid
  std::string buf;
  codec::EncodeSeries(s, &buf);
  ASSERT_EQ(static_cast<unsigned char>(buf[0]), 2u);  // packed + exceptions
  EXPECT_LT(buf.size(), s.size() * sizeof(double) / 2);
  Series back;
  std::size_t pos = 0;
  ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &back).ok());
  EXPECT_EQ(pos, buf.size());
  EXPECT_TRUE(SeriesBitEqual(s, back));

  // A NaN outlier rides the same path and keeps its exact payload bits.
  s[12] = std::numeric_limits<double>::quiet_NaN();
  buf.clear();
  codec::EncodeSeries(s, &buf);
  ASSERT_EQ(static_cast<unsigned char>(buf[0]), 2u);
  Series back2;
  pos = 0;
  ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &back2).ok());
  EXPECT_TRUE(SeriesBitEqual(s, back2));
}

TEST(CodecTest, ExceptionModeSurvivesTruncationAndBadIndexes) {
  Rng rng(54);
  Series s = PitchLikeSeries(&rng, 64);
  s[10] = 1.0 / 3.0;
  s[40] = 2.0 / 7.0;
  std::string buf;
  codec::EncodeSeries(s, &buf);
  ASSERT_EQ(static_cast<unsigned char>(buf[0]), 2u);
  // Every strict prefix is corruption, never an abort or over-read.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    Series out;
    std::size_t pos = 0;
    Status st = codec::DecodeSeries(buf.substr(0, len), &pos, s.size(), &out);
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << "len=" << len;
  }
  // Exception indexes must be strictly ascending and in range.
  const std::size_t first_idx = buf.size() - 2 * 12;  // two (u32, double) pairs
  std::string swapped = buf;
  std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(first_idx),
                   swapped.begin() + static_cast<std::ptrdiff_t>(first_idx + 12),
                   swapped.begin() + static_cast<std::ptrdiff_t>(first_idx + 12));
  Series out;
  std::size_t pos = 0;
  EXPECT_EQ(codec::DecodeSeries(swapped, &pos, s.size(), &out).code(),
            Status::Code::kCorruption);
  std::string oob = buf;
  const std::uint32_t big = 1u << 20;
  std::memcpy(&oob[first_idx], &big, sizeof big);
  pos = 0;
  EXPECT_EQ(codec::DecodeSeries(oob, &pos, s.size(), &out).code(),
            Status::Code::kCorruption);
}

TEST(CodecTest, ExceptionModeBitIdenticalAcrossKernelTiers) {
  Rng rng(55);
  Series s = PitchLikeSeries(&rng, 256);
  s[100] = 0.1;  // off-grid
  std::string buf;
  codec::EncodeSeries(s, &buf);
  ASSERT_EQ(static_cast<unsigned char>(buf[0]), 2u);
  Series scalar_out;
  {
    kernels::ScopedKernelOverride scalar(SimdLevel::kScalar);
    std::size_t pos = 0;
    ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &scalar_out).ok());
  }
  EXPECT_TRUE(SeriesBitEqual(s, scalar_out));
  for (SimdLevel level : VariantLevels()) {
    kernels::ScopedKernelOverride with_simd(level);
    Series out;
    std::size_t pos = 0;
    ASSERT_TRUE(codec::DecodeSeries(buf, &pos, s.size(), &out).ok());
    EXPECT_TRUE(SeriesBitEqual(scalar_out, out))
        << "tier " << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace humdex
