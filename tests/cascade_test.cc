// Exactness oracle for the squared-threshold filter cascade (DESIGN.md §10):
// for every index backend and feature scheme, range and kNN answers must be
// bit-identical to a brute-force banded-DTW scan with the one optional stage
// (LB_Keogh, both directions) on and off — and identically under the scalar
// reference kernels and every SIMD tier the machine can run (whole-query
// A/B via ScopedKernelOverride). The stage counters must account for every
// index candidate exactly once (pruned by Keogh or verified by exact DTW),
// the removed stages' counters must read zero, a disabled Keogh stage must
// report zero, and the counters must merge correctly through batch
// aggregation. A separate test pins down the value of the Keogh stage: it
// strictly reduces exact-DTW calls at identical answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gemini/query_engine.h"
#include "ts/kernels.h"
#include "ts/normal_form.h"
#include "util/random.h"

namespace humdex {
namespace {

constexpr std::size_t kLen = 64;
constexpr std::size_t kDim = 8;

std::vector<Series> RandomWalkNormalForms(std::size_t count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Series> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Series walk(kLen);
    double v = 0.0;
    for (double& x : walk) {
      v += rng.Uniform(-1.0, 1.0);
      x = v;
    }
    out.push_back(NormalForm(walk, kLen));
  }
  return out;
}

std::vector<Series> NoisyQueries(const std::vector<Series>& corpus,
                                 std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Series> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Series q = corpus[i % corpus.size()];
    for (double& x : q) x += rng.Uniform(-0.3, 0.3);
    out.push_back(NormalForm(q, kLen));
  }
  return out;
}

std::shared_ptr<FeatureScheme> SchemeFor(const std::string& name) {
  if (name == "new_paa") return MakeNewPaaScheme(kLen, kDim);
  return MakeDftScheme(kLen, kDim);
}

// The oracle: scan everything with the exact banded distance.
std::vector<Neighbor> BruteForceRange(const std::vector<Series>& corpus,
                                      const Series& query, double epsilon,
                                      std::size_t band_k) {
  std::vector<Neighbor> out;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    double d = LdtwDistance(query, corpus[i], band_k);
    if (d <= epsilon) out.push_back({static_cast<std::int64_t>(i), d});
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " at " << i;
    // Bit-identical, not merely close: the cascade verifies survivors with
    // the same LdtwDistance the oracle runs, on the same bytes.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " at " << i;
  }
}

/// The two cascade configurations: the Keogh stage on or off.
struct StageMask {
  bool keogh;
};

StageMask MaskFor(int mask) { return {(mask & 1) != 0}; }

std::string MaskName(const StageMask& m) {
  return std::string("keogh=") + (m.keogh ? "1" : "0");
}

QueryEngineOptions OptionsFor(IndexKind kind, const StageMask& m) {
  QueryEngineOptions opts;
  opts.normal_len = kLen;
  opts.index.kind = kind;
  opts.cascade.keogh = m.keogh;
  return opts;
}

/// Per-stage accounting identity for an untruncated query: every index
/// candidate is pruned by exactly one stage or reaches exact DTW, and
/// disabled stages never claim a prune.
void ExpectStageAccounting(const QueryStats& stats, const StageMask& m,
                           const std::string& what) {
  EXPECT_EQ(stats.exact_dtw_calls, stats.lb_survivors) << what;
  EXPECT_EQ(stats.keogh_pruned + stats.lb_survivors, stats.index_candidates)
      << what;
  // Removed stages (DESIGN.md §11) keep their fields, which always read 0.
  EXPECT_EQ(stats.kim_pruned + stats.triangle_pruned + stats.refine_pruned +
                stats.improved_pruned,
            0u)
      << what;
  EXPECT_EQ(stats.triangle_ns + stats.refine_ns + stats.improved_ns, 0u)
      << what;
  if (!m.keogh) {
    EXPECT_EQ(stats.keogh_pruned, 0u) << what;
  }
}

class CascadeExactnessTest
    : public ::testing::TestWithParam<std::tuple<IndexKind, std::string>> {};

TEST_P(CascadeExactnessTest, RangeMatchesBruteForceForEveryStageCombination) {
  auto [kind, scheme_name] = GetParam();
  std::vector<Series> corpus = RandomWalkNormalForms(200, 21);
  std::vector<Series> queries = NoisyQueries(corpus, 6, 87);

  for (int mask = 0; mask < 2; ++mask) {
    const StageMask m = MaskFor(mask);
    DtwQueryEngine engine(SchemeFor(scheme_name), OptionsFor(kind, m));
    engine.AddAll(corpus);
    const std::string what = MaskName(m);
    for (const Series& q : queries) {
      double epsilon = engine.KnnQuery(q, 5).back().distance;
      QueryStats stats;
      std::vector<Neighbor> got = engine.RangeQuery(q, epsilon, &stats);
      std::vector<Neighbor> want =
          BruteForceRange(corpus, q, epsilon, engine.band_radius());
      ExpectSameNeighbors(got, want, what);
      ExpectStageAccounting(stats, m, what);
      EXPECT_GE(stats.lb_survivors, stats.results) << what;
    }
  }
}

TEST_P(CascadeExactnessTest, KnnMatchesBruteForceForEveryStageCombination) {
  auto [kind, scheme_name] = GetParam();
  std::vector<Series> corpus = RandomWalkNormalForms(180, 31);
  std::vector<Series> queries = NoisyQueries(corpus, 4, 97);
  const std::size_t k = 7;

  std::vector<std::vector<Neighbor>> oracle;
  {
    // Oracle is cascade-independent; compute it once with any engine's band.
    DtwQueryEngine probe(SchemeFor(scheme_name),
                         OptionsFor(kind, MaskFor(0)));
    for (const Series& q : queries) {
      std::vector<Neighbor> all =
          BruteForceRange(corpus, q, kInfiniteDistance, probe.band_radius());
      std::sort(all.begin(), all.end());
      all.resize(k);
      oracle.push_back(std::move(all));
    }
  }

  for (int mask = 0; mask < 2; ++mask) {
    const StageMask m = MaskFor(mask);
    DtwQueryEngine engine(SchemeFor(scheme_name), OptionsFor(kind, m));
    engine.AddAll(corpus);
    const std::string what = MaskName(m);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryStats stats_two_step, stats_optimal;
      ExpectSameNeighbors(engine.KnnQuery(queries[i], k, &stats_two_step),
                          oracle[i], "two-step knn " + what);
      ExpectSameNeighbors(
          engine.KnnQueryOptimal(queries[i], k, &stats_optimal), oracle[i],
          "optimal knn " + what);
      EXPECT_EQ(stats_two_step.results, k) << what;
      EXPECT_EQ(stats_optimal.results, k) << what;
      // The optimal traversal examines each candidate exactly once too.
      ExpectStageAccounting(stats_optimal, m, "optimal knn " + what);
    }
  }
}

TEST_P(CascadeExactnessTest, ForcedScalarAndSimdTiersAgreeWholeQuery) {
  auto [kind, scheme_name] = GetParam();
  std::vector<Series> corpus = RandomWalkNormalForms(200, 41);
  std::vector<Series> queries = NoisyQueries(corpus, 6, 107);
  QueryEngineOptions opts;
  opts.normal_len = kLen;
  opts.index.kind = kind;
  DtwQueryEngine engine(SchemeFor(scheme_name), opts);
  engine.AddAll(corpus);

  for (const Series& q : queries) {
    double epsilon;
    std::vector<Neighbor> range_ref, knn_ref;
    {
      kernels::ScopedKernelOverride force_scalar(SimdLevel::kScalar);
      epsilon = engine.KnnQuery(q, 5).back().distance;
      range_ref = engine.RangeQuery(q, epsilon);
      knn_ref = engine.KnnQueryOptimal(q, 4);
    }
    for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
      if (kernels::KernelTableFor(level) == nullptr) continue;
      kernels::ScopedKernelOverride force(level);
      std::vector<Neighbor> range_got = engine.RangeQuery(q, epsilon);
      std::vector<Neighbor> knn_got = engine.KnnQueryOptimal(q, 4);
      ASSERT_EQ(range_got.size(), range_ref.size()) << SimdLevelName(level);
      for (std::size_t i = 0; i < range_got.size(); ++i) {
        EXPECT_EQ(range_got[i].id, range_ref[i].id);
        // The kernels are bit-identical across tiers, so so are the queries.
        EXPECT_EQ(range_got[i].distance, range_ref[i].distance);
      }
      ASSERT_EQ(knn_got.size(), knn_ref.size()) << SimdLevelName(level);
      for (std::size_t i = 0; i < knn_got.size(); ++i) {
        EXPECT_EQ(knn_got[i].id, knn_ref[i].id);
        EXPECT_EQ(knn_got[i].distance, knn_ref[i].distance);
      }
    }
  }
}

TEST_P(CascadeExactnessTest, RemoveKeepsArenaMirrorConsistent) {
  auto [kind, scheme_name] = GetParam();
  std::vector<Series> corpus = RandomWalkNormalForms(120, 51);
  std::vector<Series> queries = NoisyQueries(corpus, 4, 117);
  QueryEngineOptions opts;
  opts.normal_len = kLen;
  opts.index.kind = kind;
  DtwQueryEngine engine(SchemeFor(scheme_name), opts);
  engine.AddAll(corpus);

  // Remove a third of the corpus (hits the swap-remove path repeatedly),
  // then re-check range answers against a brute force over the survivors.
  Rng rng(61);
  std::vector<bool> removed(corpus.size(), false);
  for (int i = 0; i < 40; ++i) {
    std::size_t id = rng.NextBounded(static_cast<std::uint32_t>(corpus.size()));
    if (!removed[id]) {
      ASSERT_TRUE(engine.Remove(static_cast<std::int64_t>(id)));
      removed[id] = true;
    }
  }
  for (const Series& q : queries) {
    double epsilon = engine.KnnQuery(q, 5).back().distance;
    std::vector<Neighbor> got = engine.RangeQuery(q, epsilon);
    std::vector<Neighbor> want;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (removed[i]) continue;
      double d = LdtwDistance(q, corpus[i], engine.band_radius());
      if (d <= epsilon) want.push_back({static_cast<std::int64_t>(i), d});
    }
    std::sort(want.begin(), want.end());
    ExpectSameNeighbors(got, want, "post-remove range");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CascadeExactnessTest,
    ::testing::Combine(::testing::Values(IndexKind::kRStarTree,
                                         IndexKind::kGridFile,
                                         IndexKind::kLinearScan),
                       ::testing::Values(std::string("new_paa"),
                                         std::string("dft"))),
    [](const auto& info) {
      std::string kind;
      switch (std::get<0>(info.param)) {
        case IndexKind::kRStarTree: kind = "rstar"; break;
        case IndexKind::kGridFile: kind = "grid"; break;
        case IndexKind::kLinearScan: kind = "linear"; break;
      }
      return kind + "_" + std::get<1>(info.param);
    });

// Batch aggregation must sum the new counters exactly like the old ones.
TEST(CascadeStatsTest, BatchAggregationSumsNewCounters) {
  std::vector<Series> corpus = RandomWalkNormalForms(150, 71);
  std::vector<Series> queries = NoisyQueries(corpus, 12, 127);
  QueryEngineOptions opts;
  opts.normal_len = kLen;
  DtwQueryEngine engine(MakeNewPaaScheme(kLen, kDim), opts);
  engine.AddAll(corpus);
  double epsilon = engine.KnnQuery(queries[0], 5).back().distance;

  QueryStats sum_serial;
  for (const Series& q : queries) {
    QueryStats s;
    engine.RangeQuery(q, epsilon, &s);
    sum_serial += s;
  }
  QueryStats aggregate;
  engine.RangeQueryBatch(queries, epsilon, /*threads=*/4, &aggregate);
  EXPECT_EQ(aggregate.index_candidates, sum_serial.index_candidates);
  EXPECT_EQ(aggregate.keogh_pruned, sum_serial.keogh_pruned);
  EXPECT_EQ(aggregate.lb_survivors, sum_serial.lb_survivors);
  EXPECT_EQ(aggregate.exact_dtw_calls, sum_serial.exact_dtw_calls);
  EXPECT_EQ(aggregate.results, sum_serial.results);
  EXPECT_GT(aggregate.lb_ns + aggregate.dtw_ns, 0u);
}

// Disabling the Keogh stage can only shift work onto exact DTW, never change
// the answer; enabling it must strictly reduce exact-DTW calls on a workload
// where the filter has anything to do at all.
TEST(CascadeStatsTest, StagesReduceExactDtwCallsWithoutChangingAnswers) {
  std::vector<Series> corpus = RandomWalkNormalForms(300, 81);
  std::vector<Series> queries = NoisyQueries(corpus, 16, 137);

  auto run = [&](bool keogh, QueryStats* total) {
    QueryEngineOptions opts;
    opts.normal_len = kLen;
    opts.cascade.keogh = keogh;
    DtwQueryEngine engine(MakeNewPaaScheme(kLen, kDim), opts);
    engine.AddAll(corpus);
    std::vector<std::vector<Neighbor>> out;
    for (const Series& q : queries) {
      double epsilon = engine.KnnQuery(q, 3).back().distance;
      QueryStats s;
      out.push_back(engine.RangeQuery(q, 1.5 * epsilon, &s));
      *total += s;
    }
    return out;
  };

  QueryStats off, on;
  auto results_off = run(false, &off);
  auto results_on = run(true, &on);
  ASSERT_EQ(results_off.size(), results_on.size());
  for (std::size_t i = 0; i < results_off.size(); ++i) {
    ExpectSameNeighbors(results_on[i], results_off[i], "stage ablation");
  }
  EXPECT_LT(on.exact_dtw_calls, off.exact_dtw_calls)
      << "Keogh pruned nothing on a workload built to exercise it";
  EXPECT_GT(on.keogh_pruned, 0u);
}

}  // namespace
}  // namespace humdex
