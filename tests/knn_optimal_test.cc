#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gemini/query_engine.h"
#include "index/linear_scan.h"
#include "index/rstar_tree.h"
#include "ts/dtw.h"
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

TEST(NearestToRectTest, RStarMatchesLinearScan) {
  Rng rng(3);
  RStarTree tree(4);
  LinearScanIndex scan(4);
  for (std::int64_t id = 0; id < 1500; ++id) {
    Series p(4);
    for (double& v : p) v = rng.Uniform(-10, 10);
    tree.Insert(p, id);
    scan.Insert(p, id);
  }
  for (int q = 0; q < 25; ++q) {
    Series a(4), b(4), lo(4), hi(4);
    for (std::size_t d = 0; d < 4; ++d) {
      a[d] = rng.Uniform(-10, 10);
      b[d] = rng.Uniform(-10, 10);
      lo[d] = std::min(a[d], b[d]);
      hi[d] = std::max(a[d], b[d]);
    }
    Rect rect(lo, hi);
    auto t = tree.NearestToRect(rect, 10);
    auto s = scan.NearestToRect(rect, 10);
    ASSERT_EQ(t.size(), s.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(t[i].distance, s[i].distance, 1e-9);
    }
  }
}

TEST(NearestToRectTest, PointsInsideRectAtDistanceZero) {
  RStarTree tree(2);
  tree.Insert({1.0, 1.0}, 0);
  tree.Insert({5.0, 5.0}, 1);
  auto nn = tree.NearestToRect(Rect({0, 0}, {2, 2}), 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].id, 0);
  EXPECT_DOUBLE_EQ(nn[0].distance, 0.0);
  EXPECT_NEAR(nn[1].distance, std::sqrt(18.0), 1e-12);
}

class KnnOptimalTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KnnOptimalTest, AgreesWithTwoStepKnn) {
  const std::size_t k = GetParam();
  Rng rng(42 + k);
  std::vector<Series> corpus;
  for (int i = 0; i < 400; ++i) corpus.push_back(RandomWalk(&rng, 128));
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  for (int q = 0; q < 10; ++q) {
    Series query = RandomWalk(&rng, 128);
    auto two_step = engine.KnnQuery(query, k);
    auto optimal = engine.KnnQueryOptimal(query, k);
    ASSERT_EQ(two_step.size(), optimal.size());
    for (std::size_t i = 0; i < two_step.size(); ++i) {
      EXPECT_NEAR(two_step[i].distance, optimal[i].distance, 1e-9);
    }
  }
}

TEST_P(KnnOptimalTest, NeverComputesMoreExactDtwThanTwoStep) {
  const std::size_t k = GetParam();
  Rng rng(77 + k);
  std::vector<Series> corpus;
  for (int i = 0; i < 600; ++i) corpus.push_back(RandomWalk(&rng, 128));
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  std::size_t total_two_step = 0, total_optimal = 0;
  for (int q = 0; q < 15; ++q) {
    Series query = RandomWalk(&rng, 128);
    QueryStats ts, os;
    engine.KnnQuery(query, k, &ts);
    engine.KnnQueryOptimal(query, k, &os);
    total_two_step += ts.exact_dtw_calls;
    total_optimal += os.exact_dtw_calls;
  }
  EXPECT_LE(total_optimal, total_two_step);
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnOptimalTest, ::testing::Values(1, 5, 20));

TEST(KnnOptimalTest, ExactAgainstBruteForce) {
  Rng rng(11);
  std::vector<Series> corpus;
  for (int i = 0; i < 250; ++i) corpus.push_back(RandomWalk(&rng, 128));
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  const std::size_t band = engine.band_radius();
  for (int q = 0; q < 6; ++q) {
    Series query = RandomWalk(&rng, 128);
    auto got = engine.KnnQueryOptimal(query, 7);
    std::vector<double> all;
    for (const Series& s : corpus) all.push_back(LdtwDistance(query, s, band));
    std::sort(all.begin(), all.end());
    ASSERT_EQ(got.size(), 7u);
    for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(got[i].distance, all[i], 1e-9);
  }
}

// Exact distance ties: every series is stored three times under shuffled
// ids, so each distance occurs at least three times and most k-th neighbors
// tie with candidates outside the answer. Both kNN algorithms must return
// the brute-force answer exactly — among equal distances the smaller ids,
// in (distance, id) order.
TEST(KnnOptimalTest, DuplicateCorpusTiesMatchBruteForce) {
  Rng rng(5);
  std::vector<Series> walks;
  for (int i = 0; i < 60; ++i) walks.push_back(RandomWalk(&rng, 128));
  std::vector<std::int64_t> ids(3 * walks.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.NextBounded(static_cast<std::uint32_t>(i + 1))]);
  }
  std::vector<Series> corpus;  // corpus[i] is stored under ids[i]
  for (std::size_t i = 0; i < ids.size(); ++i) {
    corpus.push_back(walks[i % walks.size()]);
  }
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), QueryEngineOptions());
  engine.AddAll(corpus, ids);
  const std::size_t band = engine.band_radius();

  for (int q = 0; q < 40; ++q) {
    // Half the queries are stored walks, half fresh ones.
    Series query = q % 2 == 0 ? walks[static_cast<std::size_t>(q)]
                              : RandomWalk(&rng, 128);
    std::vector<Neighbor> all;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      all.push_back({ids[i], LdtwDistance(query, corpus[i], band)});
    }
    std::sort(all.begin(), all.end());
    for (std::size_t k : {1u, 2u, 4u, 5u, 7u}) {
      const std::vector<Neighbor> want(all.begin(), all.begin() + k);
      for (bool optimal : {false, true}) {
        std::vector<Neighbor> got = optimal ? engine.KnnQueryOptimal(query, k)
                                            : engine.KnnQuery(query, k);
        ASSERT_EQ(got.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(got[i].id, want[i].id)
              << (optimal ? "optimal" : "two-step") << " q=" << q
              << " k=" << k << " at " << i;
          EXPECT_EQ(got[i].distance, want[i].distance);
        }
      }
    }
  }
}

TEST(KnnOptimalTest, EdgeCases) {
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  Series q(128, 0.0);
  EXPECT_TRUE(engine.KnnQueryOptimal(q, 3).empty());
  engine.Add(Series(128, 1.0), 0);
  engine.Add(Series(128, 2.0), 1);
  EXPECT_TRUE(engine.KnnQueryOptimal(q, 0).empty());
  auto nn = engine.KnnQueryOptimal(q, 10);  // k > size
  EXPECT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].id, 0);
}

}  // namespace
}  // namespace humdex
