// Metamorphic properties of the query engine: transformations of the corpus
// or query with a predictable effect on the answers.
#include <gtest/gtest.h>

#include "gemini/query_engine.h"
#include "ts/dtw.h"
#include "ts/normal_form.h"
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

std::unique_ptr<DtwQueryEngine> MakeEngine(const std::vector<Series>& corpus) {
  QueryEngineOptions opts;
  auto engine = std::make_unique<DtwQueryEngine>(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine->Add(corpus[i], static_cast<std::int64_t>(i));
  }
  return engine;
}

TEST(MetamorphicTest, AddingFarAwaySeriesDoesNotChangeAnswers) {
  Rng rng(3);
  std::vector<Series> corpus;
  for (int i = 0; i < 150; ++i) corpus.push_back(RandomWalk(&rng, 128));
  auto base = MakeEngine(corpus);

  std::vector<Series> polluted = corpus;
  for (int i = 0; i < 150; ++i) {
    Series far = RandomWalk(&rng, 128);
    for (double& v : far) v += 1e5;  // far from every query below
    polluted.push_back(far);
  }
  auto engine2 = MakeEngine(polluted);

  for (int q = 0; q < 10; ++q) {
    Series query = RandomWalk(&rng, 128);
    auto a = base->RangeQuery(query, 10.0);
    auto b = engine2->RangeQuery(query, 10.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
    }
  }
}

TEST(MetamorphicTest, InsertionOrderIrrelevantToAnswers) {
  Rng rng(5);
  std::vector<Series> corpus;
  for (int i = 0; i < 300; ++i) corpus.push_back(RandomWalk(&rng, 128));

  QueryEngineOptions opts;
  DtwQueryEngine forward(MakeNewPaaScheme(128, 8), opts);
  DtwQueryEngine backward(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    forward.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  for (std::size_t i = corpus.size(); i-- > 0;) {
    backward.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  for (int q = 0; q < 10; ++q) {
    Series query = RandomWalk(&rng, 128);
    auto a = forward.RangeQuery(query, 9.0);
    auto b = backward.RangeQuery(query, 9.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(MetamorphicTest, GrowingRadiusGrowsResultSetMonotonically) {
  Rng rng(7);
  std::vector<Series> corpus;
  for (int i = 0; i < 200; ++i) corpus.push_back(RandomWalk(&rng, 128));
  auto engine = MakeEngine(corpus);
  for (int q = 0; q < 5; ++q) {
    Series query = RandomWalk(&rng, 128);
    std::size_t prev = 0;
    for (double eps : {2.0, 5.0, 8.0, 12.0, 20.0}) {
      std::size_t count = engine->RangeQuery(query, eps).size();
      EXPECT_GE(count, prev);
      prev = count;
    }
  }
}

TEST(MetamorphicTest, QueryingAStoredSeriesReturnsItFirst) {
  Rng rng(9);
  std::vector<Series> corpus;
  for (int i = 0; i < 200; ++i) corpus.push_back(RandomWalk(&rng, 128));
  auto engine = MakeEngine(corpus);
  for (std::int64_t id : {0, 57, 199}) {
    auto nn = engine->KnnQuery(corpus[static_cast<std::size_t>(id)], 1);
    ASSERT_EQ(nn.size(), 1u);
    EXPECT_DOUBLE_EQ(nn[0].distance, 0.0);
  }
}

TEST(MetamorphicTest, BulkAndIncrementalBuildsAnswerIdentically) {
  Rng rng(11);
  std::vector<Series> corpus;
  for (int i = 0; i < 500; ++i) corpus.push_back(RandomWalk(&rng, 128));

  QueryEngineOptions opts;
  DtwQueryEngine incremental(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    incremental.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  DtwQueryEngine bulk(MakeNewPaaScheme(128, 8), opts);
  bulk.AddAll(corpus);

  for (int q = 0; q < 10; ++q) {
    Series query = RandomWalk(&rng, 128);
    auto a = incremental.RangeQuery(query, 9.0);
    auto b = bulk.RangeQuery(query, 9.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
    }
    auto ka = incremental.KnnQuery(query, 7);
    auto kb = bulk.KnnQuery(query, 7);
    ASSERT_EQ(ka.size(), kb.size());
    for (std::size_t i = 0; i < ka.size(); ++i) {
      EXPECT_NEAR(ka[i].distance, kb[i].distance, 1e-9);
    }
  }
}

TEST(MetamorphicTest, UniformTempoChangeOfQueryIsAbsorbedByNormalForm) {
  Rng rng(13);
  std::vector<Series> corpus;
  for (int i = 0; i < 100; ++i) corpus.push_back(RandomWalk(&rng, 128));
  auto engine = MakeEngine(corpus);

  Series raw = RandomWalk(&rng, 40);
  Series normal = NormalForm(raw, 128);
  Series slow_normal = NormalForm(Upsample(raw, 3), 128);
  auto a = engine->KnnQuery(normal, 5);
  auto b = engine->KnnQuery(slow_normal, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
  }
}

}  // namespace
}  // namespace humdex
