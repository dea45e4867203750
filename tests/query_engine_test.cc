#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string_view>

#include "gemini/query_engine.h"
#include "music/song_generator.h"
#include "qbh/qbh_system.h"
#include "ts/dtw.h"
#include "ts/envelope.h"
#include "util/env.h"
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

// The parameter holds no pointers: gtest prints the parameter's bytes into
// every test name, and pointer bytes change from build to build.
struct EngineCase {
  char name[16];  // "<scheme>_<index>"; the scheme prefix picks the factory
  IndexKind index;

  std::shared_ptr<FeatureScheme> make(const std::vector<Series>& corpus) const {
    const std::string_view n = name;
    if (n.starts_with("new_paa")) return MakeNewPaaScheme(128, 8);
    if (n.starts_with("keogh_paa")) return MakeKeoghPaaScheme(128, 8);
    if (n.starts_with("dft")) return MakeDftScheme(128, 8);
    return MakeSvdScheme(corpus, 8);
  }
};

class QueryEngineSchemeTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(QueryEngineSchemeTest, RangeQueryExactVsBruteForce) {
  Rng rng(42);
  std::vector<Series> corpus;
  for (int i = 0; i < 300; ++i) corpus.push_back(RandomWalk(&rng, 128));

  QueryEngineOptions opts;
  opts.normal_len = 128;
  opts.warping_width = 0.1;
  opts.index.kind = GetParam().index;
  DtwQueryEngine engine(GetParam().make(corpus), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  const std::size_t k = engine.band_radius();

  for (int q = 0; q < 10; ++q) {
    Series query = RandomWalk(&rng, 128);
    double eps = rng.Uniform(2.0, 15.0);
    QueryStats stats;
    auto got = engine.RangeQuery(query, eps, &stats);

    // Brute force ground truth.
    std::set<std::int64_t> expect;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (LdtwDistance(query, corpus[i], k) <= eps) {
        expect.insert(static_cast<std::int64_t>(i));
      }
    }
    std::set<std::int64_t> got_ids;
    for (const Neighbor& n : got) got_ids.insert(n.id);
    EXPECT_EQ(got_ids, expect) << GetParam().name;

    // Filter cascade sanity: results <= lb survivors <= index candidates.
    EXPECT_LE(stats.results, stats.lb_survivors);
    EXPECT_LE(stats.lb_survivors, stats.index_candidates);
    EXPECT_EQ(stats.results, got.size());

    // Distances are exact and ascending.
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, LdtwDistance(query, corpus[static_cast<std::size_t>(got[i].id)], k), 1e-9);
      if (i > 0) {
        EXPECT_GE(got[i].distance, got[i - 1].distance);
      }
    }
  }
}

TEST_P(QueryEngineSchemeTest, KnnQueryExactVsBruteForce) {
  Rng rng(77);
  std::vector<Series> corpus;
  for (int i = 0; i < 250; ++i) corpus.push_back(RandomWalk(&rng, 128));

  QueryEngineOptions opts;
  opts.normal_len = 128;
  opts.warping_width = 0.1;
  opts.index.kind = GetParam().index;
  DtwQueryEngine engine(GetParam().make(corpus), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  const std::size_t band = engine.band_radius();

  for (int q = 0; q < 8; ++q) {
    Series query = RandomWalk(&rng, 128);
    for (std::size_t k : {1u, 5u, 10u}) {
      auto got = engine.KnnQuery(query, k);
      ASSERT_EQ(got.size(), k);

      std::vector<double> all;
      for (const Series& s : corpus) all.push_back(LdtwDistance(query, s, band));
      std::sort(all.begin(), all.end());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(got[i].distance, all[i], 1e-9) << GetParam().name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, QueryEngineSchemeTest,
    ::testing::Values(EngineCase{"new_paa_rstar", IndexKind::kRStarTree},
                      EngineCase{"keogh_paa_rstar", IndexKind::kRStarTree},
                      EngineCase{"dft_rstar", IndexKind::kRStarTree},
                      EngineCase{"svd_rstar", IndexKind::kRStarTree},
                      EngineCase{"new_paa_grid", IndexKind::kGridFile},
                      EngineCase{"new_paa_linear", IndexKind::kLinearScan}),
    [](const ::testing::TestParamInfo<EngineCase>& info) { return info.param.name; });

TEST(QueryEngineTest, NewPaaRetrievesFewerCandidatesThanKeogh) {
  Rng rng(5);
  std::vector<Series> corpus;
  for (int i = 0; i < 800; ++i) corpus.push_back(RandomWalk(&rng, 128));

  QueryEngineOptions opts;
  opts.normal_len = 128;
  opts.warping_width = 0.1;
  DtwQueryEngine new_engine(MakeNewPaaScheme(128, 8), opts);
  DtwQueryEngine keogh_engine(MakeKeoghPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    new_engine.Add(corpus[i], static_cast<std::int64_t>(i));
    keogh_engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  std::size_t new_total = 0, keogh_total = 0;
  for (int q = 0; q < 20; ++q) {
    Series query = RandomWalk(&rng, 128);
    QueryStats ns, ks;
    new_engine.RangeQuery(query, 8.0, &ns);
    keogh_engine.RangeQuery(query, 8.0, &ks);
    new_total += ns.index_candidates;
    keogh_total += ks.index_candidates;
    // Identical final results regardless of scheme.
    EXPECT_EQ(ns.results, ks.results);
  }
  EXPECT_LT(new_total, keogh_total);
}

TEST(QueryEngineTest, RankOfSelfQueryIsOne) {
  Rng rng(9);
  std::vector<Series> corpus;
  for (int i = 0; i < 100; ++i) corpus.push_back(RandomWalk(&rng, 128));
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(engine.RankOf(corpus[17], 17), 1u);
  EXPECT_DOUBLE_EQ(engine.ExactDistance(corpus[17], 17), 0.0);
}

TEST(QueryEngineTest, EmptyAndZeroKQueries) {
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  Series q(128, 0.0);
  EXPECT_TRUE(engine.KnnQuery(q, 5).empty());
  engine.Add(Series(128, 1.0), 0);
  EXPECT_TRUE(engine.KnnQuery(q, 0).empty());
}

TEST(QueryEngineTest, KnnQueryIsSeedsThenFinishAtTheLargestSeed) {
  Rng rng(23);
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), QueryEngineOptions());
  for (int i = 0; i < 150; ++i) engine.Add(RandomWalk(&rng, 128), i);
  for (int q = 0; q < 5; ++q) {
    const Series query = RandomWalk(&rng, 128);
    QueryStats seed_stats, finish_stats, knn_stats;
    std::vector<Neighbor> seeds =
        engine.KnnSeeds(query, 6, QueryOptions(), &seed_stats);
    ASSERT_EQ(seeds.size(), 6u);
    double radius = 0.0;
    for (const Neighbor& s : seeds) {
      EXPECT_EQ(s.distance, engine.ExactDistance(query, s.id));
      radius = std::max(radius, s.distance);
    }
    const std::vector<Neighbor> got = engine.KnnFinish(
        query, 6, radius, seeds, QueryOptions(), &finish_stats);
    const std::vector<Neighbor> want = engine.KnnQuery(query, 6, &knn_stats);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
    // KnnQuery's counters are the two halves' counters summed.
    EXPECT_EQ(knn_stats.exact_dtw_calls,
              seed_stats.exact_dtw_calls + finish_stats.exact_dtw_calls);
    EXPECT_EQ(knn_stats.page_accesses,
              seed_stats.page_accesses + finish_stats.page_accesses);
    EXPECT_EQ(seed_stats.exact_dtw_calls, 6u);
  }
}

TEST(QueryEngineTest, KnnFinishDropsASeedRemovedBeforeIt) {
  Rng rng(29);
  std::vector<Series> corpus;
  for (int i = 0; i < 120; ++i) corpus.push_back(RandomWalk(&rng, 128));
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), QueryEngineOptions());
  engine.AddAll(corpus);
  const Series query = corpus[7];
  std::vector<Neighbor> seeds = engine.KnnSeeds(query, 4, QueryOptions());
  ASSERT_EQ(seeds.size(), 4u);
  double radius = 0.0;
  for (const Neighbor& s : seeds) radius = std::max(radius, s.distance);
  const std::int64_t removed = seeds.front().id;
  ASSERT_TRUE(engine.Remove(removed));

  // At the seeds' own radius: the removed seed is gone, and every answer is
  // a live id with its exact distance.
  for (const Neighbor& n : engine.KnnFinish(query, 4, radius, seeds,
                                            QueryOptions())) {
    EXPECT_NE(n.id, removed);
    EXPECT_EQ(n.distance, engine.ExactDistance(query, n.id));
  }
  // At an unbounded radius the answer is the brute-force top 4 of what is
  // left.
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (static_cast<std::int64_t>(i) == removed) continue;
    all.push_back({static_cast<std::int64_t>(i),
                   LdtwDistance(query, corpus[i], engine.band_radius())});
  }
  std::sort(all.begin(), all.end());
  const std::vector<Neighbor> got =
      engine.KnnFinish(query, 4, kInfiniteDistance, seeds, QueryOptions());
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, all[i].id);
    EXPECT_EQ(got[i].distance, all[i].distance);
  }
}

// Every row of `engine` is `live`'s series for exactly one id, and
// SeriesAt(pos) is a view of the arena row itself: the engine keeps no
// second copy of any series.
void ExpectSeriesAtIsTheArenaRow(const DtwQueryEngine& engine,
                                 const std::map<std::int64_t, Series>& live) {
  ASSERT_EQ(engine.size(), live.size());
  ASSERT_EQ(engine.arena().size(), live.size());
  std::vector<bool> seen(engine.size(), false);
  for (const auto& [id, series] : live) {
    const std::size_t pos = engine.PosForId(id);
    ASSERT_LT(pos, engine.size()) << "id " << id;
    EXPECT_FALSE(seen[pos]) << "row " << pos << " holds two ids";
    seen[pos] = true;
    const std::span<const double> row = engine.SeriesAt(pos);
    EXPECT_EQ(row.data(), engine.arena().series(pos)) << "row " << pos;
    EXPECT_EQ(row.size(), engine.arena().series_len());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), series.begin(),
                           series.end()))
        << "id " << id;
    EXPECT_EQ(engine.ExactDistance(series, id), 0.0) << "id " << id;
    // The envelope rows moved with the series row, and hold its k-envelope
    // rounded outward to floats, pad tail zeroed.
    const Envelope env = BuildEnvelope(series, engine.band_radius());
    const CandidateArena& arena = engine.arena();
    for (std::size_t j = 0; j < arena.env_stride(); ++j) {
      const float lo = j < series.size() ? FloatAtOrBelow(env.lower[j]) : 0.0f;
      const float hi = j < series.size() ? FloatAtOrAbove(env.upper[j]) : 0.0f;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(arena.env_lo(pos)[j]),
                std::bit_cast<std::uint32_t>(lo))
          << "id " << id << " j " << j;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(arena.env_hi(pos)[j]),
                std::bit_cast<std::uint32_t>(hi))
          << "id " << id << " j " << j;
    }
  }
}

TEST(QueryEngineTest, SeriesAtIsTheArenaRow) {
  Rng rng(31);
  std::map<std::int64_t, Series> live;
  std::vector<Series> corpus;
  for (std::int64_t i = 0; i < 40; ++i) {
    corpus.push_back(RandomWalk(&rng, 128));
    live[i] = corpus.back();
  }
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), QueryEngineOptions());
  engine.AddAll(corpus);
  ExpectSeriesAtIsTheArenaRow(engine, live);

  live[57] = RandomWalk(&rng, 128);
  engine.Add(live[57], 57);
  ExpectSeriesAtIsTheArenaRow(engine, live);

  // Removing a middle row swaps the last row (id 57's) into it.
  const std::size_t middle = engine.PosForId(20);
  ASSERT_TRUE(engine.Remove(20));
  live.erase(20);
  EXPECT_EQ(engine.PosForId(20), SIZE_MAX);
  EXPECT_EQ(engine.PosForId(57), middle);
  ExpectSeriesAtIsTheArenaRow(engine, live);

  // The row -> id array must have followed that swap: drop every row after
  // id 57's from the end (no swaps), then remove row 0, which moves the
  // last row (id 57's, named only by that array) into it.
  for (std::int64_t id = 39; id > 20; --id) {
    ASSERT_TRUE(engine.Remove(id));
    live.erase(id);
  }
  ASSERT_EQ(engine.PosForId(57), engine.size() - 1);
  ASSERT_TRUE(engine.Remove(0));
  live.erase(0);
  EXPECT_EQ(engine.PosForId(57), 0u);
  ExpectSeriesAtIsTheArenaRow(engine, live);

  // A mapped v3 open decodes each series straight into the arena's row block
  // and derives the envelope rows from it. The arena owns both: the file
  // mapping is released when the open returns, so the reads below would
  // touch unmapped memory if any row still pointed into it.
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/series_at_arena_row.db";
  QbhOptions opt;
  opt.format = CheckpointFormat::kV3Binary;
  QbhSystem built(opt);
  SongGenerator gen(5);
  for (Melody& m : gen.GeneratePhrases(25)) built.AddMelody(std::move(m));
  built.Build();
  ASSERT_TRUE(built.Attach(path, env).ok());
  std::map<std::int64_t, Series> stored;
  for (std::int64_t id = 0; id < 25; ++id) {
    const auto row = built.engine()->SeriesAt(built.engine()->PosForId(id));
    stored[id] = Series(row.begin(), row.end());
  }
  Result<QbhSystem> opened = QbhSystem::Open(path, env);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().engine()->arena().size(), 25u);
  ExpectSeriesAtIsTheArenaRow(*opened.value().engine(), stored);
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

// The rows a probe's candidates sit in, in the order it emits them.
std::vector<std::size_t> RowsOf(const DtwQueryEngine& engine,
                                const std::vector<std::int64_t>& ids) {
  std::vector<std::size_t> rows;
  for (std::int64_t id : ids) rows.push_back(engine.PosForId(id));
  return rows;
}

// Every row holds the id a full-radius probe emits at that position, and a
// bounded probe's candidates come in ascending row order.
void ExpectRowsInProbeOrder(const DtwQueryEngine& engine,
                            const std::vector<Series>& queries) {
  const std::vector<std::size_t> all =
      RowsOf(engine, engine.feature_index().IdsInProbeOrder());
  ASSERT_EQ(all.size(), engine.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "probe position " << i;
  }
  std::vector<Series> probes = queries;
  for (std::size_t pos : {std::size_t{0}, engine.size() / 2}) {
    const std::span<const double> row = engine.SeriesAt(pos);
    probes.emplace_back(row.begin(), row.end());
  }
  for (const Series& q : probes) {
    const std::vector<std::size_t> rows =
        RowsOf(engine, engine.feature_index().CandidatesForEnvelope(
                           BuildEnvelope(q, engine.band_radius()), 8.0));
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  }
}

TEST(QueryEngineTest, BulkBuildPlacesRowsInLeafOrder) {
  Rng rng(37);
  std::vector<Series> corpus, queries;
  for (int i = 0; i < 700; ++i) corpus.push_back(RandomWalk(&rng, 128));
  for (int i = 0; i < 8; ++i) queries.push_back(RandomWalk(&rng, 128));
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), QueryEngineOptions());
  engine.AddAll(corpus);
  ExpectRowsInProbeOrder(engine, queries);

  // After churn (append, swap-remove) a v3 checkpoint and open restore leaf
  // order, with every id's series intact.
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/rows_in_leaf_order.db";
  QbhOptions opt;
  opt.format = CheckpointFormat::kV3Binary;
  QbhSystem system(opt);
  SongGenerator gen(9);
  for (Melody& m : gen.GeneratePhrases(400)) system.AddMelody(std::move(m));
  system.Build();
  ASSERT_TRUE(system.Attach(path, env).ok());
  ExpectRowsInProbeOrder(*system.engine(), queries);
  for (std::int64_t id : {3, 150, 222}) ASSERT_TRUE(system.Remove(id).ok());
  for (Melody& m : gen.GeneratePhrases(5)) {
    ASSERT_TRUE(system.Insert(std::move(m)).ok());
  }
  ASSERT_TRUE(system.Checkpoint().ok());
  std::map<std::int64_t, Series> stored;
  for (std::int64_t id = 0; id < system.next_id(); ++id) {
    const std::size_t pos = system.engine()->PosForId(id);
    if (pos == SIZE_MAX) continue;
    const auto row = system.engine()->SeriesAt(pos);
    stored[id] = Series(row.begin(), row.end());
  }
  Result<QbhSystem> opened = QbhSystem::Open(path, env);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectRowsInProbeOrder(*opened.value().engine(), queries);
  ExpectSeriesAtIsTheArenaRow(*opened.value().engine(), stored);
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

TEST(QueryEngineTest, StatsPageAccessesPositive) {
  Rng rng(11);
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  for (int i = 0; i < 200; ++i) {
    engine.Add(RandomWalk(&rng, 128), i);
  }
  QueryStats stats;
  engine.RangeQuery(RandomWalk(&rng, 128), 5.0, &stats);
  EXPECT_GE(stats.page_accesses, 1u);
}

}  // namespace
}  // namespace humdex
