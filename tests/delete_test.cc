// Deletion across the index substrate and the query engine: removed entries
// vanish from every query, survivors are untouched, invariants hold, and a
// randomized insert/delete interleaving matches a reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gemini/query_engine.h"
#include "index/grid_file.h"
#include "index/linear_scan.h"
#include "index/rstar_tree.h"
#include "music/hummer.h"
#include "music/song_generator.h"
#include "qbh/qbh_system.h"
#include "util/random.h"

namespace humdex {
namespace {

Series RandomPoint(Rng* rng, std::size_t dims) {
  Series p(dims);
  for (double& v : p) v = rng->Uniform(-10, 10);
  return p;
}

TEST(DeleteTest, DeleteFromSmallLeafTree) {
  RStarTree tree(2);
  tree.Insert({1, 1}, 0);
  tree.Insert({2, 2}, 1);
  EXPECT_TRUE(tree.Delete({1, 1}, 0));
  EXPECT_EQ(tree.size(), 1u);
  tree.CheckInvariants();
  auto r = tree.RangeQuery(Rect({-5, -5}, {5, 5}), 0.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 1);
}

TEST(DeleteTest, DeleteMissingReturnsFalse) {
  RStarTree tree(2);
  tree.Insert({1, 1}, 0);
  EXPECT_FALSE(tree.Delete({1, 1}, 99));    // wrong id
  EXPECT_FALSE(tree.Delete({2, 2}, 0));     // wrong point
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Delete({1, 1}, 0));
  EXPECT_FALSE(tree.Delete({1, 1}, 0));     // already gone
  EXPECT_EQ(tree.size(), 0u);
}

TEST(DeleteTest, DeleteHalfThenQueriesMatchScan) {
  Rng rng(3);
  RStarTree tree(4);
  LinearScanIndex scan(4);
  std::vector<Series> pts;
  for (std::int64_t id = 0; id < 4000; ++id) {
    Series p = RandomPoint(&rng, 4);
    pts.push_back(p);
    tree.Insert(p, id);
    scan.Insert(p, id);
  }
  for (std::int64_t id = 0; id < 4000; id += 2) {
    EXPECT_TRUE(tree.Delete(pts[static_cast<std::size_t>(id)], id));
    EXPECT_TRUE(scan.Delete(pts[static_cast<std::size_t>(id)], id));
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 2000u);
  for (int q = 0; q < 25; ++q) {
    Series center = RandomPoint(&rng, 4);
    auto t = tree.RangeQuery(Rect::FromPoint(center), 4.0);
    auto s = scan.RangeQuery(Rect::FromPoint(center), 4.0);
    std::sort(t.begin(), t.end());
    std::sort(s.begin(), s.end());
    EXPECT_EQ(t, s);
  }
}

TEST(DeleteTest, DeleteEverythingLeavesEmptyTree) {
  Rng rng(5);
  RStarTree tree(3);
  std::vector<Series> pts;
  for (std::int64_t id = 0; id < 1000; ++id) {
    pts.push_back(RandomPoint(&rng, 3));
    tree.Insert(pts.back(), id);
  }
  // Delete in a scrambled order.
  std::vector<std::int64_t> order(1000);
  for (std::size_t i = 0; i < 1000; ++i) order[i] = static_cast<std::int64_t>(i);
  rng.Shuffle(&order);
  for (std::int64_t id : order) {
    EXPECT_TRUE(tree.Delete(pts[static_cast<std::size_t>(id)], id));
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 1u);  // root collapsed back to a leaf
  EXPECT_TRUE(tree.RangeQuery(Rect(Series(3, -100), Series(3, 100)), 0.0).empty());
}

TEST(DeleteTest, RandomizedInterleavingMatchesReference) {
  Rng rng(7);
  RStarTree tree(3);
  GridFile grid(3);
  std::map<std::int64_t, Series> reference;
  std::int64_t next_id = 0;
  for (int op = 0; op < 8000; ++op) {
    if (reference.empty() || rng.Bernoulli(0.6)) {
      Series p = RandomPoint(&rng, 3);
      tree.Insert(p, next_id);
      grid.Insert(p, next_id);
      reference[next_id] = p;
      ++next_id;
    } else {
      auto it = reference.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(reference.size()) - 1));
      EXPECT_TRUE(tree.Delete(it->second, it->first));
      EXPECT_TRUE(grid.Delete(it->second, it->first));
      reference.erase(it);
    }
    if (op % 1000 == 999) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), reference.size());
  EXPECT_EQ(grid.size(), reference.size());
  auto all = tree.RangeQuery(Rect(Series(3, -100), Series(3, 100)), 0.0);
  EXPECT_EQ(all.size(), reference.size());
  for (std::int64_t id : all) EXPECT_TRUE(reference.count(id));
}

TEST(DeleteTest, DeleteFromBulkLoadedTree) {
  Rng rng(9);
  std::vector<Series> pts;
  std::vector<std::int64_t> ids;
  for (std::int64_t id = 0; id < 3000; ++id) {
    pts.push_back(RandomPoint(&rng, 4));
    ids.push_back(id);
  }
  auto tree = RStarTree::BulkLoad(4, pts, ids);
  for (std::int64_t id = 0; id < 3000; id += 3) {
    EXPECT_TRUE(tree->Delete(pts[static_cast<std::size_t>(id)], id));
  }
  tree->CheckInvariants();
  EXPECT_EQ(tree->size(), 2000u);
}

// A packed tree dissolves a node only once it is empty (minimum fill 1), so
// deleting everything empties leaves at every position under their
// parents; each emptied leaf is detached and the tree stays valid.
TEST(DeleteTest, EmptyingBulkLoadedLeavesKeepsTheTreeValid) {
  Rng rng(13);
  std::vector<Series> pts;
  std::vector<std::int64_t> ids;
  for (std::int64_t id = 0; id < 3000; ++id) {
    pts.push_back(RandomPoint(&rng, 4));
    ids.push_back(id);
  }
  auto tree = RStarTree::BulkLoad(4, pts, ids);
  std::vector<std::int64_t> order = ids;
  rng.Shuffle(&order);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::int64_t id = order[i];
    ASSERT_TRUE(tree->Delete(pts[static_cast<std::size_t>(id)], id));
    if (i % 250 == 0) tree->CheckInvariants();
  }
  tree->CheckInvariants();
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_TRUE(tree->RangeQuery(Rect(Series(4, -100), Series(4, 100)), 0.0)
                  .empty());
}

TEST(EngineRemoveTest, RemovedSeriesVanishesFromAllQueries) {
  Rng rng(11);
  std::vector<Series> corpus;
  for (int i = 0; i < 200; ++i) {
    Series x(128);
    double v = 0.0;
    for (double& e : x) {
      v += rng.Gaussian();
      e = v;
    }
    corpus.push_back(x);
  }
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    engine.Add(corpus[i], static_cast<std::int64_t>(i));
  }
  // Query a stored series: itself first at distance 0.
  auto before = engine.KnnQuery(corpus[50], 1);
  ASSERT_EQ(before[0].id, 50);

  EXPECT_TRUE(engine.Remove(50));
  EXPECT_FALSE(engine.Remove(50));
  EXPECT_EQ(engine.size(), 199u);

  auto after = engine.KnnQuery(corpus[50], 3);
  for (const Neighbor& n : after) EXPECT_NE(n.id, 50);
  auto range = engine.RangeQuery(corpus[50], 100.0);
  for (const Neighbor& n : range) EXPECT_NE(n.id, 50);
  auto optimal = engine.KnnQueryOptimal(corpus[50], 3);
  for (const Neighbor& n : optimal) EXPECT_NE(n.id, 50);

  // Survivors still answer correctly.
  auto other = engine.KnnQuery(corpus[51], 1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].id, 51);
  EXPECT_DOUBLE_EQ(other[0].distance, 0.0);
}

TEST(EngineRemoveTest, RemoveUnknownIdsReturnsFalse) {
  QueryEngineOptions opts;
  DtwQueryEngine engine(MakeNewPaaScheme(128, 8), opts);
  EXPECT_FALSE(engine.Remove(0));
  EXPECT_FALSE(engine.Remove(-1));
  engine.Add(Series(128, 1.0), 5);
  EXPECT_FALSE(engine.Remove(4));
  EXPECT_TRUE(engine.Remove(5));
}

// QbhSystem::Remove exercised end to end — through the engine down to each
// index backend — on every IndexKind.
class SystemRemoveTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(SystemRemoveTest, RemoveReachesTheIndexBackend) {
  SongGenerator gen(17);
  auto corpus = gen.GeneratePhrases(60);
  QbhOptions opt;
  opt.index = GetParam();
  QbhSystem system(opt);
  for (const Melody& m : corpus) system.AddMelody(m);
  system.Build();

  Hummer hummer(HummerProfile::Perfect(), 23);
  // Remove a third of the corpus, scattered.
  for (std::int64_t id = 0; id < 60; id += 3) {
    ASSERT_TRUE(system.Remove(id).ok());
  }
  EXPECT_EQ(system.size(), 40u);
  EXPECT_EQ(system.next_id(), 60);

  for (std::int64_t id = 0; id < 60; ++id) {
    Series hum = hummer.Hum(corpus[static_cast<std::size_t>(id)]);
    auto matches = system.Query(hum, 5);
    if (id % 3 == 0) {
      EXPECT_FALSE(system.melody(id).has_value());
      for (const QbhMatch& m : matches) EXPECT_NE(m.id, id);
      EXPECT_EQ(system.RankOf(hum, id), 0u);
    } else {
      ASSERT_FALSE(matches.empty());
      EXPECT_EQ(matches[0].id, id);  // survivors still rank first
    }
  }

  // Inserts after removal keep working against the same backend.
  Melody extra = SongGenerator(29).GeneratePhrases(1)[0];
  auto id = system.Insert(extra);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 60);
  auto matches = system.Query(hummer.Hum(extra), 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 60);
}

INSTANTIATE_TEST_SUITE_P(AllIndexKinds, SystemRemoveTest,
                         ::testing::Values(IndexKind::kRStarTree,
                                           IndexKind::kGridFile,
                                           IndexKind::kLinearScan),
                         [](const ::testing::TestParamInfo<IndexKind>& info) {
                           switch (info.param) {
                             case IndexKind::kRStarTree:
                               return "RStarTree";
                             case IndexKind::kGridFile:
                               return "GridFile";
                             case IndexKind::kLinearScan:
                               return "LinearScan";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace humdex
