#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "index/linear_scan.h"
#include "index/rstar_tree.h"
#include "util/random.h"

namespace humdex {
namespace {

Series RandomPoint(Rng* rng, std::size_t dims, double scale = 10.0) {
  Series p(dims);
  for (double& v : p) v = rng->Uniform(-scale, scale);
  return p;
}

TEST(RectTest, MinDistToPoint) {
  Rect r({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(r.MinDistSq({1, 1}), 0.0);    // inside
  EXPECT_DOUBLE_EQ(r.MinDistSq({3, 1}), 1.0);    // right
  EXPECT_DOUBLE_EQ(r.MinDistSq({-1, -1}), 2.0);  // corner
  EXPECT_DOUBLE_EQ(r.MinDistSq({5, 6}), 25.0);   // far corner
}

TEST(RectTest, MinDistToRect) {
  Rect a({0, 0}, {1, 1});
  Rect b({2, 0}, {3, 1});
  EXPECT_DOUBLE_EQ(a.MinDistSq(b), 1.0);
  Rect c({0.5, 0.5}, {4, 4});
  EXPECT_DOUBLE_EQ(a.MinDistSq(c), 0.0);  // overlap
  Rect d({3, 3}, {4, 4});
  EXPECT_DOUBLE_EQ(a.MinDistSq(d), 8.0);  // corner gap (2,2)
}

TEST(RectTest, AreaMarginOverlap) {
  Rect a({0, 0}, {2, 3});
  EXPECT_DOUBLE_EQ(a.Area(), 6.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 5.0);
  Rect b({1, 1}, {3, 2});
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  Rect c({5, 5}, {6, 6});
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(c), 36.0 - 6.0);
}

TEST(RectTest, EnlargeAndContain) {
  Rect r = Rect::FromPoint({1, 1});
  r.EnlargePoint({3, 0});
  EXPECT_TRUE(r.Contains({2, 0.5}));
  EXPECT_FALSE(r.Contains({0, 0}));
  EXPECT_DOUBLE_EQ(r.Area(), 2.0);
}

TEST(RectTest, FromEnvelopeRepairsTinyInversion) {
  Envelope e;
  e.lower = {1.0, 2.0 + 1e-15};
  e.upper = {2.0, 2.0};
  Rect r = Rect::FromEnvelope(e);
  EXPECT_LE(r.lo[1], r.hi[1]);
}

class RStarTreeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RStarTreeTest, RangeQueryMatchesLinearScan) {
  const std::size_t dims = GetParam();
  Rng rng(1000 + dims);
  RStarTree tree(dims);
  LinearScanIndex scan(dims);
  for (std::int64_t id = 0; id < 2000; ++id) {
    Series p = RandomPoint(&rng, dims);
    tree.Insert(p, id);
    scan.Insert(p, id);
  }
  tree.CheckInvariants();
  for (int q = 0; q < 50; ++q) {
    Series a = RandomPoint(&rng, dims), b = RandomPoint(&rng, dims);
    Series lo(dims), hi(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(a[d], b[d]);
      hi[d] = std::max(a[d], b[d]);
    }
    Rect query(lo, hi);
    double radius = rng.Uniform(0.0, 5.0);
    auto t = tree.RangeQuery(query, radius);
    auto s = scan.RangeQuery(query, radius);
    std::sort(t.begin(), t.end());
    std::sort(s.begin(), s.end());
    EXPECT_EQ(t, s) << "dims=" << dims;
  }
}

TEST_P(RStarTreeTest, KnnMatchesLinearScan) {
  const std::size_t dims = GetParam();
  Rng rng(2000 + dims);
  RStarTree tree(dims);
  LinearScanIndex scan(dims);
  for (std::int64_t id = 0; id < 1500; ++id) {
    Series p = RandomPoint(&rng, dims);
    tree.Insert(p, id);
    scan.Insert(p, id);
  }
  for (int q = 0; q < 30; ++q) {
    Series query = RandomPoint(&rng, dims);
    for (std::size_t k : {1u, 5u, 20u}) {
      auto t = tree.KnnQuery(query, k);
      auto s = scan.KnnQuery(query, k);
      ASSERT_EQ(t.size(), s.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        // Distances must agree; ids may differ only on exact ties.
        EXPECT_NEAR(t[i].distance, s[i].distance, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RStarTreeTest, ::testing::Values(2, 4, 8));

TEST(RStarTreeBasicsTest, EmptyTreeQueries) {
  RStarTree tree(3);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeQuery(Rect({0, 0, 0}, {1, 1, 1}), 10.0).empty());
  EXPECT_TRUE(tree.KnnQuery({0, 0, 0}, 5).empty());
  EXPECT_EQ(tree.Height(), 1u);
}

TEST(RStarTreeBasicsTest, SinglePoint) {
  RStarTree tree(2);
  tree.Insert({1, 2}, 42);
  auto r = tree.RangeQuery(Rect::FromPoint({1, 2}), 0.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 42);
  auto nn = tree.KnnQuery({0, 0}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 42);
  EXPECT_NEAR(nn[0].distance, std::sqrt(5.0), 1e-12);
}

TEST(RStarTreeBasicsTest, GrowsInHeightAndStaysValid) {
  Rng rng(3);
  RStarTree tree(4);
  for (std::int64_t id = 0; id < 5000; ++id) {
    tree.Insert(RandomPoint(&rng, 4), id);
    if (id % 500 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_GE(tree.Height(), 2u);
  EXPECT_GT(tree.NodeCount(), 5000u / 64);
}

TEST(RStarTreeBasicsTest, DuplicatePointsAllRetrieved) {
  RStarTree tree(2);
  for (std::int64_t id = 0; id < 200; ++id) tree.Insert({1.0, 1.0}, id);
  tree.CheckInvariants();
  auto r = tree.RangeQuery(Rect::FromPoint({1.0, 1.0}), 0.0);
  EXPECT_EQ(r.size(), 200u);
}

TEST(RStarTreeBasicsTest, ClusteredDataPruning) {
  // Two far-apart clusters: a query inside one should touch far fewer pages
  // than the tree holds.
  Rng rng(7);
  RStarTree tree(4);
  for (std::int64_t id = 0; id < 3000; ++id) {
    Series p = RandomPoint(&rng, 4, 1.0);
    double offset = (id % 2 == 0) ? 0.0 : 1000.0;
    for (double& v : p) v += offset;
    tree.Insert(p, id);
  }
  IndexStats stats;
  Series center(4, 0.0);
  auto r = tree.RangeQuery(Rect::FromPoint(center), 2.0, &stats);
  EXPECT_GT(r.size(), 0u);
  // The query touches only the near cluster's subtree: well below the ~full
  // traversal a degenerate tree would need (pages for half the points plus
  // the root path).
  EXPECT_LT(stats.page_accesses, tree.NodeCount() * 7 / 10);
}

TEST(RStarTreeBasicsTest, PageAccessesBoundedByNodeCount) {
  Rng rng(9);
  RStarTree tree(2);
  for (std::int64_t id = 0; id < 1000; ++id) tree.Insert(RandomPoint(&rng, 2), id);
  IndexStats stats;
  tree.RangeQuery(Rect({-20, -20}, {20, 20}), 0.0, &stats);
  EXPECT_LE(stats.page_accesses, tree.NodeCount());
  EXPECT_GE(stats.page_accesses, 1u);
}

TEST(RStarTreeBasicsTest, CustomOptionsRespected) {
  RStarOptions opt;
  opt.max_entries = 8;
  opt.min_entries = 3;
  opt.reinsert_count = 2;
  Rng rng(11);
  RStarTree tree(3, opt);
  for (std::int64_t id = 0; id < 500; ++id) tree.Insert(RandomPoint(&rng, 3), id);
  tree.CheckInvariants();
  EXPECT_GE(tree.Height(), 3u);  // small fanout forces depth
}

// FromPages restores each node sized to its stored entries; the first
// append to a full one widens it. A restored tree answers like the
// original, and the same inserts and deletes on both leave byte-identical
// pages. A leaf entry whose lo and hi differ is not a point: corruption.
TEST(RStarTreeBasicsTest, RestoredPagesAnswerAndAcceptMutations) {
  Rng rng(17);
  std::vector<Series> pts;
  std::vector<std::int64_t> ids;
  for (std::int64_t id = 0; id < 3000; ++id) {
    pts.push_back(RandomPoint(&rng, 4));
    ids.push_back(id);
  }
  auto original = RStarTree::BulkLoad(4, pts, ids);
  std::string pages;
  original->SerializePages(&pages);
  std::unique_ptr<RStarTree> restored;
  ASSERT_TRUE(RStarTree::FromPages(4, pages, RStarOptions(), &restored).ok());
  restored->CheckInvariants();
  for (int q = 0; q < 20; ++q) {
    const Rect query = Rect::FromPoint(RandomPoint(&rng, 4));
    IndexStats a, b;
    EXPECT_EQ(original->RangeQuery(query, 4.0, &a),
              restored->RangeQuery(query, 4.0, &b));
    EXPECT_EQ(a.page_accesses, b.page_accesses);
  }
  for (std::int64_t id = 3000; id < 3600; ++id) {
    const Series p = RandomPoint(&rng, 4);
    original->Insert(p, id);
    restored->Insert(p, id);
  }
  for (std::int64_t id = 0; id < 3000; id += 7) {
    const Series& p = pts[static_cast<std::size_t>(id)];
    ASSERT_TRUE(original->Delete(p, id));
    ASSERT_TRUE(restored->Delete(p, id));
  }
  restored->CheckInvariants();
  std::string after_original, after_restored;
  original->SerializePages(&after_original);
  restored->SerializePages(&after_restored);
  EXPECT_EQ(after_original, after_restored);

  RStarTree small(2);
  small.Insert({1.0, 2.0}, 5);
  std::string one;
  small.SerializePages(&one);
  // Header (17 bytes), root {page_id, level, count} (16), then the entry's
  // lo (2 doubles) and hi: move hi[0] up so the box stays valid.
  const double moved = 1.5;
  std::memcpy(&one[17 + 16 + 2 * sizeof(double)], &moved, sizeof moved);
  std::unique_ptr<RStarTree> bad;
  const Status st = RStarTree::FromPages(2, one, RStarOptions(), &bad);
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
}

TEST(RStarTreeBasicsTest, RectangleRangeQuerySemantics) {
  // Query rect with positive radius: points within `radius` of the rect.
  RStarTree tree(2);
  tree.Insert({0.0, 0.0}, 0);
  tree.Insert({5.0, 0.0}, 1);
  tree.Insert({7.1, 0.0}, 2);
  Rect query({1.0, 0.0}, {6.0, 0.0});
  auto r = tree.RangeQuery(query, 1.0);
  std::set<std::int64_t> got(r.begin(), r.end());
  EXPECT_EQ(got, (std::set<std::int64_t>{0, 1}));
  r = tree.RangeQuery(query, 1.2);
  EXPECT_EQ(r.size(), 3u);
}

}  // namespace
}  // namespace humdex
