#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "gemini/query_engine.h"
#include "music/song_generator.h"
#include "obs/trace.h"
#include "qbh/qbh_system.h"
#include "ts/normal_form.h"
#include "util/random.h"

namespace humdex {
namespace {

using obs::QueryTrace;
using obs::ScopedSpan;
using obs::ScopedTrace;
using obs::TraceSpan;

Series RandomWalk(Rng* rng, std::size_t n) {
  Series x(n);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += rng->Gaussian();
    x[i] = v;
  }
  return x;
}

TEST(TraceTest, NoActiveTraceIsANoOp) {
  // Spans with no installed trace must record nothing and cost nothing
  // observable — the runtime analogue of the compiled-out build.
  {
    HUMDEX_SPAN(span, "orphan");
    HUMDEX_SPAN_ATTR(span, "k", 3.0);
  }
  QueryTrace trace;
  EXPECT_TRUE(trace.empty());
}

TEST(TraceTest, SpanNestingAndTimings) {
  QueryTrace trace;
  {
    ScopedTrace activate(&trace);
    HUMDEX_SPAN(root, "root");
    {
      HUMDEX_SPAN(child, "child");
      HUMDEX_SPAN_ATTR(child, "items", 17.0);
      { HUMDEX_SPAN(grandchild, "grandchild"); }
    }
    { HUMDEX_SPAN(sibling, "sibling"); }
  }
#if !HUMDEX_TRACING_ENABLED
  EXPECT_TRUE(trace.empty());
#else
  ASSERT_EQ(trace.spans().size(), 4u);
  const TraceSpan& root = trace.spans()[0];
  const TraceSpan& child = trace.spans()[1];
  const TraceSpan& grandchild = trace.spans()[2];
  const TraceSpan& sibling = trace.spans()[3];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.parent, -1);
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(child.parent, 0);
  EXPECT_EQ(child.depth, 1);
  EXPECT_EQ(grandchild.parent, 1);
  EXPECT_EQ(grandchild.depth, 2);
  EXPECT_EQ(sibling.parent, 0);
  EXPECT_EQ(sibling.depth, 1);
  EXPECT_EQ(child.Attribute("items"), 17.0);
  EXPECT_EQ(child.Attribute("absent", -5.0), -5.0);

  // Start times are monotone in creation order; children are contained in
  // their parent's window.
  EXPECT_LE(root.start_ns, child.start_ns);
  EXPECT_LE(child.start_ns, grandchild.start_ns);
  EXPECT_LE(child.start_ns + child.duration_ns,
            root.start_ns + root.duration_ns);
  EXPECT_LE(grandchild.duration_ns, child.duration_ns);
  EXPECT_LE(child.duration_ns + sibling.duration_ns, root.duration_ns);

  EXPECT_NE(trace.Find("grandchild"), nullptr);
  EXPECT_EQ(trace.Find("nope"), nullptr);
  EXPECT_FALSE(trace.ToString().empty());

  trace.Clear();
  EXPECT_TRUE(trace.empty());
#endif
}

TEST(TraceTest, NestedScopedTraceRestoresPrevious) {
  QueryTrace outer_trace;
  QueryTrace inner_trace;
  {
    ScopedTrace outer(&outer_trace);
    EXPECT_EQ(ScopedTrace::Active(), &outer_trace);
    {
      ScopedTrace inner(&inner_trace);
      EXPECT_EQ(ScopedTrace::Active(), &inner_trace);
      HUMDEX_SPAN(span, "inner.work");
    }
    EXPECT_EQ(ScopedTrace::Active(), &outer_trace);
  }
  EXPECT_EQ(ScopedTrace::Active(), nullptr);
#if HUMDEX_TRACING_ENABLED
  EXPECT_EQ(inner_trace.spans().size(), 1u);
  EXPECT_TRUE(outer_trace.empty());
#endif
}

class TracedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    std::vector<Series> normals;
    for (int i = 0; i < 400; ++i) {
      normals.push_back(NormalForm(RandomWalk(&rng, 128), 128));
    }
    query_ = NormalForm(RandomWalk(&rng, 128), 128);
    QueryEngineOptions opts;
    opts.normal_len = 128;
    engine_ = std::make_unique<DtwQueryEngine>(MakeNewPaaScheme(128, 8), opts);
    engine_->AddAll(std::move(normals));
  }

  std::unique_ptr<DtwQueryEngine> engine_;
  Series query_;
};

// The PR 2 acceptance criterion: a traced RangeQuery yields populated
// index/LB/DTW stage durations whose candidate-count attributes match the
// QueryStats counters exactly, with stage durations summing to <= total.
TEST_F(TracedQueryTest, RangeQueryCascadeTrace) {
  QueryTrace trace;
  QueryStats stats;
  std::vector<Neighbor> results;
  {
    ScopedTrace activate(&trace);
    results = engine_->RangeQuery(query_, 6.0, &stats);
  }

  // The always-on QueryStats timings are populated regardless of tracing.
  EXPECT_GT(stats.total_ns, 0u);
  EXPECT_GT(stats.index_ns, 0u);
  EXPECT_LE(stats.index_ns + stats.lb_ns + stats.dtw_ns, stats.total_ns);

#if HUMDEX_TRACING_ENABLED
  const TraceSpan* root = trace.Find("query.range");
  const TraceSpan* index = trace.Find("query.range.index_probe");
  const TraceSpan* lb = trace.Find("query.range.lb_keogh");
  const TraceSpan* dtw = trace.Find("query.range.exact_dtw");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(index, nullptr);
  ASSERT_NE(lb, nullptr);
  ASSERT_NE(dtw, nullptr);

  // Stage durations populated and nested under the root span.
  EXPECT_GT(index->duration_ns, 0u);
  EXPECT_EQ(index->parent, 0);
  EXPECT_EQ(lb->parent, 0);
  EXPECT_EQ(dtw->parent, 0);
  // Monotone stage order and containment in the root.
  EXPECT_LE(index->start_ns + index->duration_ns, lb->start_ns);
  EXPECT_LE(lb->start_ns + lb->duration_ns, dtw->start_ns);
  EXPECT_LE(index->duration_ns + lb->duration_ns + dtw->duration_ns,
            root->duration_ns);

  // Candidate counts carried on the spans match QueryStats exactly.
  EXPECT_EQ(index->Attribute("candidates"),
            static_cast<double>(stats.index_candidates));
  EXPECT_EQ(index->Attribute("page_accesses"),
            static_cast<double>(stats.page_accesses));
  EXPECT_EQ(lb->Attribute("pruned"), static_cast<double>(stats.keogh_pruned));
  EXPECT_EQ(lb->Attribute("survivors"),
            static_cast<double>(stats.lb_survivors));
  EXPECT_EQ(dtw->Attribute("dtw_calls"),
            static_cast<double>(stats.exact_dtw_calls));
  EXPECT_EQ(dtw->Attribute("results"), static_cast<double>(stats.results));
  EXPECT_EQ(dtw->Attribute("results"), static_cast<double>(results.size()));
#else
  EXPECT_TRUE(trace.empty());
#endif
}

TEST_F(TracedQueryTest, KnnQueryNestsRangeQueryTrace) {
  QueryTrace trace;
  QueryStats stats;
  {
    ScopedTrace activate(&trace);
    engine_->KnnQuery(query_, 5, &stats);
  }
  EXPECT_GT(stats.total_ns, 0u);
  EXPECT_LE(stats.index_ns + stats.lb_ns + stats.dtw_ns, stats.total_ns);
#if HUMDEX_TRACING_ENABLED
  const TraceSpan* root = trace.Find("query.knn");
  const TraceSpan* seed = trace.Find("query.knn.seed");
  const TraceSpan* range = trace.Find("query.range");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(seed, nullptr);
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(seed->depth, 1);
  EXPECT_EQ(range->depth, 1);  // the embedded range query nests under knn
  EXPECT_EQ(seed->Attribute("k"), 5.0);
  EXPECT_NE(trace.Find("query.range.exact_dtw"), nullptr);
#endif
}

TEST_F(TracedQueryTest, KnnOptimalTrace) {
  QueryTrace trace;
  QueryStats stats;
  {
    ScopedTrace activate(&trace);
    engine_->KnnQueryOptimal(query_, 5, &stats);
  }
  EXPECT_GT(stats.total_ns, 0u);
  EXPECT_LE(stats.index_ns + stats.lb_ns + stats.dtw_ns, stats.total_ns);
#if HUMDEX_TRACING_ENABLED
  const TraceSpan* root = trace.Find("query.knn_optimal");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->Attribute("candidates"),
            static_cast<double>(stats.index_candidates));
  EXPECT_EQ(root->Attribute("survivors"),
            static_cast<double>(stats.lb_survivors));
  EXPECT_NE(trace.Find("query.knn_optimal.index_probe"), nullptr);
#endif
}

TEST(QbhTraceTest, QueryProducesTopLevelSpan) {
  Rng rng(77);
  SongGenerator gen(9001);
  QbhSystem system;
  for (Melody& m : gen.GeneratePhrases(40)) system.AddMelody(std::move(m));
  system.Build();

  Series hum = MelodyToSeries(*system.melody(3), 8.0);
  QueryTrace trace;
  QueryStats stats;
  std::vector<QbhMatch> matches;
  {
    ScopedTrace activate(&trace);
    matches = system.Query(hum, 3, &stats);
  }
  EXPECT_FALSE(matches.empty());
  EXPECT_GT(stats.total_ns, 0u);
#if HUMDEX_TRACING_ENABLED
  const TraceSpan* root = trace.Find("qbh.query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->depth, 0);
  EXPECT_NE(trace.Find("qbh.normal_form"), nullptr);
  // The engine cascade nests under the system span.
  const TraceSpan* range = trace.Find("query.range");
  ASSERT_NE(range, nullptr);
  EXPECT_GT(range->depth, 0);
  EXPECT_EQ(root->Attribute("matches"), static_cast<double>(matches.size()));
#endif
}

}  // namespace
}  // namespace humdex
