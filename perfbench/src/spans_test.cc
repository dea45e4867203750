// Unit check of the self-time computation the traced run reports.
//
//   .bench_build/perfbench_spans_test   (exit 0 = pass)
#include <cstdio>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::Span S(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
                  std::uint64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = "t";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

}  // namespace

int main() {
  using perfbench::SelfTimes;
  {
    // A leaf's self time is its duration.
    const auto self = SelfTimes({S(1, 0, 10, 30)});
    Expect(self[0] == 20, "leaf self time is its duration");
  }
  {
    // Disjoint children: parent keeps the gaps; children are leaves.
    const auto self =
        SelfTimes({S(1, 0, 0, 100), S(2, 1, 10, 30), S(3, 1, 50, 60)});
    Expect(self[0] == 70, "disjoint children are subtracted");
    Expect(self[1] == 20 && self[2] == 10, "children keep their durations");
  }
  {
    // Overlapping children (parallel shard work) are counted once.
    const auto self =
        SelfTimes({S(1, 0, 0, 100), S(2, 1, 10, 60), S(3, 1, 40, 80)});
    Expect(self[0] == 30, "overlapping children count once");
  }
  {
    // A child running past its parent is clipped to the parent's interval;
    // a grandchild is charged to its own parent only.
    const auto self = SelfTimes(
        {S(1, 0, 0, 100), S(2, 1, 90, 120), S(3, 2, 95, 100)});
    Expect(self[0] == 90, "child clipped to parent interval");
    Expect(self[1] == 25, "grandchild charged to its parent only");
  }
  {
    // Children recorded before their parent (another thread finished first)
    // and an unknown parent id (treated as a root).
    const auto self =
        SelfTimes({S(2, 1, 20, 40), S(1, 0, 0, 50), S(4, 99, 0, 5)});
    Expect(self[1] == 30, "child recorded before parent");
    Expect(self[2] == 5, "unknown parent leaves the span whole");
  }
  {
    // Self times of a tree of nested, sequential spans sum to the root's
    // duration.
    const std::vector<perfbench::Span> tree = {
        S(1, 0, 0, 1000), S(2, 1, 100, 900), S(3, 2, 200, 300),
        S(4, 2, 300, 700), S(5, 1, 950, 990)};
    const auto self = SelfTimes(tree);
    std::uint64_t sum = 0;
    for (auto v : self) sum += v;
    Expect(sum == 1000, "self times of a nested tree sum to the root");
  }
  {
    perfbench::SpanRecorder recorder;
    {
      perfbench::ScopedSpan outer(&recorder, "outer", 7);
      perfbench::ScopedSpan inner(&recorder, "inner", 7, outer.id());
    }
    {
      perfbench::ScopedSpan off(nullptr, "off", 7);
    }
    const auto spans = recorder.Spans();
    Expect(spans.size() == 2, "null recorder records nothing");
    Expect(spans.size() == 2 && spans[0].parent == spans[1].id &&
               spans[0].request == 7,
           "scoped spans link to their parent");
  }
  std::printf("%s\n", failures == 0 ? "spans_test: PASS" : "spans_test: FAIL");
  return failures == 0 ? 0 : 1;
}
