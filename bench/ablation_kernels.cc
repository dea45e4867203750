// Kernel-layer ablation (DESIGN.md §10) on the fig8 Beatles-scale melody
// workload:
//
//   1. per SIMD tier this machine can run: LB_Keogh kernel throughput (GB/s)
//      and the exact-DTW stage time on the cascade's finalists, then the
//      lane-parallel LDTW kernel against the scalar one-at-a-time reference
//      over interleaved repetitions, on the same finalists;
//   2. whole-cascade A/B of the dispatched tier against HUMDEX_FORCE_SCALAR
//      semantics (ScopedKernelOverride), measuring the LB-filter speedup;
//   3. cascade stage table — candidates, per-stage pruning rates, exact-DTW
//      calls — with the Kim and LB_Improved stages toggled, verifying the
//      stages strictly reduce exact-DTW work without changing any answer,
//      plus the LB_Improved on/off wall time.
//
// Exits non-zero if any answer differs between tiers, stages or kernels, and
// on AVX2 hosts if either same-host ratio misses 2x: the Keogh LB filter
// against scalar, or the lane LDTW kernel against the scalar reference.
//
// Every headline number also lands in the metrics registry, so running with
// --metrics_out=BENCH_kernels.json gives CI a machine-readable artifact of
// cascade stage timings and pruning rates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common.h"
#include "gemini/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ts/dtw.h"
#include "ts/envelope.h"
#include "ts/kernels.h"
#include "ts/lower_bound.h"
#include "util/random.h"
#include "util/stats.h"

namespace humdex::bench {
namespace {

constexpr std::size_t kCorpusSize = 1000;
constexpr std::size_t kLen = 128;
constexpr std::size_t kDim = 8;
constexpr std::size_t kQueries = 100;

obs::Gauge& G(const std::string& name) {
  return obs::MetricsRegistry::Default().GetGauge("bench.kernels." + name);
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> out = {SimdLevel::kScalar};
  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (kernels::KernelTableFor(level) != nullptr) out.push_back(level);
  }
  return out;
}

// GB/s of the distance-to-envelope kernel: bytes = 3 streams (x, lo, hi).
double MeasureSqDistGbps(const kernels::KernelTable& table,
                         const std::vector<Series>& data, const Envelope& env) {
  const double inf = kInfiniteDistance;
  double sink = 0.0;
  std::size_t reps = 0;
  const std::uint64_t t0 = obs::MonotonicNowNs();
  std::uint64_t elapsed = 0;
  while (elapsed < 200'000'000ULL) {  // ~0.2 s per tier
    for (const Series& s : data) {
      sink += table.sq_dist_to_box(s.data(), env.lower.data(),
                                   env.upper.data(), s.size(), inf);
    }
    ++reps;
    elapsed = obs::MonotonicNowNs() - t0;
  }
  if (sink == 42.0) std::printf(" ");  // keep the loop observable
  double bytes = static_cast<double>(reps) * static_cast<double>(data.size()) *
                 static_cast<double>(kLen) * 3.0 * sizeof(double);
  return bytes / static_cast<double>(elapsed);
}

// The exact-DTW stage's input: per query, the corpus rows that survive the
// cascade's lower bounds (Keogh both ways, then LB_Improved) at the range
// threshold — the same finalists the engine verifies, without the index.
std::vector<std::vector<const double*>> CascadeFinalists(
    const std::vector<Series>& normals, const std::vector<Series>& queries,
    std::size_t band, double prune_sq) {
  std::vector<Envelope> envs;
  for (const Series& s : normals) envs.push_back(BuildEnvelope(s, band));
  std::vector<std::vector<const double*>> out;
  for (const Series& q : queries) {
    Envelope env_q = BuildEnvelope(q, band);
    std::vector<const double*> rows;
    for (std::size_t i = 0; i < normals.size(); ++i) {
      double keogh_sq = SquaredDistanceToEnvelope(normals[i], env_q, prune_sq);
      if (keogh_sq > prune_sq ||
          SquaredDistanceToEnvelope(q, envs[i], prune_sq) > prune_sq) {
        continue;
      }
      if (keogh_sq + SquaredLbImprovedSecondPass(normals[i], q, env_q, band,
                                                 prune_sq - keogh_sq) >
          prune_sq) {
        continue;
      }
      rows.push_back(normals[i].data());
    }
    out.push_back(std::move(rows));
  }
  return out;
}

// One pass of the exact-DTW stage: every query against its finalists,
// `batch` candidates per kernel call (the engine's kMaxLdtwLanes; 1 is the
// one-at-a-time reference). Returns wall ns; answers land in `out`.
double DtwStageNs(const kernels::KernelTable& table, std::size_t batch,
                  const std::vector<Series>& queries,
                  const std::vector<std::vector<const double*>>& finalists,
                  std::size_t band, double prune_sq, std::vector<double>* out) {
  std::vector<double> scratch(kernels::LdtwScratchDoubles(kLen));
  out->clear();
  const std::uint64_t t0 = obs::MonotonicNowNs();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<const double*>& rows = finalists[q];
    const std::size_t base = out->size();
    out->resize(base + rows.size());
    for (std::size_t b = 0; b < rows.size(); b += batch) {
      table.ldtw_lanes(queries[q].data(), kLen, rows.data() + b, kLen,
                       std::min(batch, rows.size() - b), band, prune_sq,
                       scratch.data(), out->data() + base + b);
    }
  }
  return static_cast<double>(obs::MonotonicNowNs() - t0);
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct CascadeRun {
  QueryStats total;
  std::vector<std::vector<Neighbor>> results;
  double wall_ns = 0.0;
};

CascadeRun RunCascade(const std::vector<Series>& normals,
                      const std::vector<Series>& queries, double radius,
                      bool kim, bool improved) {
  QueryEngineOptions opts;
  opts.normal_len = kLen;
  opts.cascade.kim = kim;
  opts.cascade.improved = improved;
  DtwQueryEngine engine(MakeNewPaaScheme(kLen, kDim), opts);
  std::vector<Series> copy = normals;
  engine.AddAll(std::move(copy));
  CascadeRun run;
  const std::uint64_t t0 = obs::MonotonicNowNs();
  for (const Series& q : queries) {
    QueryStats s;
    run.results.push_back(engine.RangeQuery(q, radius, &s));
    run.total += s;
  }
  run.wall_ns = static_cast<double>(obs::MonotonicNowNs() - t0);
  return run;
}

int Run() {
  PrintBanner("Kernel-layer ablation: SIMD tiers and cascade stages",
              std::to_string(kCorpusSize) + " melody phrases, n=" +
                  std::to_string(kLen) + ", " + std::to_string(kQueries) +
                  " queries; active tier: " +
                  kernels::ActiveKernels().name);

  auto corpus = PhraseCorpus(kCorpusSize, /*seed=*/20030609);
  auto normals = CorpusNormalForms(corpus, kLen);
  auto query_corpus = PhraseCorpus(kQueries, /*seed=*/777);
  auto queries = CorpusNormalForms(query_corpus, kLen);
  const std::size_t band = BandRadiusForWidth(0.1, kLen);

  // Radius calibrated exactly like fig8: 10th percentile of sampled pairwise
  // distances, then widened so the LB stages have real work to do.
  Rng rng(3);
  std::vector<double> dists;
  for (int s = 0; s < 400; ++s) {
    std::size_t i = rng.NextBounded(static_cast<std::uint32_t>(normals.size()));
    std::size_t j = rng.NextBounded(static_cast<std::uint32_t>(normals.size()));
    if (i != j) dists.push_back(LdtwDistance(normals[i], normals[j], band));
  }
  const double radius = Percentile(dists, 10.0);
  std::printf("Calibration radius (10th pct pairwise DTW): %.3f\n", radius);

  // --- 1. kernel throughput and DTW-stage time per tier --------------
  const double prune_sq = radius * radius * (1.0 + 1e-12);
  const auto finalists = CascadeFinalists(normals, queries, band, prune_sq);
  std::size_t finalist_count = 0;
  for (const auto& f : finalists) finalist_count += f.size();
  std::printf("\n--- kernels by SIMD tier (%zu DTW finalists) ---\n",
              finalist_count);
  Envelope env = BuildEnvelope(queries[0], band);
  const kernels::KernelTable& scalar_table = kernels::ScalarKernels();
  std::vector<double> ref_answers, answers;
  DtwStageNs(scalar_table, 1, queries, finalists, band, prune_sq,
             &ref_answers);
  bool lanes_match = true;
  Table tiers({"Tier", "sq_dist_to_box GB/s", "DTW stage ms", "identical"});
  for (SimdLevel level : AvailableLevels()) {
    const kernels::KernelTable& table = *kernels::KernelTableFor(level);
    double lb_gbps = MeasureSqDistGbps(table, normals, env);
    double dtw_ns = DtwStageNs(table, kernels::kMaxLdtwLanes, queries,
                               finalists, band, prune_sq, &answers);
    const bool same = BitIdentical(ref_answers, answers);
    lanes_match = lanes_match && same;
    tiers.AddRow({SimdLevelName(level), Table::Num(lb_gbps, 2),
                  Table::Num(dtw_ns / 1e6, 2), same ? "yes" : "NO"});
    G(std::string("gbps.sq_dist_to_box.") + SimdLevelName(level))
        .Set(static_cast<std::int64_t>(lb_gbps * 1000.0));
    G(std::string("dtw_stage_us.") + SimdLevelName(level))
        .Set(static_cast<std::int64_t>(dtw_ns / 1000.0));
  }
  tiers.Print();

  // Same-host ratio: the dispatched lane kernel against the scalar
  // one-at-a-time reference, alternating which runs first.
  constexpr int kReps = 9;
  const kernels::KernelTable& active = kernels::ActiveKernels();
  std::vector<double> ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    double ref_ns = 0.0, lane_ns = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (rep % 2 == 0)) {
        ref_ns = DtwStageNs(scalar_table, 1, queries, finalists, band,
                            prune_sq, &ref_answers);
      } else {
        lane_ns = DtwStageNs(active, kernels::kMaxLdtwLanes, queries,
                             finalists, band, prune_sq, &answers);
        lanes_match = lanes_match && BitIdentical(ref_answers, answers);
      }
    }
    ratios.push_back(ref_ns / lane_ns);
  }
  const double lane_speedup = Median(ratios);
  std::printf(
      "DTW stage, scalar one-at-a-time / %s lanes: median %.2fx over %d "
      "interleaved reps (min %.2fx, max %.2fx); answers %s\n",
      active.name, lane_speedup, kReps,
      *std::min_element(ratios.begin(), ratios.end()),
      *std::max_element(ratios.begin(), ratios.end()),
      lanes_match ? "BIT-IDENTICAL" : "DIVERGED");
  G("dtw_lane_speedup_milli")
      .Set(static_cast<std::int64_t>(lane_speedup * 1000.0));

  // --- 2. whole-query LB-filter speedup, dispatched vs forced scalar ---
  std::printf("\n--- cascade stage timings: dispatched tier vs scalar ---\n");
  CascadeRun simd = RunCascade(normals, queries, radius, true, true);
  CascadeRun scalar;
  {
    kernels::ScopedKernelOverride force(SimdLevel::kScalar);
    scalar = RunCascade(normals, queries, radius, true, true);
  }
  bool answers_match = simd.results.size() == scalar.results.size();
  for (std::size_t i = 0; answers_match && i < simd.results.size(); ++i) {
    answers_match = simd.results[i].size() == scalar.results[i].size();
    for (std::size_t j = 0; answers_match && j < simd.results[i].size(); ++j) {
      answers_match = simd.results[i][j].id == scalar.results[i][j].id &&
                      simd.results[i][j].distance == scalar.results[i][j].distance;
    }
  }
  // The bar is measured on the Keogh LB-filter stage (lb_ns): that stage is
  // pure kernel work. improved_ns is dominated by the scalar envelope
  // projection + rebuild of the second pass, so it dilutes the kernel win
  // and is reported separately in the table below.
  double lb_speedup = static_cast<double>(scalar.total.lb_ns) /
                      static_cast<double>(simd.total.lb_ns);
  Table ab({"Path", "lb_ns", "improved_ns", "dtw_ns", "total wall ms"});
  ab.AddRow({kernels::ActiveKernels().name, Table::Int(simd.total.lb_ns),
             Table::Int(simd.total.improved_ns), Table::Int(simd.total.dtw_ns),
             Table::Num(simd.wall_ns / 1e6, 1)});
  ab.AddRow({"scalar", Table::Int(scalar.total.lb_ns),
             Table::Int(scalar.total.improved_ns),
             Table::Int(scalar.total.dtw_ns),
             Table::Num(scalar.wall_ns / 1e6, 1)});
  ab.Print();
  std::printf(
      "Keogh LB-filter speedup (scalar lb_ns / dispatched lb_ns): %.2fx; "
      "answers %s\n",
      lb_speedup, answers_match ? "IDENTICAL" : "DIVERGED");
  G("lb_speedup_milli").Set(static_cast<std::int64_t>(lb_speedup * 1000.0));

  // --- 3. stage ablation: pruning rates and exact-DTW reduction --------
  std::printf("\n--- cascade stage ablation (dispatched tier) ---\n");
  CascadeRun bare = RunCascade(normals, queries, radius, false, false);
  CascadeRun kim_only = RunCascade(normals, queries, radius, true, false);
  CascadeRun full = simd;
  auto row = [&](const char* name, const CascadeRun& r) {
    double cand = static_cast<double>(r.total.index_candidates);
    std::vector<std::string> cells = {
        name,
        Table::Int(r.total.index_candidates),
        Table::Num(cand > 0 ? 100.0 * static_cast<double>(r.total.kim_pruned) / cand : 0.0, 1),
        Table::Num(cand > 0 ? 100.0 * static_cast<double>(r.total.improved_pruned) / cand : 0.0, 1),
        Table::Int(r.total.exact_dtw_calls),
        Table::Int(r.total.results),
        Table::Num(r.wall_ns / 1e6, 1)};
    return cells;
  };
  Table stages({"Cascade", "candidates", "kim%", "improved%", "dtw calls",
                "results", "wall ms"});
  stages.AddRow(row("keogh only", bare));
  stages.AddRow(row("+kim", kim_only));
  stages.AddRow(row("+kim+improved", full));
  stages.Print();
  G("dtw_calls.keogh_only").Set(static_cast<std::int64_t>(bare.total.exact_dtw_calls));
  G("dtw_calls.full_cascade").Set(static_cast<std::int64_t>(full.total.exact_dtw_calls));
  G("kim_pruned").Set(static_cast<std::int64_t>(full.total.kim_pruned));
  G("improved_pruned").Set(static_cast<std::int64_t>(full.total.improved_pruned));

  bool same_answers = bare.results.size() == full.results.size();
  std::size_t result_count = 0;
  for (std::size_t i = 0; same_answers && i < bare.results.size(); ++i) {
    same_answers = bare.results[i].size() == full.results[i].size();
    result_count += bare.results[i].size();
  }
  bool dtw_reduced = full.total.exact_dtw_calls < bare.total.exact_dtw_calls;
  std::printf("\nExact-DTW calls: %zu (keogh only) -> %zu (full cascade): %s\n",
              bare.total.exact_dtw_calls, full.total.exact_dtw_calls,
              dtw_reduced ? "STRICTLY REDUCED" : "NOT REDUCED");
  std::printf("Answer sets across ablations (%zu results): %s\n", result_count,
              same_answers ? "IDENTICAL" : "DIVERGED");

  // LB_Improved on/off wall time, median of interleaved repetitions.
  std::vector<double> wall_on, wall_off;
  for (int rep = 0; rep < 5; ++rep) {
    wall_off.push_back(RunCascade(normals, queries, radius, true, false).wall_ns);
    wall_on.push_back(RunCascade(normals, queries, radius, true, true).wall_ns);
  }
  std::printf("LB_Improved wall time (median of 5): off %.1f ms, on %.1f ms\n",
              Median(wall_off) / 1e6, Median(wall_on) / 1e6);
  G("wall_us.improved_off").Set(static_cast<std::int64_t>(Median(wall_off) / 1e3));
  G("wall_us.improved_on").Set(static_cast<std::int64_t>(Median(wall_on) / 1e3));

  bool ok = answers_match && same_answers && dtw_reduced && lanes_match &&
            lb_speedup > 0.0;
  // The >=2x bars only bind when an AVX2 tier is actually dispatched;
  // scalar-only builds (HUMDEX_SIMD=OFF, non-x86) report 1x.
  if (std::string(active.name) == "avx2") {
    std::printf("AVX2 LB-filter bar (>= 2x vs scalar): %s\n",
                lb_speedup >= 2.0 ? "MET" : "MISSED");
    std::printf("AVX2 lane LDTW bar (>= 2x vs scalar one-at-a-time): %s\n",
                lane_speedup >= 2.0 ? "MET" : "MISSED");
    ok = ok && lb_speedup >= 2.0 && lane_speedup >= 2.0;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
}
