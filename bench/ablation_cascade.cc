// Cascade ablation (DESIGN.md §10, §11): the paper's three query stages —
// feature-index probe, LB_Keogh in both directions, exact lane LDTW —
// measured layer by layer on the fig8 Beatles-scale melody workload:
//
//   1. per SIMD tier this machine can run: LB_Keogh kernel throughput (GB/s)
//      and the exact-DTW stage time on the cascade's Keogh survivors, then
//      the lane-parallel LDTW kernel against the scalar one-at-a-time
//      reference over interleaved repetitions, on the same survivors;
//   2. whole-cascade A/B of the dispatched tier against HUMDEX_FORCE_SCALAR
//      semantics (ScopedKernelOverride), measuring the LB-filter speedup;
//   3. the Keogh stage on and off: answers against a brute-force scan, and
//      the stage's net wall-time contribution as the median of interleaved
//      repetitions;
//   4. reported, not gated: Lemire's LB_Improved as a standalone filter
//      between Keogh and exact LDTW (wall time on and off), and kNN on the
//      coarse DFT 128 -> 4 scheme — two-step and optimal — over phrases plus
//      random walks, the regime where the removed tau-seeding used to pay.
//
// Exits non-zero if any answer differs from brute force or between tiers
// and kernels, if the default Keogh stage costs more wall time than it
// saves, and on AVX2 hosts if either same-host ratio misses 2x: the Keogh
// LB filter against scalar, or the lane LDTW kernel against the scalar
// reference.
//
// Every headline number also lands in the metrics registry, so running with
// --metrics_out=BENCH_cascade.json gives CI a machine-readable artifact of
// cascade stage timings and pruning rates.
#include <algorithm>
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
#include "ts/normal_form.h"
#include "util/random.h"
#include "util/stats.h"

namespace humdex::bench {
namespace {

constexpr std::size_t kCorpusSize = 1000;
constexpr std::size_t kLen = 128;
constexpr std::size_t kDim = 8;
constexpr std::size_t kQueries = 100;
constexpr int kReps = 9;

// Section 4's kNN workload: the old reference-point ablation's corpus.
constexpr std::size_t kKnnPhrases = 4000;
constexpr std::size_t kKnnWalks = 4000;
constexpr std::size_t kKnnQueries = 40;
constexpr std::size_t kKnnK = 10;

obs::Gauge& G(const std::string& name) {
  return obs::MetricsRegistry::Default().GetGauge("bench.cascade." + name);
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> out = {SimdLevel::kScalar};
  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (kernels::KernelTableFor(level) != nullptr) out.push_back(level);
  }
  return out;
}

double Ms(double ns) { return ns / 1e6; }

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

// The exact-DTW stage's input: per query, the corpus indices that survive
// LB_Keogh in both directions at the range threshold — the same survivors
// the engine verifies, without the index.
std::vector<std::vector<std::size_t>> KeoghSurvivors(
    const std::vector<Series>& normals, const std::vector<Series>& queries,
    std::size_t band, double prune_sq) {
  std::vector<Envelope> envs;
  for (const Series& s : normals) envs.push_back(BuildEnvelope(s, band));
  std::vector<std::vector<std::size_t>> out;
  for (const Series& q : queries) {
    Envelope env_q = BuildEnvelope(q, band);
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < normals.size(); ++i) {
      if (SquaredDistanceToEnvelope(normals[i], env_q, prune_sq) > prune_sq ||
          SquaredDistanceToEnvelope(q, envs[i], prune_sq) > prune_sq) {
        continue;
      }
      keep.push_back(i);
    }
    out.push_back(std::move(keep));
  }
  return out;
}

// One pass of the exact-DTW stage: every query against its survivors,
// `batch` candidates per kernel call (the engine's kMaxLdtwLanes; 1 is the
// one-at-a-time reference). Returns wall ns; squared distances land in `out`.
double DtwStageNs(const kernels::KernelTable& table, std::size_t batch,
                  const std::vector<Series>& queries,
                  const std::vector<Series>& normals,
                  const std::vector<std::vector<std::size_t>>& survivors,
                  std::size_t band, double prune_sq, std::vector<double>* out) {
  std::vector<double> scratch(kernels::LdtwScratchDoubles(kLen));
  std::vector<const double*> rows;
  out->clear();
  const std::uint64_t t0 = obs::MonotonicNowNs();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    rows.clear();
    for (std::size_t i : survivors[q]) rows.push_back(normals[i].data());
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

// The same stage with LB_Improved's second pass run first on every Keogh
// survivor: only candidates whose two-pass bound stays within the threshold
// reach exact DTW. Returns wall ns; `accepted` receives, per query, the
// survivor indices whose exact distance is within the threshold.
double ImprovedThenDtwNs(const std::vector<Series>& queries,
                         const std::vector<Series>& normals,
                         const std::vector<std::vector<std::size_t>>& survivors,
                         std::size_t band, double prune_sq, bool improved,
                         std::vector<std::vector<std::size_t>>* accepted) {
  const kernels::KernelTable& table = kernels::ActiveKernels();
  std::vector<double> scratch(kernels::LdtwScratchDoubles(kLen));
  std::vector<std::size_t> finalists;
  std::vector<const double*> rows;
  std::vector<double> d_sq;
  accepted->assign(queries.size(), {});
  const std::uint64_t t0 = obs::MonotonicNowNs();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    finalists.clear();
    if (improved) {
      Envelope env_q = BuildEnvelope(queries[q], band);
      for (std::size_t i : survivors[q]) {
        const double keogh_sq =
            SquaredDistanceToEnvelope(normals[i], env_q, prune_sq);
        if (keogh_sq + SquaredLbImprovedSecondPass(normals[i], queries[q],
                                                   env_q, band,
                                                   prune_sq - keogh_sq) <=
            prune_sq) {
          finalists.push_back(i);
        }
      }
    } else {
      finalists = survivors[q];
    }
    rows.clear();
    for (std::size_t i : finalists) rows.push_back(normals[i].data());
    d_sq.resize(rows.size());
    for (std::size_t b = 0; b < rows.size(); b += kernels::kMaxLdtwLanes) {
      table.ldtw_lanes(queries[q].data(), kLen, rows.data() + b, kLen,
                       std::min(kernels::kMaxLdtwLanes, rows.size() - b), band,
                       prune_sq, scratch.data(), d_sq.data() + b);
    }
    for (std::size_t c = 0; c < finalists.size(); ++c) {
      if (d_sq[c] <= prune_sq) (*accepted)[q].push_back(finalists[c]);
    }
  }
  return static_cast<double>(obs::MonotonicNowNs() - t0);
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using Answers = std::vector<std::vector<Neighbor>>;

bool SameAnswers(const Answers& a, const Answers& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].distance != b[i][j].distance) {
        return false;
      }
    }
  }
  return true;
}

// The oracle: every corpus series ranked by exact banded DTW, (distance, id)
// ascending; `keep` is how many to return (0 = those within `epsilon`).
Answers BruteForce(const std::vector<Series>& normals,
                   const std::vector<Series>& queries, std::size_t band,
                   double epsilon, std::size_t keep) {
  Answers out;
  for (const Series& q : queries) {
    std::vector<Neighbor> all;
    for (std::size_t i = 0; i < normals.size(); ++i) {
      double d = LdtwDistance(q, normals[i], band);
      if (keep > 0 || d <= epsilon) {
        all.push_back({static_cast<std::int64_t>(i), d});
      }
    }
    std::sort(all.begin(), all.end());
    if (keep > 0 && all.size() > keep) all.resize(keep);
    out.push_back(std::move(all));
  }
  return out;
}

struct CascadeRun {
  QueryStats total;
  Answers results;
  double wall_ns = 0.0;
};

DtwQueryEngine MakeEngine(const std::vector<Series>& normals,
                          std::shared_ptr<const FeatureScheme> scheme,
                          bool keogh) {
  QueryEngineOptions opts;
  opts.normal_len = kLen;
  opts.cascade.keogh = keogh;
  DtwQueryEngine engine(std::move(scheme), opts);
  engine.AddAll(normals);
  return engine;
}

CascadeRun RunRange(const DtwQueryEngine& engine,
                    const std::vector<Series>& queries, double radius) {
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

CascadeRun RunKnn(const DtwQueryEngine& engine,
                  const std::vector<Series>& queries, bool optimal) {
  CascadeRun run;
  const std::uint64_t t0 = obs::MonotonicNowNs();
  for (const Series& q : queries) {
    QueryStats s;
    run.results.push_back(optimal ? engine.KnnQueryOptimal(q, kKnnK, &s)
                                  : engine.KnnQuery(q, kKnnK, &s));
    run.total += s;
  }
  run.wall_ns = static_cast<double>(obs::MonotonicNowNs() - t0);
  return run;
}

int Run() {
  PrintBanner("Cascade ablation: index -> LB_Keogh -> lane LDTW",
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
  // distances, so the LB stage has real work to do.
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
  const auto survivors = KeoghSurvivors(normals, queries, band, prune_sq);
  std::size_t survivor_count = 0;
  for (const auto& f : survivors) survivor_count += f.size();
  std::printf("\n--- kernels by SIMD tier (%zu Keogh survivors) ---\n",
              survivor_count);
  Envelope env = BuildEnvelope(queries[0], band);
  const kernels::KernelTable& scalar_table = kernels::ScalarKernels();
  std::vector<double> ref_answers, answers;
  DtwStageNs(scalar_table, 1, queries, normals, survivors, band, prune_sq,
             &ref_answers);
  bool lanes_match = true;
  Table tiers({"Tier", "sq_dist_to_box GB/s", "DTW stage ms", "identical"});
  for (SimdLevel level : AvailableLevels()) {
    const kernels::KernelTable& table = *kernels::KernelTableFor(level);
    double lb_gbps = MeasureSqDistGbps(table, normals, env);
    double dtw_ns = DtwStageNs(table, kernels::kMaxLdtwLanes, queries, normals,
                               survivors, band, prune_sq, &answers);
    const bool same = BitIdentical(ref_answers, answers);
    lanes_match = lanes_match && same;
    tiers.AddRow({SimdLevelName(level), Table::Num(lb_gbps, 2),
                  Table::Num(Ms(dtw_ns), 2), same ? "yes" : "NO"});
    G(std::string("gbps.sq_dist_to_box.") + SimdLevelName(level))
        .Set(static_cast<std::int64_t>(lb_gbps * 1000.0));
    G(std::string("dtw_stage_us.") + SimdLevelName(level))
        .Set(static_cast<std::int64_t>(dtw_ns / 1000.0));
  }
  tiers.Print();

  // Same-host ratio: the dispatched lane kernel against the scalar
  // one-at-a-time reference, alternating which runs first.
  const kernels::KernelTable& active = kernels::ActiveKernels();
  std::vector<double> ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    double ref_ns = 0.0, lane_ns = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (rep % 2 == 0)) {
        ref_ns = DtwStageNs(scalar_table, 1, queries, normals, survivors, band,
                            prune_sq, &ref_answers);
      } else {
        lane_ns = DtwStageNs(active, kernels::kMaxLdtwLanes, queries, normals,
                             survivors, band, prune_sq, &answers);
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
  const DtwQueryEngine keogh_on =
      MakeEngine(normals, MakeNewPaaScheme(kLen, kDim), true);
  const DtwQueryEngine keogh_off =
      MakeEngine(normals, MakeNewPaaScheme(kLen, kDim), false);
  CascadeRun simd = RunRange(keogh_on, queries, radius);
  CascadeRun scalar;
  {
    kernels::ScopedKernelOverride force(SimdLevel::kScalar);
    scalar = RunRange(keogh_on, queries, radius);
  }
  const bool tiers_match = SameAnswers(simd.results, scalar.results);
  // The bar is measured on the Keogh LB-filter stage (lb_ns): that stage is
  // pure kernel work.
  double lb_speedup = static_cast<double>(scalar.total.lb_ns) /
                      static_cast<double>(simd.total.lb_ns);
  Table ab({"Path", "index_ns", "lb_ns", "dtw_ns", "total wall ms"});
  ab.AddRow({kernels::ActiveKernels().name, Table::Int(simd.total.index_ns),
             Table::Int(simd.total.lb_ns), Table::Int(simd.total.dtw_ns),
             Table::Num(Ms(simd.wall_ns), 1)});
  ab.AddRow({"scalar", Table::Int(scalar.total.index_ns),
             Table::Int(scalar.total.lb_ns), Table::Int(scalar.total.dtw_ns),
             Table::Num(Ms(scalar.wall_ns), 1)});
  ab.Print();
  std::printf(
      "Keogh LB-filter speedup (scalar lb_ns / dispatched lb_ns): %.2fx; "
      "answers %s\n",
      lb_speedup, tiers_match ? "IDENTICAL" : "DIVERGED");
  G("lb_speedup_milli").Set(static_cast<std::int64_t>(lb_speedup * 1000.0));

  // --- 3. the Keogh stage on vs off: exactness and net wall time -------
  std::printf("\n--- Keogh stage on vs off (dispatched tier) ---\n");
  const Answers oracle = BruteForce(normals, queries, band, radius, 0);
  CascadeRun off = RunRange(keogh_off, queries, radius);
  const bool range_exact =
      SameAnswers(simd.results, oracle) && SameAnswers(off.results, oracle);
  // Net contribution: wall time without the stage minus wall time with it,
  // median over interleaved repetitions (alternating which runs first).
  std::vector<double> wall_on, wall_off, saved;
  for (int rep = 0; rep < kReps; ++rep) {
    double on_ns = 0.0, off_ns = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (rep % 2 == 0)) {
        on_ns = RunRange(keogh_on, queries, radius).wall_ns;
      } else {
        off_ns = RunRange(keogh_off, queries, radius).wall_ns;
      }
    }
    wall_on.push_back(on_ns);
    wall_off.push_back(off_ns);
    saved.push_back(off_ns - on_ns);
  }
  const double keogh_net_ns = Median(saved);
  Table stages({"Cascade", "candidates", "keogh%", "dtw calls", "results",
                "median wall ms"});
  auto row = [&](const char* name, const CascadeRun& r, double wall_ns) {
    double cand = static_cast<double>(r.total.index_candidates);
    stages.AddRow(
        {name, Table::Int(r.total.index_candidates),
         Table::Num(cand > 0 ? 100.0 *
                                   static_cast<double>(r.total.keogh_pruned) /
                                   cand
                             : 0.0,
                    1),
         Table::Int(r.total.exact_dtw_calls), Table::Int(r.total.results),
         Table::Num(Ms(wall_ns), 1)});
  };
  row("index -> lane LDTW", off, Median(wall_off));
  row("index -> Keogh -> lane LDTW", simd, Median(wall_on));
  stages.Print();
  const bool keogh_pays = keogh_net_ns > 0.0;
  std::printf("Keogh net wall-time saving (median of %d interleaved reps): "
              "%.1f ms (%s); answers vs brute force: %s\n",
              kReps, Ms(keogh_net_ns), keogh_pays ? "PAYS" : "DOES NOT PAY",
              range_exact ? "IDENTICAL" : "DIVERGED");
  G("dtw_calls.keogh_off").Set(static_cast<std::int64_t>(off.total.exact_dtw_calls));
  G("dtw_calls.keogh_on").Set(static_cast<std::int64_t>(simd.total.exact_dtw_calls));
  G("keogh_pruned").Set(static_cast<std::int64_t>(simd.total.keogh_pruned));
  G("wall_us.keogh_off").Set(static_cast<std::int64_t>(Median(wall_off) / 1e3));
  G("wall_us.keogh_on").Set(static_cast<std::int64_t>(Median(wall_on) / 1e3));

  // --- 4a. LB_Improved as a standalone stage (reported, not gated) -----
  std::printf("\n--- LB_Improved between Keogh and lane LDTW (not gated) ---\n");
  std::vector<double> improved_on, improved_off;
  std::vector<std::vector<std::size_t>> accepted_on, accepted_off;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (rep % 2 == 0)) {
        improved_off.push_back(ImprovedThenDtwNs(
            queries, normals, survivors, band, prune_sq, false, &accepted_off));
      } else {
        improved_on.push_back(ImprovedThenDtwNs(
            queries, normals, survivors, band, prune_sq, true, &accepted_on));
      }
    }
  }
  const bool improved_same = accepted_on == accepted_off;
  std::printf("Keogh survivors -> lane LDTW, median of %d interleaved reps: "
              "LB_Improved off %.1f ms, on %.1f ms; accepted sets %s\n",
              kReps, Ms(Median(improved_off)), Ms(Median(improved_on)),
              improved_same ? "IDENTICAL" : "DIVERGED");
  G("wall_us.improved_off").Set(static_cast<std::int64_t>(Median(improved_off) / 1e3));
  G("wall_us.improved_on").Set(static_cast<std::int64_t>(Median(improved_on) / 1e3));

  // --- 4b. kNN on the coarse DFT 128 -> 4 scheme (reported, not gated) --
  std::printf("\n--- kNN, DFT 128 -> 4, %zu phrases + %zu walks, k=%zu "
              "(not gated) ---\n",
              kKnnPhrases, kKnnWalks, kKnnK);
  std::vector<Series> knn_normals =
      CorpusNormalForms(PhraseCorpus(kKnnPhrases, /*seed=*/20030609), kLen);
  for (Series& w : RandomWalkSet(kKnnWalks, kLen, /*seed=*/88)) {
    knn_normals.push_back(NormalForm(w, kLen));
  }
  // Hums are noisy renditions of the first few phrases — the query-by-
  // humming workload shape (a hum is a corrupted corpus melody).
  Rng knn_rng(777);
  std::vector<Series> knn_queries;
  for (std::size_t i = 0; i < kKnnQueries; ++i) {
    Series q = knn_normals[i % 16];
    for (double& v : q) v += knn_rng.Uniform(-0.25, 0.25);
    knn_queries.push_back(NormalForm(q, kLen));
  }
  const DtwQueryEngine dft4 =
      MakeEngine(knn_normals, MakeDftScheme(kLen, 4), true);
  const Answers knn_oracle =
      BruteForce(knn_normals, knn_queries, band, 0.0, kKnnK);
  CascadeRun two_step = RunKnn(dft4, knn_queries, false);
  CascadeRun optimal = RunKnn(dft4, knn_queries, true);
  const bool knn_exact = SameAnswers(two_step.results, knn_oracle) &&
                         SameAnswers(optimal.results, knn_oracle);
  Table knn({"kNN", "dtw calls", "dtw calls/query", "wall ms"});
  for (const auto& [label, r] :
       {std::pair<const char*, const CascadeRun*>{"two-step", &two_step},
        {"optimal", &optimal}}) {
    knn.AddRow({label, Table::Int(r->total.exact_dtw_calls),
                Table::Num(static_cast<double>(r->total.exact_dtw_calls) /
                               static_cast<double>(kKnnQueries),
                           1),
                Table::Num(Ms(r->wall_ns), 1)});
  }
  knn.Print();
  std::printf("kNN answers vs brute force: %s\n",
              knn_exact ? "IDENTICAL" : "DIVERGED");
  G("knn_dft4.twostep.dtw_calls")
      .Set(static_cast<std::int64_t>(two_step.total.exact_dtw_calls));
  G("knn_dft4.optimal.dtw_calls")
      .Set(static_cast<std::int64_t>(optimal.total.exact_dtw_calls));
  G("knn_dft4.twostep.wall_us")
      .Set(static_cast<std::int64_t>(two_step.wall_ns / 1e3));
  G("knn_dft4.optimal.wall_us")
      .Set(static_cast<std::int64_t>(optimal.wall_ns / 1e3));

  bool ok = lanes_match && tiers_match && range_exact && improved_same &&
            knn_exact && keogh_pays && lb_speedup > 0.0;
  // The >=2x bars only bind when an AVX2 tier is actually dispatched;
  // scalar-only builds (HUMDEX_SIMD=OFF, non-x86) report 1x.
  if (std::string(active.name) == "avx2") {
    std::printf("AVX2 LB-filter bar (>= 2x vs scalar): %s\n",
                lb_speedup >= 2.0 ? "MET" : "MISSED");
    std::printf("AVX2 lane LDTW bar (>= 2x vs scalar one-at-a-time): %s\n",
                lane_speedup >= 2.0 ? "MET" : "MISSED");
    ok = ok && lb_speedup >= 2.0 && lane_speedup >= 2.0;
  }
  std::printf("\nGate (answers identical to brute force and across tiers, "
              "Keogh pays its wall time, AVX2 bars): %s\n",
              ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
}
