// Ablation (serving layer, DESIGN.md §12): the sharded engine versus one
// unsharded QbhSystem on the same corpus.
//
// Correctness gate (always enforced, exit non-zero on violation):
//   - healthy-path Query answers are bit-identical to the unsharded engine
//     for every shard count;
//   - with one shard quarantined the answer is flagged partial and equals
//     the unsharded ranking with that shard's melodies removed.
//
// Performance: saturation throughput and per-query latency versus shard
// count, driven through QueryBatch, with the exact DTW calls per query beside
// it (printed only). The throughput-scaling gate (more shards
// on a healthy engine must not get slower) only arms on multi-core hosts —
// on one core every shard count measures the same serial work plus
// scheduling overhead, and the numbers are reported but not judged.
#include <chrono>
#include <cstdio>

#include "common.h"
#include "music/hummer.h"
#include "obs/metrics.h"
#include "serve/sharded_engine.h"
#include "util/thread_pool.h"

namespace humdex::bench {
namespace {

bool SameMatches(const std::vector<QbhMatch>& a,
                 const std::vector<QbhMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance ||
        a[i].name != b[i].name) {
      return false;
    }
  }
  return true;
}

int Run() {
  const std::size_t kCorpusSize = 600;
  const std::size_t kQueries = 48;
  const std::size_t kTopK = 10;
  const std::size_t kRounds = 3;  // batch rounds per shard count

  PrintBanner(
      "Ablation: sharded serving engine vs one unsharded QbhSystem",
      std::to_string(kCorpusSize) + " phrases, k=" + std::to_string(kTopK) +
          ", " + std::to_string(kQueries) + " queries/batch (host has " +
          std::to_string(ThreadPool::DefaultThreadCount()) + " hw threads)");

  std::vector<Melody> corpus = PhraseCorpus(kCorpusSize, /*seed=*/424242);
  QbhSystem single;
  for (const Melody& m : corpus) single.AddMelody(m);
  single.Build();

  Hummer hummer(HummerProfile::Good(), 31);
  std::vector<Series> hums;
  hums.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    hums.push_back(hummer.Hum(corpus[(i * 13) % corpus.size()]));
  }

  // Unsharded reference: answers and single-thread batch time.
  std::vector<std::vector<QbhMatch>> reference;
  reference.reserve(hums.size());
  QueryStats base_stats;
  auto start = std::chrono::steady_clock::now();
  for (const Series& hum : hums) {
    QueryStats stats;
    reference.push_back(single.Query(hum, kTopK, &stats));
    base_stats += stats;
  }
  auto stop = std::chrono::steady_clock::now();
  const double base_seconds =
      std::chrono::duration<double>(stop - start).count();
  const double base_qps = static_cast<double>(kQueries) / base_seconds;

  obs::Gauge& qps_gauge =
      obs::MetricsRegistry::Default().GetGauge("bench.serving.qps");

  auto dtw_per_query = [&](const QueryStats& stats) {
    return Table::Num(static_cast<double>(stats.exact_dtw_calls) /
                          static_cast<double>(kQueries),
                      1);
  };
  Table table({"shards", "batch sec", "queries/s", "vs unsharded",
               "DTW/query", "partial-ok", "identical"});
  table.AddRow({"none", Table::Num(base_seconds, 3), Table::Num(base_qps, 1),
                Table::Num(1.0, 2), dtw_per_query(base_stats), "-", "-"});

  bool all_identical = true;
  bool all_partial_ok = true;
  double qps_min_shards = 0.0;
  double qps_max_shards = 0.0;
  std::size_t min_shards = 0;
  std::size_t max_shards = 0;

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    serve::ShardedOptions opts;
    opts.num_shards = shards;
    auto created = serve::ShardedEngine::Create(corpus, opts);
    if (!created.ok()) {
      std::printf("Create(%zu shards) failed: %s\n", shards,
                  created.status().ToString().c_str());
      return 1;
    }
    auto& engine = *created.value();

    // Correctness gate 1: healthy-path answers are bit-identical.
    bool identical = true;
    for (std::size_t i = 0; i < hums.size() && identical; ++i) {
      QueryStats stats;
      auto got = engine.Query(hums[i], kTopK, QueryOptions(), &stats);
      identical = !stats.partial && SameMatches(got, reference[i]);
    }
    all_identical = all_identical && identical;

    // Correctness gate 2: quarantine one shard; answers must be flagged
    // partial and equal the reference with that shard's ids filtered out.
    bool partial_ok = true;
    if (shards > 1) {
      const std::size_t quarantined = shards - 1;
      engine.QuarantineShard(quarantined);
      for (std::size_t i = 0; i < hums.size() && partial_ok; ++i) {
        QueryStats stats;
        auto got = engine.Query(hums[i], kTopK, QueryOptions(), &stats);
        auto full = single.Query(hums[i], corpus.size());
        std::vector<QbhMatch> expect;
        for (const QbhMatch& m : full) {
          if (static_cast<std::size_t>(m.id) % shards != quarantined) {
            expect.push_back(m);
          }
          if (expect.size() == kTopK) break;
        }
        partial_ok = stats.partial && stats.shards_failed == 1 &&
                     SameMatches(got, expect);
      }
      // Back to healthy for the throughput runs.
      Status st = engine.RepairShard(quarantined);
      partial_ok = partial_ok && !st.ok();  // nothing durable to repair from
      all_partial_ok = all_partial_ok && partial_ok;
    }

    // Throughput: rebuild a fully healthy engine (the quarantined shard has
    // no storage, so the cheapest route back is a fresh Create).
    auto healthy = serve::ShardedEngine::Create(corpus, opts);
    if (!healthy.ok()) return 1;
    double best_seconds = 0.0;
    QueryStats batch_stats;  // identical every round: counts are exact
    for (std::size_t round = 0; round < kRounds; ++round) {
      auto t0 = std::chrono::steady_clock::now();
      auto results = healthy.value()->QueryBatch(hums, kTopK, QueryOptions(),
                                                 &batch_stats);
      auto t1 = std::chrono::steady_clock::now();
      const double seconds = std::chrono::duration<double>(t1 - t0).count();
      if (round == 0 || seconds < best_seconds) best_seconds = seconds;
      if (results.size() != hums.size()) return 1;
    }
    const double qps = static_cast<double>(kQueries) / best_seconds;
    if (min_shards == 0) {
      min_shards = shards;
      qps_min_shards = qps;
    }
    max_shards = shards;
    qps_max_shards = qps;
    qps_gauge.Set(static_cast<std::int64_t>(qps));

    table.AddRow({Table::Int(shards), Table::Num(best_seconds, 3),
                  Table::Num(qps, 1), Table::Num(qps / base_qps, 2),
                  dtw_per_query(batch_stats),
                  shards > 1 ? (all_partial_ok ? "yes" : "NO") : "-",
                  identical ? "yes" : "NO"});
  }
  table.Print();

  std::printf("\nHealthy-path answers %s bit-identical to the unsharded "
              "engine;\nquarantined-shard answers %s flagged partial and "
              "exact over the rest.\n",
              all_identical ? "are" : "are NOT",
              all_partial_ok ? "are" : "are NOT");

  bool scaling_ok = true;
  if (ThreadPool::DefaultThreadCount() >= 2) {
    // Saturation throughput must not degrade as shards are added: the
    // fan-out parallelizes DTW work, so on a multi-core host N shards must
    // at least hold the line against the smallest shard count (0.75 gives
    // slack for scheduling noise).
    scaling_ok = qps_max_shards >= 0.75 * qps_min_shards;
    std::printf("Scaling gate: %zu shards %.1f q/s vs %zu shards %.1f q/s "
                "-> %s\n",
                max_shards, qps_max_shards, min_shards, qps_min_shards,
                scaling_ok ? "ok" : "FAIL");
  } else {
    std::printf("Scaling gate skipped: 1 hardware thread, every shard count "
                "measures the same serial work.\n");
  }

  return (all_identical && all_partial_ok && scaling_ok) ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
}
