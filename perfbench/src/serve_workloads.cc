// knn_serve and range_tight: a 20k-phrase, 4-shard ShardedEngine behind an
// in-process HumdexServer on loopback, driven by kConnections closed-loop
// wire clients sending `query` top-10 (knn_serve) or `range` with a small
// fixed epsilon (range_tight). Every wire answer is checked bit-identical to
// one unsharded QbhSystem built from the same corpus. knn_serve's traced run
// also measures the write and storage layers (durable.cc).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "serve/server.h"
#include "util/thread_pool.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

using humdex::serve::HumdexServer;
using humdex::serve::Request;
using humdex::serve::ServerOptions;
using humdex::serve::ShardedEngine;
using humdex::serve::ShardedOptions;

namespace {

constexpr std::size_t kCorpus = 20000;
/// Distinct hums the clients cycle through. query_p99_ms is taken over the
/// hums' median latencies (AddLatencyMetrics), so the pool is large enough
/// that ten hums lie beyond its p99, and small enough that a 30 s run at
/// knn_serve's rate sends each hum about six times.
constexpr std::size_t kHums = 1024;
/// The oracle checks the wire answers of every kOracleStride-th hum; the
/// breakdown pass runs every kBreakdownStride-th hum.
constexpr std::size_t kOracleStride = 8;
constexpr std::size_t kBreakdownStride = 16;
/// range_tight's epsilon: fixed once from seed 1's corpus the way
/// bench/ablation_kernels calibrates its radius — a low percentile (here the
/// 0.1th) of 2000 sampled pairwise LDTW distances between normal forms.
constexpr double kRangeEpsilon = 18.89;

/// Checks the wire answers of every `stride`-th hum against one unsharded
/// QbhSystem (the expected answers are computed on 4 threads). Returns the
/// number of wrong answers; `*checked` gets how many were checked.
std::size_t CountWrong(const std::vector<WireAnswer>& answers,
                       const QbhSystem& unsharded,
                       const std::vector<Series>& hums, std::size_t stride,
                       bool range, double epsilon, std::size_t* checked) {
  std::vector<std::vector<QbhMatch>> expected(hums.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t h = t * stride; h < hums.size(); h += 4 * stride) {
        expected[h] = range ? unsharded.RangeQuery(hums[h], epsilon)
                            : unsharded.Query(hums[h], kTopK);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::size_t wrong = 0;
  *checked = 0;
  for (const WireAnswer& a : answers) {
    if (a.hum % stride != 0) continue;
    ++*checked;
    if (!SameAnswer(a.matches, expected[a.hum])) ++wrong;
  }
  return wrong;
}

std::vector<Series> EveryNth(const std::vector<Series>& hums,
                             std::size_t stride) {
  std::vector<Series> out;
  for (std::size_t h = 0; h < hums.size(); h += stride) out.push_back(hums[h]);
  return out;
}

std::vector<QbhMatch> MergeShards(std::vector<std::vector<QbhMatch>> local,
                                  bool range) {
  std::vector<QbhMatch> all;
  for (std::size_t s = 0; s < local.size(); ++s) {
    for (QbhMatch& m : local[s]) {
      m.id = m.id * static_cast<std::int64_t>(local.size()) +
             static_cast<std::int64_t>(s);
      all.push_back(std::move(m));
    }
  }
  std::sort(all.begin(), all.end(), [](const QbhMatch& a, const QbhMatch& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  if (!range && all.size() > kTopK) all.resize(kTopK);
  return all;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Round-robin shard systems built by the benchmark: shard s holds corpus
/// rows g with g % kShards == s under local id g / kShards, exactly like the
/// engine's shards.
std::vector<QbhSystem> BuildShardSystems(const std::vector<Melody>& corpus) {
  std::vector<QbhSystem> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<Melody> rows;
    for (std::size_t g = s; g < corpus.size(); g += kShards) {
      rows.push_back(corpus[g]);
    }
    shards.push_back(BuildSystem(rows));
  }
  return shards;
}

/// thread_pool.worker_busy_ns so far: the engine pool's workers' time spent
/// running tasks.
std::uint64_t PoolBusyNs() {
  return humdex::obs::MetricsRegistry::Default()
      .GetCounter("thread_pool.worker_busy_ns")
      .value();
}

/// pool.busy_share: busy time between two PoolBusyNs readings over the
/// workers' wall time between them.
void AddPoolMetrics(Report* report, std::uint64_t busy_before_ns,
                    std::uint64_t busy_after_ns, double seconds,
                    std::int64_t queue_depth_max) {
  const double workers =
      static_cast<double>(humdex::ThreadPool::DefaultThreadCount());
  report->Metric("pool.busy_share",
                 static_cast<double>(busy_after_ns - busy_before_ns) /
                     (workers * seconds * 1e9),
                 "ratio");
  report->Metric("pool.queue_depth_max", static_cast<double>(queue_depth_max),
                 "count");
}

/// buffer_pool.* hits over hits + misses so far in the process (0 when the
/// serving path attaches no buffer pool).
void AddBufferPoolMetric(Report* report) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& [name, value] :
       humdex::obs::MetricsRegistry::Default().CounterValues()) {
    if (name.rfind("buffer_pool.", 0) != 0) continue;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".hits") == 0) {
      hits += value;
    } else if (name.size() > 7 &&
               name.compare(name.size() - 7, 7, ".misses") == 0) {
      misses += value;
    }
  }
  report->Metric("buffer_pool.hit_ratio",
                 hits + misses == 0 ? 0.0
                                    : static_cast<double>(hits) /
                                          static_cast<double>(hits + misses),
                 "ratio");
}

/// Writes the traced run's spans to <out_dir>/spans-<workload>-<seed>.jsonl.
void WriteSpans(Report* report, const SpanRecorder& spans,
                const RunOptions& run) {
  const std::string path = run.out_dir + "/spans-" + run.workload + "-" +
                           std::to_string(run.seed) + ".jsonl";
  const bool ok = spans.WriteJsonl(path);
  report->Note(ok ? "spans written to " + path
                  : "could not write spans to " + path);
}

/// Per-layer metrics of the traced wire phase (server.*, protocol.*,
/// sharded.query_us) from the spans of the requests `load` sent in its
/// measured window; prints the self-time table and how much of
/// server.dispatch the layers' self times account for.
void AddWireLayerMetrics(Report* report, const std::vector<Span>& raw,
                         const LoadResult& load) {
  // Link each server.dispatch and reply framing under the client.wait of
  // the same request: the server's work happens inside the client's wait.
  std::vector<Span> spans = raw;
  std::unordered_map<std::uint64_t, std::uint64_t> wait_of;
  std::unordered_map<std::uint64_t, std::uint64_t> request_start;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "client.wait") wait_of[s.request] = s.id;
    if (std::string_view(s.name) == "client.request") {
      request_start[s.request] = s.start_ns;
    }
  }
  for (Span& s : spans) {
    if (std::string_view(s.name) == "server.dispatch" ||
        std::string_view(s.name) == "protocol.encode_frame") {
      auto it = wait_of.find(s.request);
      if (it != wait_of.end()) s.parent = it->second;
    }
  }
  const std::vector<std::uint64_t> self = SelfTimes(spans);

  struct Agg {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  std::size_t requests = 0;
  double codec_us = 0.0;
  double dispatch_us = 0.0;
  double dispatch_tree_self_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto start = request_start.find(s.request);
    if (start == request_start.end() ||
        start->second < load.window_start_ns) {
      continue;  // warm-up request
    }
    const std::string name = s.name;
    Agg& a = by_name[name];
    ++a.count;
    a.total_us += static_cast<double>(s.duration_ns()) * 1e-3;
    a.self_us += static_cast<double>(self[i]) * 1e-3;
    if (name == "client.request") ++requests;
    if (name.rfind("protocol.", 0) == 0) {
      codec_us += static_cast<double>(s.duration_ns()) * 1e-3;
    }
    if (name == "server.dispatch") {
      dispatch_us += static_cast<double>(s.duration_ns()) * 1e-3;
    }
    const bool under_dispatch =
        name == "server.dispatch" ||
        name == "protocol.parse_request" || name == "sharded.query" ||
        name == "protocol.encode_response";
    if (under_dispatch) {
      dispatch_tree_self_us += static_cast<double>(self[i]) * 1e-3;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(requests, 1));
  auto mean_of = [&](const char* name, bool self_time) {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.count == 0) return 0.0;
    return (self_time ? it->second.self_us : it->second.total_us) /
           static_cast<double>(it->second.count);
  };
  report->Metric("server.dispatch_us", mean_of("server.dispatch", false), "us");
  report->Metric("server.self_us", mean_of("server.dispatch", true), "us");
  report->Metric("server.wire_us", mean_of("client.wait", true), "us");
  report->Metric("protocol.codec_us", codec_us / n + load.encode_us, "us");
  report->Metric("protocol.request_bytes", load.request_bytes, "bytes");
  report->Metric("protocol.response_bytes", load.response_bytes, "bytes");
  report->Metric("sharded.query_us", mean_of("sharded.query", false), "us");

  report->Note("self-time table (traced wire phase, per span, us; request "
               "encode is done once per hum up front: " +
               std::to_string(load.encode_us) + " us each):");
  for (const auto& [name, a] : by_name) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-26s n=%-7zu mean=%10.1f self=%10.1f",
                  name.c_str(), a.count, a.total_us / static_cast<double>(a.count),
                  a.self_us / static_cast<double>(a.count));
    report->Note(line);
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "layer self times under server.dispatch sum to %.1f%% of "
                "server.dispatch_us (server self %.1f%%)",
                dispatch_us > 0 ? 100.0 * dispatch_tree_self_us / dispatch_us
                                : 0.0,
                dispatch_us > 0
                    ? 100.0 * mean_of("server.dispatch", true) /
                          mean_of("server.dispatch", false)
                    : 0.0);
  report->Note(line);
}

/// The deterministic breakdown pass: every hum once, in order, through
/// ShardedEngine::Query / RangeQuery (QueryStats -> gemini.*),
/// HumToNormalForm, QbhSystem::QueryNormal on each shard system and on the
/// unsharded system. Checks that the merged shard answers and the unsharded
/// answer equal the engine's; returns the number of mismatches.
std::size_t RunBreakdown(Report* report, SpanRecorder* spans,
                         const ShardedEngine& engine,
                         const std::vector<QbhSystem>& shards,
                         const QbhSystem& unsharded,
                         const std::vector<Series>& hums, bool range,
                         double epsilon) {
  QueryStats engine_total;
  QueryStats unsharded_total;
  std::vector<double> normal_us, shard_us, fanout_us, skew;
  std::size_t mismatches = 0;
  const humdex::QueryOptions qopts;
  for (std::size_t h = 0; h < hums.size(); ++h) {
    const std::uint64_t id = (std::uint64_t{1} << 63) | h;
    ScopedSpan root(spans, "breakdown", id);
    std::vector<QbhMatch> answer;
    std::uint64_t t0 = NowNs();
    {
      ScopedSpan s(spans, "breakdown.sharded_query", id, root.id());
      QueryStats stats;
      answer = range ? engine.RangeQuery(hums[h], epsilon, qopts, &stats)
                     : engine.Query(hums[h], kTopK, qopts, &stats);
      engine_total += stats;
    }
    const double query_us = static_cast<double>(NowNs() - t0) * 1e-3;
    Series normal;
    t0 = NowNs();
    {
      ScopedSpan s(spans, "sharded.normal_form", id, root.id());
      normal = engine.HumToNormalForm(hums[h]);
    }
    normal_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    std::vector<std::vector<QbhMatch>> local(shards.size());
    std::vector<double> this_shards;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      t0 = NowNs();
      {
        ScopedSpan sp(spans, "qbh.query", id, root.id());
        local[s] = range ? shards[s].RangeQueryNormal(normal, epsilon)
                         : shards[s].QueryNormal(normal, kTopK);
      }
      this_shards.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    const double slowest =
        *std::max_element(this_shards.begin(), this_shards.end());
    shard_us.insert(shard_us.end(), this_shards.begin(), this_shards.end());
    skew.push_back(Mean(this_shards) > 0 ? slowest / Mean(this_shards) : 1.0);
    fanout_us.push_back(query_us - normal_us.back() - slowest);
    std::vector<QbhMatch> single;
    {
      ScopedSpan s(spans, "qbh.unsharded_query", id, root.id());
      QueryStats stats;
      single = range ? unsharded.RangeQueryNormal(normal, epsilon, qopts, &stats)
                     : unsharded.QueryNormal(normal, kTopK, qopts, &stats);
      unsharded_total += stats;
    }
    if (!SameAnswer(MergeShards(std::move(local), range), answer) ||
        !SameAnswer(single, answer)) {
      ++mismatches;
    }
  }
  report->Metric("sharded.normal_form_us", Mean(normal_us), "us");
  report->Metric("sharded.fanout_us", Mean(fanout_us), "us");
  report->Metric("sharded.shard_skew", Mean(skew), "ratio");
  report->Metric("qbh.query_us", Mean(shard_us), "us");
  AddQueryStatsMetrics(report, engine_total, hums.size());
  report->Metric("gemini.unsharded_exact_dtw_calls",
                 static_cast<double>(unsharded_total.exact_dtw_calls) /
                     static_cast<double>(std::max<std::size_t>(hums.size(), 1)),
                 "count");
  report->Check(mismatches == 0,
                "breakdown: engine == merged shard systems == unsharded over " +
                    std::to_string(hums.size()) + " hums");
  return mismatches;
}

}  // namespace

ShardedOptions ServingShardedOptions() {
  ShardedOptions opts;
  opts.num_shards = kShards;
  opts.replication = 1;
  opts.qbh = ServingQbhOptions();
  return opts;
}

Report RunServeWorkload(const RunOptions& run, bool range) {
  Report report;
  const std::size_t corpus_size = run.tiny ? 400 : kCorpus;
  const std::size_t hum_count = run.tiny ? 16 : kHums;
  const std::size_t oracle_stride = run.tiny ? 1 : kOracleStride;
  const double epsilon = kRangeEpsilon;
  const std::vector<Melody> corpus = MakeCorpus(run.seed, corpus_size);
  const std::vector<Series> hums = MakeHums(corpus, run.seed, hum_count);
  report.Note("corpus " + std::to_string(corpus_size) + " phrases, " +
              std::to_string(kShards) + " shards, R=1, " +
              std::to_string(hum_count) + " distinct hums, " +
              (range ? "range epsilon " + std::to_string(epsilon)
                     : "query top-" + std::to_string(kTopK)) +
              ", deadline 0");

  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<HumdexServer> server;
  MeasureSetup(
      &report, run.tiny ? 1 : 11,
      [&] {
        server.reset();
        engine.reset();
      },
      [&] {
        auto created = ShardedEngine::Create(corpus, ServingShardedOptions());
        HUMDEX_CHECK(created.ok());
        engine = std::move(created).value();
        server = std::make_unique<HumdexServer>(engine.get(), ServerOptions());
        HUMDEX_CHECK(server->Start().ok());
      });

  LoadSpec spec;
  spec.port = server->port();
  spec.connections = kConnections;
  spec.request.kind = range ? Request::Kind::kRange : Request::Kind::kQuery;
  spec.request.top_k = kTopK;
  spec.request.epsilon = epsilon;
  spec.request.deadline_ms = 0;
  spec.hums = &hums;
  spec.answer_stride = oracle_stride;
  spec.warmup_s = std::min(1.0, run.seconds * 0.1);

  std::vector<WireAnswer> answers;
  std::optional<QbhSystem> unsharded;
  if (!run.trace) {
    spec.seconds = run.seconds;
    LoadResult load = RunClosedLoop(spec);
    report.Metric("rss_mb", RssMb(), "MiB");
    server->Stop();
    report.Ops(load.attempted, load.failed);
    if (!load.first_error.empty()) report.Note("first error: " + load.first_error);
    report.Metric("qps",
                  static_cast<double>(load.latencies_ms.size()) / load.window_s,
                  "1/s");
    AddLatencyMetrics(&report, "query", load.latencies_ms, load.latency_hums);
    answers = std::move(load.answers);
  } else {
    // Both halves run on TracedServer, the first with no span recorder, so
    // their difference is the cost of tracing alone.
    server->Stop();
    spec.seconds = run.seconds / 2;
    TracedServer untraced(engine.get(), nullptr);
    HUMDEX_CHECK(untraced.Start().ok());
    spec.port = untraced.port();
    const LoadResult plain = RunClosedLoop(spec);
    untraced.Stop();
    SpanRecorder spans;
    TracedServer traced(engine.get(), &spans);
    HUMDEX_CHECK(traced.Start().ok());
    spec.port = traced.port();
    spec.spans = &spans;
    const std::uint64_t busy0 = PoolBusyNs();
    const std::uint64_t load0 = NowNs();
    LoadResult load = RunClosedLoop(spec);
    const double load_s = static_cast<double>(NowNs() - load0) * 1e-9;
    const std::uint64_t busy1 = PoolBusyNs();
    traced.Stop();
    report.Ops(plain.attempted + load.attempted, plain.failed + load.failed);
    const double p50_plain = Percentile(plain.latencies_ms, 50);
    const double p50_traced = Percentile(load.latencies_ms, 50);
    const double qps_plain =
        static_cast<double>(plain.latencies_ms.size()) / plain.window_s;
    const double qps_traced =
        static_cast<double>(load.latencies_ms.size()) / load.window_s;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "tracing overhead: p50 %.3f -> %.3f ms (%+.1f%%), "
                  "qps %.1f -> %.1f (%+.1f%%)",
                  p50_plain, p50_traced,
                  p50_plain > 0 ? 100.0 * (p50_traced / p50_plain - 1) : 0.0,
                  qps_plain, qps_traced,
                  qps_plain > 0 ? 100.0 * (qps_traced / qps_plain - 1) : 0.0);
    report.Note(line);
    AddWireLayerMetrics(&report, spans.Spans(), load);
    // Busy time covers the warm-up too, so it is divided by the whole load.
    AddPoolMetrics(&report, busy0, busy1, load_s, load.queue_depth_max);
    AddBufferPoolMetric(&report);
    answers = plain.answers;
    answers.insert(answers.end(), load.answers.begin(), load.answers.end());

    unsharded.emplace(BuildSystem(corpus));
    {
      const std::vector<QbhSystem> shards = BuildShardSystems(corpus);
      const std::vector<Series> sample =
          EveryNth(hums, run.tiny ? 1 : kBreakdownStride);
      report.Ops(sample.size(),
                 RunBreakdown(&report, &spans, *engine, shards, *unsharded,
                              sample, range, epsilon));
    }
    if (!range) {
      server.reset();
      engine.reset();
      RunDurableLayers(&report, &spans, corpus, hums, run);
    }
    WriteSpans(&report, spans, run);
  }

  // Oracle: sampled wire answers bit-identical to one unsharded system.
  if (!unsharded) unsharded.emplace(BuildSystem(corpus));
  std::size_t checked = 0;
  const std::size_t wrong = CountWrong(answers, *unsharded, hums,
                                       oracle_stride, range, epsilon, &checked);
  report.Ops(0, wrong);
  report.Check(wrong == 0 && checked > 0,
               std::to_string(checked) + " sampled wire answers (every " +
                   std::to_string(oracle_stride) +
                   "th hum) bit-identical to an unsharded QbhSystem (" +
                   std::to_string(wrong) + " wrong)");
  return report;
}

}  // namespace perfbench
