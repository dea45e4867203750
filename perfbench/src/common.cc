#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "music/hummer.h"
#include "music/song_generator.h"
#include "util/random.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},       {"qps", "1/s"},    {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"}, {"rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"server.dispatch_us", "us"},
      {"server.self_us", "us"},
      {"server.wire_us", "us"},
      {"protocol.codec_us", "us"},
      {"protocol.request_bytes", "bytes"},
      {"protocol.response_bytes", "bytes"},
      {"sharded.query_us", "us"},
      {"sharded.normal_form_us", "us"},
      {"sharded.fanout_us", "us"},
      {"sharded.shard_skew", "ratio"},
      {"sharded.open_ms", "ms"},
      {"sharded.first_query_ms", "ms"},
      {"pool.busy_share", "ratio"},
      {"pool.queue_depth_max", "count"},
      {"qbh.query_us", "us"},
      {"qbh.insert_us", "us"},
      {"qbh.checkpoint_ms", "ms"},
      {"wal.bytes_per_insert", "bytes"},
      {"storage.replica_open_ms", "ms"},
      {"storage.io_bytes_read", "bytes"},
      {"storage.file_bytes", "bytes"},
      {"storage.bytes_per_melody", "bytes"},
      {"gemini.index_candidates", "count"},
      {"gemini.kim_pruned", "count"},
      {"gemini.triangle_pruned", "count"},
      {"gemini.refine_pruned", "count"},
      {"gemini.keogh_pruned", "count"},
      {"gemini.improved_pruned", "count"},
      {"gemini.exact_dtw_calls", "count"},
      {"gemini.results", "count"},
      {"gemini.dtw_useful_ratio", "ratio"},
      {"gemini.index_ns", "ns"},
      {"gemini.lb_ns", "ns"},
      {"gemini.triangle_ns", "ns"},
      {"gemini.refine_ns", "ns"},
      {"gemini.improved_ns", "ns"},
      {"gemini.dtw_ns", "ns"},
      {"gemini.unsharded_exact_dtw_calls", "count"},
      {"index.page_accesses", "count"},
      {"buffer_pool.hit_ratio", "ratio"},
  };
  return specs;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  char line[256];
  std::snprintf(line, sizeof(line), "metric %-34s %16.6f %s", name.c_str(),
                value, unit.c_str());
  lines_.push_back(line);
}

void Report::Note(const std::string& line) { lines_.push_back(line); }

void Report::Ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  lines_.push_back(std::string(ok ? "check PASS " : "check FAIL ") + what);
  if (!ok) correct_ = false;
}

bool Report::Print(const std::vector<MetricSpec>& required,
                   bool zero_missing) const {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  bool first = true;
  std::vector<std::string> missing;
  for (const MetricSpec& spec : required) {
    auto it = metrics_.find(spec.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second.first;
    } else {
      missing.push_back(spec.name);
    }
    if (!std::isfinite(value)) value = 0.0;
    json << (first ? "" : ", ") << "\"" << spec.name
         << "\": {\"value\": " << value << ", \"unit\": \"" << spec.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  if (!missing.empty()) {
    std::string names;
    for (const std::string& m : missing) names += " " + m;
    if (!zero_missing) {
      std::fprintf(stderr, "perfbench: metrics not measured:%s\n",
                   names.c_str());
      return false;
    }
    std::printf("not exercised by this workload (reported as 0):%s\n",
                names.c_str());
  }
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return true;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double TailPercent(std::size_t n) {
  if (n == 0) return 99.0;
  const double beyond_ten = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::clamp(beyond_ten, 50.0, 99.0);
}

double RssMb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::vector<Melody> MakeCorpus(std::uint64_t seed, std::size_t count) {
  humdex::SongGenerator gen(seed);
  return gen.GeneratePhrases(count);
}

std::vector<Series> MakeHums(const std::vector<Melody>& corpus,
                             std::uint64_t seed, std::size_t count) {
  humdex::Rng pick(seed ^ 0x5bd1e995ULL);
  humdex::Hummer hummer(humdex::HummerProfile::Good(), seed + 17);
  std::vector<Series> hums;
  hums.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t target =
        pick.NextBounded(static_cast<std::uint32_t>(corpus.size()));
    hums.push_back(hummer.Hum(corpus[target]));
  }
  return hums;
}

bool SameAnswer(const std::vector<QbhMatch>& a,
                const std::vector<QbhMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].name != b[i].name ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

QbhOptions ServingQbhOptions() {
  QbhOptions opts;
  opts.format = humdex::CheckpointFormat::kV3Binary;
  return opts;
}

QbhSystem BuildSystem(const std::vector<Melody>& corpus) {
  QbhSystem system(ServingQbhOptions());
  for (const Melody& m : corpus) system.AddMelody(m);
  system.Build();
  return system;
}

void AddLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<double>& latencies_ms,
                       const std::vector<std::size_t>& hums) {
  std::map<std::size_t, std::vector<double>> by_hum;
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    by_hum[hums[i]].push_back(latencies_ms[i]);
  }
  std::vector<double> hum_medians;
  for (const auto& [hum, ms] : by_hum) {
    hum_medians.push_back(Percentile(ms, 50.0));
  }
  const double tail = TailPercent(hum_medians.size());
  const double plain_tail = TailPercent(latencies_ms.size());
  report->Metric(prefix + "_p50_ms", Percentile(latencies_ms, 50.0), "ms");
  report->Metric(prefix + "_p99_ms", Percentile(hum_medians, tail), "ms");
  char line[240];
  std::snprintf(line, sizeof(line),
                "samples %s: %zu over %zu hums (tail: p%.1f of per-hum "
                "medians; p%.1f of all samples %.3f ms)",
                prefix.c_str(), latencies_ms.size(), hum_medians.size(), tail,
                plain_tail, Percentile(latencies_ms, plain_tail));
  report->Note(line);
}

void AddQueryStatsMetrics(Report* report, const QueryStats& total,
                          std::size_t queries) {
  const double n = static_cast<double>(std::max<std::size_t>(queries, 1));
  auto mean = [n](double v) { return v / n; };
  report->Metric("gemini.index_candidates", mean(total.index_candidates),
                 "count");
  report->Metric("gemini.kim_pruned", mean(total.kim_pruned), "count");
  report->Metric("gemini.triangle_pruned", mean(total.triangle_pruned),
                 "count");
  report->Metric("gemini.refine_pruned", mean(total.refine_pruned), "count");
  report->Metric("gemini.keogh_pruned", mean(total.keogh_pruned), "count");
  report->Metric("gemini.improved_pruned", mean(total.improved_pruned),
                 "count");
  report->Metric("gemini.exact_dtw_calls", mean(total.exact_dtw_calls),
                 "count");
  report->Metric("gemini.results", mean(total.results), "count");
  report->Metric("gemini.dtw_useful_ratio",
                 total.exact_dtw_calls == 0
                     ? 0.0
                     : static_cast<double>(total.results) /
                           static_cast<double>(total.exact_dtw_calls),
                 "ratio");
  // Stage times are the program's own QueryStats clocks, not spans.
  report->Metric("gemini.index_ns", mean(total.index_ns), "ns");
  report->Metric("gemini.lb_ns", mean(total.lb_ns), "ns");
  report->Metric("gemini.triangle_ns", mean(total.triangle_ns), "ns");
  report->Metric("gemini.refine_ns", mean(total.refine_ns), "ns");
  report->Metric("gemini.improved_ns", mean(total.improved_ns), "ns");
  report->Metric("gemini.dtw_ns", mean(total.dtw_ns), "ns");
  report->Metric("index.page_accesses", mean(total.page_accesses), "count");
  report->Note("gemini.*_ns are program-reported (QueryStats), summed over "
               "shards, per query over " + std::to_string(queries) + " hums");
}

}  // namespace perfbench
