// Shared pieces of the benchmark: run options, seeded inputs, the report
// (human-readable lines plus the final JSON line), percentiles, resident
// memory, and the bit-identical answer check every workload's oracle uses.
#pragma once

#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "music/melody.h"
#include "qbh/qbh_system.h"
#include "spans.h"

namespace perfbench {

using humdex::Melody;
using humdex::QbhMatch;
using humdex::QbhOptions;
using humdex::QbhSystem;
using humdex::QueryStats;
using humdex::Series;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test scale: small corpora and short windows, same code paths.
  bool tiny = false;
  /// Where the traced run writes its spans (inside the checkout).
  std::string out_dir = ".bench_build";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics BENCHMARK.json lists: every untraced run reports each
/// end-to-end metric, every traced run each per-layer metric.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run prints: notes and every metric as human-readable lines, then
/// one JSON line holding the metrics the run's mode must report.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Count operations: `attempted` more, of which `failed` failed.
  void Ops(std::size_t attempted, std::size_t failed);
  /// An oracle or sanity check; a false check marks the run incorrect.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_ && failed_ == 0; }
  /// Prints the lines, then the JSON line with exactly `required` as its
  /// metrics. A required metric the run did not measure is 0 when
  /// `zero_missing` (a layer the workload does not exercise); otherwise it
  /// is an error and nothing is printed. Returns false on such an error.
  bool Print(const std::vector<MetricSpec>& required, bool zero_missing) const;

 private:
  std::vector<std::string> lines_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// Linear-interpolated percentile (p in [0,100]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);

/// The tail percentile a run of `n` samples reports: 99, or lower when fewer
/// than ten samples would lie beyond the 99th percentile.
double TailPercent(std::size_t n);

/// Resident set size of this process in MiB (/proc/self/statm).
double RssMb();

/// Total bytes of the regular files under `dir`.
std::uint64_t DirBytes(const std::string& dir);

/// Seeded phrase corpus (SongGenerator).
std::vector<Melody> MakeCorpus(std::uint64_t seed, std::size_t count);

/// `count` hums (Good hummer profile) of seeded random targets in `corpus`.
std::vector<Series> MakeHums(const std::vector<Melody>& corpus,
                             std::uint64_t seed, std::size_t count);

/// Bit-identical answers: same ids, names and distance bits, in order.
bool SameAnswer(const std::vector<QbhMatch>& a,
                const std::vector<QbhMatch>& b);

/// The per-shard system options every workload serves with.
QbhOptions ServingQbhOptions();

/// One unsharded QbhSystem built over `corpus` (the oracle reference).
QbhSystem BuildSystem(const std::vector<Melody>& corpus);

inline double Ms(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-6;
}

/// Adds <prefix>_p50_ms, the median of `latencies_ms`, and <prefix>_p99_ms,
/// the tail over the hum pool: each hum's median latency over its repeats in
/// the run (`hums[i]` is the hum of latencies_ms[i]), then the TailPercent
/// percentile of those medians. A hum's median drops the odd repeat a host
/// stall hit, so the tail follows the costly hums, not the host's load at
/// one moment. A note gives the sample counts and the plain tail.
void AddLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<double>& latencies_ms,
                       const std::vector<std::size_t>& hums);

/// The gemini.* and index.* per-layer metrics from the QueryStats of a
/// fixed pass of `queries` hums, as per-query means.
void AddQueryStatsMetrics(Report* report, const QueryStats& total,
                          std::size_t queries);

/// Median of `count` timed runs of `setup()`, reported as setup_s, with
/// every run's time in a note. `reset()` runs untimed before each setup and
/// discards the previous run's state; the last setup's state is what the
/// workload keeps.
template <typename Reset, typename Setup>
void MeasureSetup(Report* report, int count, Reset&& reset, Setup&& setup) {
  std::vector<double> runs;
  std::string all;
  for (int i = 0; i < count; ++i) {
    reset();
    // Return freed heap to the system, so every set-up starts from the same
    // resident set and rss_mb does not carry earlier set-ups.
    ::malloc_trim(0);
    const std::uint64_t t0 = NowNs();
    setup();
    runs.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    all += ' ';
    all += std::to_string(runs.back());
  }
  report->Metric("setup_s", Percentile(runs, 50.0), "s");
  report->Note("setup runs (s):" + all);
}

}  // namespace perfbench
