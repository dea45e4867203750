// Metrics substrate for the query pipeline: named counters, gauges, and
// log-bucketed latency histograms collected in a thread-safe registry.
//
// The paper's §5.3 cost measures (candidate ratios, page accesses) live in
// QueryStats; this layer adds the wall-clock side — per-stage latency
// distributions, serving and thread-pool counters — cheap enough to
// leave on in production builds: every hot-path update is a relaxed atomic
// add, histograms shard their bucket arrays by thread so concurrent Record()
// calls do not contend, and name lookup happens once per call site (cache the
// returned reference in a function-local static).
//
//   obs::Counter& c = obs::MetricsRegistry::Default().GetCounter("my.count");
//   c.Increment();
//   obs::Histogram& h = obs::MetricsRegistry::Default().GetHistogram("x_ns");
//   h.Record(latency_ns);
//   h.Snapshot().Percentile(99.0);
//
// Naming scheme (see DESIGN.md §7): dot-separated lowercase path,
// `<subsystem>.<object>.<metric>`, with the unit as a suffix (`_ns`,
// `_bytes`) on every timed or sized metric.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace humdex::obs {

/// Monotonically increasing event count. Relaxed atomics: totals are exact,
/// but a concurrent reader may observe counts in any interleaving.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Zero the counter. Test/bench hook; a live system never resets.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, ...).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time view of a histogram: dense bucket counts plus exact
/// count/sum/max. Percentile() interpolates within the covering bucket, so
/// its relative error is bounded by the bucket width (1/8 per octave).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  ///< indexed by Histogram::BucketFor

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Estimated value at percentile p in [0,100]; 0 when empty.
  double Percentile(double p) const;
};

/// Log-bucketed histogram of non-negative integer samples (latencies in ns).
/// HdrHistogram-style bucketing: values 0..15 are exact, above that each
/// power-of-two octave splits into 8 linear sub-buckets, so the relative
/// quantization error is at most 12.5% across the full 64-bit range. The
/// bucket array is sharded by thread to keep concurrent Record() calls off
/// each other's cache lines.
class Histogram {
 public:
  static constexpr int kSubBits = 3;                         // 8 per octave
  static constexpr std::size_t kSubCount = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBucketCount =
      ((63 - kSubBits) << kSubBits) + 2 * kSubCount;

  void Record(std::uint64_t value);
  HistogramSnapshot Snapshot() const;

  /// Convenience accessors (each walks the shards; prefer one Snapshot()).
  std::uint64_t count() const { return Snapshot().count; }
  std::uint64_t sum() const { return Snapshot().sum; }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Percentile(double p) const { return Snapshot().Percentile(p); }

  /// Zero all buckets and the max. Test/bench hook (e.g. per-run deltas);
  /// concurrent Record() during Reset() may land on either side.
  void Reset();

  /// Index of the bucket covering `value`.
  static std::size_t BucketFor(std::uint64_t value);
  /// Inclusive lower / exclusive upper value bound of bucket `index`. The
  /// top bucket's upper bound saturates at UINT64_MAX (inclusive there).
  static std::uint64_t BucketLowerBound(std::size_t index);
  static std::uint64_t BucketUpperBound(std::size_t index);

 private:
  static constexpr std::size_t kShards = 8;

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
    std::atomic<std::uint64_t> sum{0};
  };

  Shard& ShardForThisThread();

  std::array<Shard, kShards> shards_{};
  std::atomic<std::uint64_t> max_{0};
};

/// Thread-safe name -> metric registry. Metrics are created on first Get and
/// live as long as the registry (references stay valid forever), so hot call
/// sites should cache:
///
///   static obs::Histogram& h =
///       obs::MetricsRegistry::Default().GetHistogram("query.range.total_ns");
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem reports into.
  static MetricsRegistry& Default();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Sorted name -> value views for the exporters (values are snapshots).
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, std::int64_t>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramSnapshots()
      const;

  /// Zero every metric (entries stay registered and references stay valid).
  /// Test/bench hook.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  // std::map keeps export order deterministic; unique_ptr keeps references
  // stable across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace humdex::obs
