// Shared bench infrastructure: table printing, corpus builders, tightness
// helpers. Every bench binary prints the rows/series of one paper table or
// figure (see EXPERIMENTS.md for the paper-vs-measured record).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "music/melody.h"
#include "ts/time_series.h"
#include "util/random.h"

namespace humdex::bench {

/// Shared entry point for every bench binary:
///
///   int main(int argc, char** argv) {
///     return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
///   }
///
/// Understands `--metrics_out=<path>`: after `run` returns, the default
/// metrics registry (stage-latency histograms and thread-pool counters
/// accumulated during the run) is written to `path` as a JSON
/// snapshot, so every figure/ablation bench produces a machine-readable
/// perf artifact alongside its table. Unknown arguments are ignored.
int BenchMain(int argc, char** argv, const std::function<int()>& run);

/// Fixed-width console table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  /// Format helpers.
  static std::string Num(double v, int precision = 3);
  static std::string Int(std::size_t v);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a figure/table banner.
void PrintBanner(const std::string& title, const std::string& subtitle);

/// `count` random-walk series of length `len`, each mean-subtracted (the
/// experimental protocol of §5.2).
std::vector<Series> RandomWalkSet(std::size_t count, std::size_t len,
                                  std::uint64_t seed);

/// The paper-shaped melody corpus: `count` phrases of 15-30 notes.
std::vector<Melody> PhraseCorpus(std::size_t count, std::uint64_t seed);

/// Normal forms (length `len`) of a melody corpus at 8 samples/beat.
std::vector<Series> CorpusNormalForms(const std::vector<Melody>& corpus,
                                      std::size_t len);

/// Mean tightness T = LB / DTW over all ordered pairs of `series`, where the
/// lower bound is produced by `lb(x, y, k)` and DTW uses band radius k. Pairs
/// with zero DTW distance are skipped.
double MeanTightness(
    const std::vector<Series>& series, std::size_t k,
    const std::function<double(const Series&, const Series&, std::size_t)>& lb);

}  // namespace humdex::bench
