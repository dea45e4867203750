// humdex repository benchmark: one process that builds a seeded corpus,
// serves it through the real serving stack, drives it, checks every answer
// against an oracle, and prints each metric by name with its unit. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics with --trace 0, the per-layer metrics
// of the traced run with --trace 1.
//
//   perfbench --workload knn_serve|range_tight --seed N --seconds S
//             --trace 0|1 [--tiny] [--out-dir DIR]
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>

#include "common.h"
#include "ts/kernels.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload knn_serve|range_tight --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n");
  return 2;
}

/// Host-wide CPU time from /proc/stat: {total, steal} in clock ticks. Steal
/// is time the hypervisor gave this machine's CPUs to someone else; the run
/// reports its share so that a slow run on a shared host can be told apart.
std::pair<double, double> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {total, v[7]};
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions run;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      run.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      run.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      run.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      run.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      run.out_dir = argv[++i];
    } else if (arg == "--tiny") {
      run.tiny = true;
    } else {
      return Usage();
    }
  }
  if (run.seconds <= 0.0) return Usage();
  if (run.workload != "knn_serve" && run.workload != "range_tight") {
    return Usage();
  }

  // One load thread per closed-loop connection.
  const std::size_t load_threads = perfbench::kConnections;
  const std::size_t connections = perfbench::kConnections;
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("host nproc=%ld simd=%s build=%s load_threads=%zu "
              "connections=%zu workload=%s seed=%llu seconds=%g trace=%d%s\n",
              nproc, humdex::kernels::ActiveKernels().name,
              PERFBENCH_BUILD_TYPE, load_threads, connections,
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.trace ? 1 : 0, run.tiny ? " tiny" : "");
  if (static_cast<long>(load_threads + connections) > nproc) {
    std::fprintf(stderr,
                 "perfbench: %zu load threads + %zu connections exceed "
                 "nproc=%ld; refusing to run\n",
                 load_threads, connections, nproc);
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(run.out_dir, ec);

  try {
    const std::pair<double, double> ticks0 = CpuTicks();
    perfbench::Report report =
        perfbench::RunServeWorkload(run, run.workload == "range_tight");
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    report.Note("peak rss of the whole run: " +
                std::to_string(usage.ru_maxrss / 1024) + " MiB");
    const std::pair<double, double> ticks1 = CpuTicks();
    const double total = ticks1.first - ticks0.first;
    report.Note("host cpu steal over the run: " +
                std::to_string(total > 0 ? 100.0 * (ticks1.second -
                                                    ticks0.second) / total
                                         : 0.0) +
                "%");
    const bool printed =
        run.trace ? report.Print(perfbench::PerLayerMetrics(), true)
                  : report.Print(perfbench::EndToEndMetrics(), false);
    return printed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
