// Ablation (beyond the paper's figures): what the v3 binary checkpoint
// format buys at serving scale. A corpus is built once, persisted as both
// the v2 text checkpoint (loading re-derives every structure) and the v3
// mapped image (loading adopts the prebuilt sections zero-copy), and the two
// load paths race. Exit status is the gate — non-zero unless:
//
//   1. the v3 mapped open is >= 10x faster than the text-format rebuild,
//   2. the on-disk pitch payload (v3 MELODIES section, delta+bitpacked) is
//      >= 2x smaller than the v2 note lines it replaces, and
//   3. range and kNN answers served from the mapped corpus are BIT-IDENTICAL
//      to a freshly built engine's (the exactness oracle).
//
// It also prints, ungated, the resident bytes per melody each open adds, the
// v3 image's bytes per melody, the worker time the v3 open spends deriving
// the envelope rows from the normal forms, and the process's peak RSS.
//
//   ablation_mmap [--n=N] [--metrics_out=PATH]
//
// Default N is 100000 melodies, the "million-note corpus" operating point of
// DESIGN.md §14 (about 2M notes).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common.h"
#include "music/hummer.h"
#include "obs/metrics.h"
#include "qbh/storage.h"
#include "qbh/storage_v3.h"
#include "util/env.h"

namespace humdex::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::size_t FlagN(int argc, char** argv, std::size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      return static_cast<std::size_t>(std::strtoull(argv[i] + 4, nullptr, 10));
    }
  }
  return fallback;
}

// The v3 MELODIES section length, read off the documented section table
// (storage_v3.h): offset 16 holds the entry count, entries of 32 bytes start
// at 64 as {u32 type, u32 flags, u64 offset, u64 length, ...}.
std::uint64_t MelodiesSectionBytes(const std::string& image) {
  std::uint32_t count = 0;
  std::memcpy(&count, image.data() + 16, sizeof count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* e = image.data() + 64 + 32 * static_cast<std::size_t>(i);
    std::uint32_t type = 0;
    std::memcpy(&type, e, sizeof type);
    if (type != 3) continue;  // kSecMelodies
    std::uint64_t length = 0;
    std::memcpy(&length, e + 16, sizeof length);
    return length;
  }
  return 0;
}

// The bytes v2 spends persisting the melodies: every melody block from its
// "melody <name>" line through its "end" line. This is the exact payload the
// v3 MELODIES section replaces (both carry name, notes, and framing).
std::uint64_t V2MelodyBlockBytes(const std::string& text) {
  std::uint64_t bytes = 0;
  std::size_t start = 0;
  bool in_melody = false;
  while (start < text.size()) {
    std::size_t eol = text.find('\n', start);
    if (eol == std::string::npos) break;
    std::string_view line(text.data() + start, eol - start);
    if (line.rfind("melody ", 0) == 0) in_melody = true;
    if (in_melody) bytes += line.size() + 1;
    if (line == "end") in_melody = false;
    start = eol + 1;
  }
  return bytes;
}

// Resident set size of this process in bytes (VmRSS in /proc/self/status),
// or 0 where that file does not exist.
std::int64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::int64_t>(kb) * 1024;
}

// Peak resident set size of this process so far, in bytes (ru_maxrss).
std::int64_t PeakResidentBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

int Run(int argc, char** argv) {
  const std::size_t n = FlagN(argc, argv, 100000);
  const std::string v2_path = "/tmp/humdex_ablation_mmap.v2.db";
  const std::string v3_path = "/tmp/humdex_ablation_mmap.v3.db";
  Env* env = Env::Default();

  PrintBanner("Ablation: mapped v3 checkpoint vs text rebuild",
              std::to_string(n) + " phrases, New_PAA 128 -> 8, R*-tree");

  std::vector<Melody> corpus = PhraseCorpus(n, /*seed=*/727272);
  std::size_t total_notes = 0;
  for (const Melody& m : corpus) total_notes += m.notes.size();

  QbhOptions opt;
  opt.format = CheckpointFormat::kV3Binary;
  auto t_build = Clock::now();
  QbhSystem fresh(opt);
  for (Melody& m : corpus) fresh.AddMelody(std::move(m));
  fresh.Build();
  const double build_ms = MsSince(t_build);

  const std::string v3_image = SerializeQbhDatabase(fresh);
  const std::string v2_text =
      SerializeQbhCorpus(fresh.options(), fresh.CorpusSnapshot());
  if (!LooksLikeV3(v3_image) || v2_text.rfind("humdex-db v2\n", 0) != 0) {
    std::fprintf(stderr, "serializer produced unexpected formats\n");
    return 1;
  }
  if (!env->AtomicWriteFile(v2_path, v2_text).ok() ||
      !env->AtomicWriteFile(v3_path, v3_image).ok()) {
    std::fprintf(stderr, "cannot write bench files\n");
    return 1;
  }

  // Race the load paths; best of three keeps page-cache noise out. The
  // resident bytes each open adds (VmRSS after minus before, mapped file
  // pages included) come from the first round: later rounds reuse memory
  // the allocator kept from earlier ones.
  double v2_ms = 1e18, v3_ms = 1e18, envelopes_ms = 0.0;
  std::int64_t v2_rss = 0, v3_rss = 0;
  // Envelope derivation inside the v3 open, summed over the reader's
  // workers, read off the storage layer's histogram; reported for the
  // fastest open.
  const obs::Histogram& h_envelopes =
      obs::MetricsRegistry::Default().GetHistogram("storage.v3_envelopes_ns");
  Result<QbhSystem> mapped = Status::Internal("not loaded");
  for (int round = 0; round < 3; ++round) {
    const std::int64_t rss_before_v2 = ResidentBytes();
    auto t2 = Clock::now();
    Result<QbhSystem> from_text = LoadQbhDatabase(v2_path, env);
    v2_ms = std::min(v2_ms, MsSince(t2));
    if (round == 0) v2_rss = ResidentBytes() - rss_before_v2;
    if (!from_text.ok()) {
      std::fprintf(stderr, "v2 load: %s\n",
                   from_text.status().ToString().c_str());
      return 1;
    }
    // Drop the previous round's engine before the timer: tearing down a
    // 100k-melody system is not part of the open path being measured.
    mapped = Status::Internal("not loaded");
    const std::int64_t rss_before_v3 = ResidentBytes();
    const std::uint64_t envelopes_before = h_envelopes.Snapshot().sum;
    auto t3 = Clock::now();
    mapped = LoadQbhDatabase(v3_path, env);
    const double open_ms = MsSince(t3);
    if (open_ms < v3_ms) {
      v3_ms = open_ms;
      envelopes_ms =
          static_cast<double>(h_envelopes.Snapshot().sum - envelopes_before) /
          1e6;
    }
    if (round == 0) v3_rss = ResidentBytes() - rss_before_v3;
    if (!mapped.ok()) {
      std::fprintf(stderr, "v3 load: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
  }

  const std::uint64_t v3_pitch = MelodiesSectionBytes(v3_image);
  const std::uint64_t v2_pitch = V2MelodyBlockBytes(v2_text);
  const double speedup = v2_ms / v3_ms;
  const double shrink =
      v3_pitch == 0 ? 0.0
                    : static_cast<double>(v2_pitch) / static_cast<double>(v3_pitch);

  const auto per_melody = [n](std::int64_t bytes) {
    return Table::Num(static_cast<double>(bytes) / static_cast<double>(n), 0);
  };
  Table t({"path", "bytes", "melody_payload", "open_ms", "vs_text",
           "rss_B_per_melody"});
  t.AddRow({"v2 text (rebuild)", Table::Int(v2_text.size()),
            Table::Int(v2_pitch), Table::Num(v2_ms), "1x", per_melody(v2_rss)});
  t.AddRow({"v3 mapped", Table::Int(v3_image.size()), Table::Int(v3_pitch),
            Table::Num(v3_ms), Table::Num(speedup, 1) + "x",
            per_melody(v3_rss)});
  t.Print();
  std::printf("\nbuild: %.0f ms for %zu melodies (%zu notes); digest %08x\n",
              build_ms, fresh.size(), total_notes, fresh.Digest());
  std::printf(
      "v3: %.0f bytes per melody on disk; envelope derivation %.1f ms of "
      "worker time (summed over threads) in the %.1f ms open; peak RSS "
      "%.1f MiB\n",
      static_cast<double>(v3_image.size()) / static_cast<double>(n),
      envelopes_ms, v3_ms,
      static_cast<double>(PeakResidentBytes()) / (1024.0 * 1024.0));

  // --- Oracle: answers over the mapped corpus are bit-identical ------------
  bool oracle_ok = mapped.value().Digest() == fresh.Digest();
  Hummer hummer(HummerProfile::Good(), 838383);
  std::size_t compared = 0;
  for (std::size_t q = 0; q < 8 && oracle_ok; ++q) {
    std::optional<Melody> target =
        fresh.melody(static_cast<std::int64_t>(q * (n / 8)));
    Series hum = hummer.Hum(*target);
    auto a = fresh.Query(hum, 10);
    auto b = mapped.value().Query(hum, 10);
    oracle_ok = a.size() == b.size();
    for (std::size_t i = 0; oracle_ok && i < a.size(); ++i) {
      oracle_ok = a[i].id == b[i].id &&
                  std::memcmp(&a[i].distance, &b[i].distance,
                              sizeof(double)) == 0;
    }
    if (oracle_ok && !a.empty()) {
      const double eps = a.back().distance * 1.2 + 1.0;
      auto ra = fresh.RangeQuery(hum, eps);
      auto rb = mapped.value().RangeQuery(hum, eps);
      oracle_ok = ra.size() == rb.size();
      for (std::size_t i = 0; oracle_ok && i < ra.size(); ++i) {
        oracle_ok = ra[i].id == rb[i].id &&
                    std::memcmp(&ra[i].distance, &rb[i].distance,
                                sizeof(double)) == 0;
      }
      compared += ra.size();
    }
    compared += a.size();
  }

  const bool gate_speed = speedup >= 10.0;
  const bool gate_size = shrink >= 2.0;
  std::printf(
      "\nGates: open speedup %.1fx (>=10x %s), melody payload %.1fx smaller "
      "(>=2x %s), oracle over %zu answers %s\n",
      speedup, gate_speed ? "PASS" : "FAIL", shrink,
      gate_size ? "PASS" : "FAIL", compared,
      oracle_ok ? "bit-identical PASS" : "DIVERGED FAIL");

  Status s1 = env->Delete(v2_path);
  Status s2 = env->Delete(v3_path);
  (void)s1;
  (void)s2;
  return gate_speed && gate_size && oracle_ok ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(
      argc, argv, [argc, argv] { return humdex::bench::Run(argc, argv); });
}
