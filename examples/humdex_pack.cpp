// humdex_pack: convert a checkpoint between the text (v1/v2) and binary (v3)
// on-disk formats, or inspect one. Packing to v3 builds the index once and
// persists every derived structure, so later opens map the file and skip the
// rebuild entirely (DESIGN.md §14).
//
//   humdex_pack <input.db> <output.db>        pack to v3 (default)
//   humdex_pack --to=v2 <input.db> <output.db>   unpack back to text
//   humdex_pack --info <input.db>             print format, options, sizes
//
// Exit status: 0 on success, 1 on any error (bad input is a printed Status,
// never a crash — the loaders treat all inputs as untrusted).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "qbh/storage.h"
#include "qbh/storage_v3.h"
#include "util/env.h"

namespace {

const char* SchemeName(humdex::SchemeKind s) {
  switch (s) {
    case humdex::SchemeKind::kNewPaa: return "new_paa";
    case humdex::SchemeKind::kKeoghPaa: return "keogh_paa";
    case humdex::SchemeKind::kDft: return "dft";
    case humdex::SchemeKind::kDwt: return "dwt";
    case humdex::SchemeKind::kSvd: return "svd";
  }
  return "?";
}

int Usage() {
  std::fprintf(stderr,
               "usage: humdex_pack [--to=v3|v2] <input.db> <output.db>\n"
               "       humdex_pack --info <input.db>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool info = false;
  std::string to = "v3";
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--info") == 0) {
      info = true;
    } else if (std::strncmp(argv[i], "--to=", 5) == 0) {
      to = argv[i] + 5;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (to != "v2" && to != "v3") return Usage();
  if (info ? paths.size() != 1 : paths.size() != 2) return Usage();

  humdex::Env* env = humdex::Env::Default();
  std::string raw;
  humdex::Status read = env->ReadFile(paths[0], &raw);
  if (!read.ok()) {
    std::fprintf(stderr, "humdex_pack: %s\n", read.ToString().c_str());
    return 1;
  }
  const char* in_format = humdex::LooksLikeV3(raw)            ? "v3"
                          : raw.rfind("humdex-db v2\n", 0) == 0 ? "v2"
                          : raw.rfind("humdex-db v1\n", 0) == 0 ? "v1"
                                                                : "unknown";

  humdex::Result<humdex::QbhSystem> loaded = humdex::ParseQbhDatabase(raw);
  if (!loaded.ok()) {
    std::fprintf(stderr, "humdex_pack: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  humdex::QbhSystem& system = loaded.value();
  const humdex::QbhOptions& opt = system.options();

  if (info) {
    std::printf("format        %s\n", in_format);
    std::printf("bytes         %zu\n", raw.size());
    std::printf("melodies      %zu\n", system.size());
    std::printf("next_id       %" PRId64 "\n", system.next_id());
    std::printf("digest        %08x\n", system.Digest());
    std::printf("normal_len    %zu\n", opt.normal_len);
    std::printf("feature_dim   %zu\n", opt.feature_dim);
    std::printf("scheme        %s\n", SchemeName(opt.scheme));
    return 0;
  }

  // ParseQbhDatabase returns a built system, so the v3 serializer has every
  // derived section (normal forms, features/index) on hand.
  humdex::QbhOptions out_opt = opt;
  out_opt.format = to == "v3" ? humdex::CheckpointFormat::kV3Binary
                              : humdex::CheckpointFormat::kV2Text;
  humdex::QbhSystem repacked(out_opt);
  {
    auto slots = system.CorpusSnapshot();
    for (std::size_t id = 0; id < slots.size(); ++id) {
      if (!slots[id].has_value()) continue;
      humdex::Status st = repacked.AddMelodyWithId(
          std::move(*slots[id]), static_cast<std::int64_t>(id));
      if (!st.ok()) {
        std::fprintf(stderr, "humdex_pack: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    repacked.ReserveIds(system.next_id());
    repacked.Build();
  }
  std::string out_bytes = humdex::SerializeQbhDatabase(repacked);
  humdex::Status write = env->AtomicWriteFile(paths[1], out_bytes);
  if (!write.ok()) {
    std::fprintf(stderr, "humdex_pack: %s\n", write.ToString().c_str());
    return 1;
  }
  std::printf("%s (%s, %zu bytes) -> %s (%s, %zu bytes)\n", paths[0].c_str(),
              in_format, raw.size(), paths[1].c_str(), to.c_str(),
              out_bytes.size());
  if (system.Digest() != repacked.Digest()) {
    std::fprintf(stderr, "humdex_pack: digest mismatch after repack\n");
    return 1;
  }
  return 0;
}
