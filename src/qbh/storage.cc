#include "qbh/storage.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "music/melody_io.h"
#include "obs/metrics.h"
#include "qbh/storage_detail.h"
#include "qbh/storage_v3.h"
#include "util/crc32c.h"
#include "util/parse_number.h"
#include "util/retry.h"

namespace humdex {

// Definitions for the internals shared with the v3 binary format
// (storage_detail.h). The metric references are immortal registry entries.
namespace storage_detail {

obs::Counter& CorruptionCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("storage.corruption_detected");
  return c;
}

obs::Counter& SalvagedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("storage.salvaged_records");
  return c;
}

Status Corruption(std::string msg) {
  CorruptionCounter().Increment();
  return Status::Corruption(std::move(msg));
}

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNewPaa:
      return "new_paa";
    case SchemeKind::kKeoghPaa:
      return "keogh_paa";
    case SchemeKind::kDft:
      return "dft";
    case SchemeKind::kDwt:
      return "dwt";
    case SchemeKind::kSvd:
      return "svd";
  }
  return "new_paa";
}

bool SchemeFromName(const std::string& name, SchemeKind* out) {
  if (name == "new_paa") {
    *out = SchemeKind::kNewPaa;
  } else if (name == "keogh_paa") {
    *out = SchemeKind::kKeoghPaa;
  } else if (name == "dft") {
    *out = SchemeKind::kDft;
  } else if (name == "dwt") {
    *out = SchemeKind::kDwt;
  } else if (name == "svd") {
    *out = SchemeKind::kSvd;
  } else {
    return false;
  }
  return true;
}

const char* IndexName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kRStarTree:
      return "rstar";
    case IndexKind::kGridFile:
      return "grid";
    case IndexKind::kLinearScan:
      return "linear";
  }
  return "rstar";
}

bool IndexFromName(const std::string& name, IndexKind* out) {
  if (name == "rstar") {
    *out = IndexKind::kRStarTree;
  } else if (name == "grid") {
    *out = IndexKind::kGridFile;
  } else if (name == "linear") {
    *out = IndexKind::kLinearScan;
  } else {
    return false;
  }
  return true;
}

Status ApplyOption(const std::string& key, const std::string& value,
                   QbhOptions* opt) {
  if (key == "normal_len") {
    HUMDEX_RETURN_IF_ERROR(ParseSize(value, &opt->normal_len));
    if (opt->normal_len < 2 || opt->normal_len > kMaxNormalLen) {
      return Status::InvalidArgument("normal_len out of range: " + value);
    }
  } else if (key == "warping_width") {
    HUMDEX_RETURN_IF_ERROR(ParseDouble(value, &opt->warping_width));
    if (opt->warping_width < 0.0 || opt->warping_width > 1.0) {
      return Status::InvalidArgument("warping_width out of range: " + value);
    }
  } else if (key == "feature_dim") {
    HUMDEX_RETURN_IF_ERROR(ParseSize(value, &opt->feature_dim));
    if (opt->feature_dim < 1 || opt->feature_dim > kMaxNormalLen) {
      return Status::InvalidArgument("feature_dim out of range: " + value);
    }
  } else if (key == "scheme") {
    if (!SchemeFromName(value, &opt->scheme)) {
      return Status::InvalidArgument("unknown scheme '" + value + "'");
    }
  } else if (key == "index") {
    if (!IndexFromName(value, &opt->index)) {
      return Status::InvalidArgument("unknown index '" + value + "'");
    }
  } else if (key == "samples_per_beat") {
    HUMDEX_RETURN_IF_ERROR(ParseDouble(value, &opt->samples_per_beat));
    if (opt->samples_per_beat <= 0.0 ||
        opt->samples_per_beat > kMaxSamplesPerBeat) {
      return Status::InvalidArgument("samples_per_beat out of range: " + value);
    }
  } else {
    return Status::InvalidArgument("unknown option '" + key + "'");
  }
  return Status::OK();
}

Status ValidateOptions(const QbhOptions& opt) {
  if (opt.normal_len < opt.feature_dim) {
    return Status::InvalidArgument("normal_len < feature_dim");
  }
  switch (opt.scheme) {
    case SchemeKind::kNewPaa:
    case SchemeKind::kKeoghPaa:
      if (opt.normal_len % opt.feature_dim != 0) {
        return Status::InvalidArgument(
            "PAA schemes need normal_len divisible by feature_dim");
      }
      break;
    case SchemeKind::kDwt:
      if ((opt.normal_len & (opt.normal_len - 1)) != 0) {
        return Status::InvalidArgument("DWT needs a power-of-two normal_len");
      }
      break;
    case SchemeKind::kDft:
    case SchemeKind::kSvd:
      break;
  }
  return Status::OK();
}

std::string SerializeOptionLines(const QbhOptions& opt) {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "option normal_len %zu\n", opt.normal_len);
  out += buf;
  std::snprintf(buf, sizeof(buf), "option warping_width %.17g\n",
                opt.warping_width);
  out += buf;
  std::snprintf(buf, sizeof(buf), "option feature_dim %zu\n", opt.feature_dim);
  out += buf;
  std::snprintf(buf, sizeof(buf), "option scheme %s\n", SchemeName(opt.scheme));
  out += buf;
  std::snprintf(buf, sizeof(buf), "option index %s\n", IndexName(opt.index));
  out += buf;
  std::snprintf(buf, sizeof(buf), "option samples_per_beat %.17g\n",
                opt.samples_per_beat);
  out += buf;
  return out;
}

}  // namespace storage_detail

namespace {

using storage_detail::ApplyOption;
using storage_detail::Corruption;
using storage_detail::CorruptionCounter;
using storage_detail::IndexName;
using storage_detail::kMaxNextId;
using storage_detail::kMaxNormalLen;
using storage_detail::SalvagedCounter;
using storage_detail::SchemeName;
using storage_detail::ValidateOptions;

/// Id-space metadata for a gapped (tombstoned) corpus; absent in dense files.
struct DbMeta {
  std::optional<std::size_t> next_id;
  std::optional<std::vector<std::size_t>> ids;
};

/// A header line of the legacy LB_Triangle reference block (`option pivots
/// <n>` or `pivot <v0> ...`), which both loaders skip unread.
bool IsLegacyPivotLine(const std::string& line) {
  return line.rfind("pivot ", 0) == 0 || line.rfind("option pivots ", 0) == 0;
}

Status ParseIdList(const std::string& value, std::vector<std::size_t>* out) {
  out->clear();
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    std::size_t id = 0;
    HUMDEX_RETURN_IF_ERROR(
        ParseSize(value.substr(start, comma - start), &id));
    if (id >= kMaxNextId) {
      return Status::InvalidArgument("melody id out of range");
    }
    out->push_back(id);
    start = comma + 1;
  }
  return Status::OK();
}

/// Split off a v2 trailer: on success `*body` is everything before the
/// trailer line and `*stored_crc` its checksum. Structural trailer damage is
/// kCorruption.
Status SplitV2Trailer(const std::string& text, std::string_view* body,
                      std::uint32_t* stored_crc) {
  std::size_t tpos = text.rfind("\ncrc32c ");
  if (tpos == std::string::npos) {
    return Status::Corruption("missing crc32c trailer");
  }
  std::size_t line_start = tpos + 1;
  std::string trailer = text.substr(line_start);
  if (!trailer.empty() && trailer.back() == '\n') trailer.pop_back();
  if (trailer.find('\n') != std::string::npos) {
    return Status::Corruption("data after crc32c trailer");
  }
  Status st = ParseU32Hex8(trailer.substr(7), stored_crc);
  if (!st.ok()) return Status::Corruption("malformed crc32c trailer");
  *body = std::string_view(text).substr(0, line_start);
  return Status::OK();
}

/// Parse the option header and melody body shared by v1 and v2 (the caller
/// has already stripped the trailer). `body` excludes the version line.
Status ParseBody(std::istream& in, QbhOptions* opt, DbMeta* meta,
                 std::string* melodies) {
  std::string line;
  std::ostringstream rest;
  bool in_header = true;
  while (std::getline(in, line)) {
    if (in_header && IsLegacyPivotLine(line)) continue;
    if (in_header && line.rfind("option ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string key, value;
      if (!(fields >> key >> value)) {
        return Status::InvalidArgument("malformed option line: '" + line + "'");
      }
      if (key == "next_id") {
        std::size_t next_id = 0;
        HUMDEX_RETURN_IF_ERROR(ParseSize(value, &next_id));
        if (next_id == 0 || next_id > kMaxNextId) {
          return Status::InvalidArgument("next_id out of range: " + value);
        }
        meta->next_id = next_id;
        continue;
      }
      if (key == "ids") {
        std::vector<std::size_t> ids;
        HUMDEX_RETURN_IF_ERROR(ParseIdList(value, &ids));
        meta->ids = std::move(ids);
        continue;
      }
      HUMDEX_RETURN_IF_ERROR(ApplyOption(key, value, opt));
    } else {
      in_header = false;
      rest << line << '\n';
    }
  }
  HUMDEX_RETURN_IF_ERROR(ValidateOptions(*opt));
  *melodies = rest.str();
  return Status::OK();
}

Result<QbhSystem> BuildSystem(QbhOptions opt, std::vector<Melody> corpus,
                              DbMeta meta = DbMeta()) {
  if (opt.scheme == SchemeKind::kSvd && corpus.size() < 2) {
    return Status::InvalidArgument("SVD scheme needs at least 2 melodies");
  }
  QbhSystem system(opt);
  if (meta.ids.has_value()) {
    if (meta.ids->size() != corpus.size()) {
      return Corruption("id list length does not match melody count");
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::size_t id = (*meta.ids)[i];
      Status st = system.AddMelodyWithId(std::move(corpus[i]),
                                         static_cast<std::int64_t>(id));
      if (!st.ok()) return Corruption(st.message());
    }
  } else {
    if (meta.next_id.has_value() && *meta.next_id != corpus.size()) {
      return Corruption("next_id without an id list must equal melody count");
    }
    for (Melody& m : corpus) system.AddMelody(std::move(m));
  }
  if (meta.next_id.has_value()) {
    if (static_cast<std::size_t>(system.next_id()) > *meta.next_id) {
      return Corruption("next_id smaller than the highest melody id");
    }
    system.ReserveIds(static_cast<std::int64_t>(*meta.next_id));
  }
  system.Build();
  return system;
}

Status MapFileWithRetry(Env* env, const std::string& path,
                        MemorySource* out) {
  if (env == nullptr) env = Env::Default();
  RetryPolicy policy;
  return RetryWithBackoff(policy, [&] { return env->MapFile(path, out); });
}

/// A v3 image arriving as in-memory bytes (snapshot shipping, tests) is
/// copied into a page-aligned owned source, so the same aligned zero-copy
/// parse path serves both mapped files and shipped strings.
std::shared_ptr<MemorySource> OwnedSourceFrom(std::string_view bytes) {
  auto source =
      std::make_shared<MemorySource>(MemorySource::AllocateOwned(bytes.size()));
  std::memcpy(source->mutable_data(), bytes.data(), bytes.size());
  return source;
}

}  // namespace

std::string SerializeQbhDatabase(const QbhSystem& system) {
  if (system.options().format == CheckpointFormat::kV3Binary &&
      system.engine() != nullptr) {
    return SerializeQbhCorpusV3(system.options(), system.CorpusSnapshot(),
                                *system.engine());
  }
  return SerializeQbhCorpus(system.options(), system.CorpusSnapshot());
}

std::string SerializeQbhCorpus(
    const QbhOptions& opt, const std::vector<std::optional<Melody>>& slots) {
  std::string out = "humdex-db v2\n";
  char buf[128];
  out += storage_detail::SerializeOptionLines(opt);

  std::vector<Melody> corpus;
  std::string id_list;
  corpus.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].has_value()) continue;
    corpus.push_back(*slots[i]);
    if (!id_list.empty()) id_list += ',';
    id_list += std::to_string(i);
  }
  // A gapped id space (tombstones, or trailing removed ids) is persisted
  // explicitly; a dense one stays byte-identical to the classic format.
  if (corpus.size() != slots.size()) {
    std::snprintf(buf, sizeof(buf), "option next_id %zu\n", slots.size());
    out += buf;
    out += "option ids " + id_list + "\n";
  }
  out += SerializeMelodies(corpus);

  std::snprintf(buf, sizeof(buf), "crc32c %08x\n", Crc32c(out));
  out += buf;
  return out;
}

Result<QbhSystem> ParseQbhDatabase(const std::string& text) {
  if (LooksLikeV3(text)) {
    return ParseQbhDatabaseV3(OwnedSourceFrom(text));
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Corruption("empty database file");
  }
  bool v2;
  if (line.rfind("humdex-db v2", 0) == 0) {
    v2 = true;
  } else if (line.rfind("humdex-db v1", 0) == 0) {
    v2 = false;
  } else {
    return Status::InvalidArgument("missing 'humdex-db v1/v2' header");
  }

  QbhOptions opt;
  DbMeta meta;
  std::string melody_text;
  if (v2) {
    std::string_view body;
    std::uint32_t stored_crc = 0;
    Status st = SplitV2Trailer(text, &body, &stored_crc);
    if (!st.ok()) {
      CorruptionCounter().Increment();
      return st;
    }
    std::uint32_t actual = Crc32c(body);
    if (actual != stored_crc) {
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "checksum mismatch: stored %08x, computed %08x", stored_crc,
                    actual);
      return Corruption(msg);
    }
    // Re-parse from the checksummed body only (drops the trailer line).
    std::istringstream body_in{std::string(body)};
    std::getline(body_in, line);  // skip version header
    HUMDEX_RETURN_IF_ERROR(ParseBody(body_in, &opt, &meta, &melody_text));
  } else {
    HUMDEX_RETURN_IF_ERROR(ParseBody(in, &opt, &meta, &melody_text));
  }

  std::vector<Melody> corpus;
  Status st = ParseMelodies(melody_text, &corpus);
  if (!st.ok()) return st;
  if (corpus.empty()) return Status::InvalidArgument("database has no melodies");
  return BuildSystem(opt, std::move(corpus), std::move(meta));
}

Result<QbhSystem> ParseQbhDatabaseSalvage(const std::string& text,
                                          SalvageReport* report) {
  if (LooksLikeV3(text)) {
    return ParseQbhDatabaseV3Salvage(OwnedSourceFrom(text), report);
  }
  SalvageReport local;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("humdex-db v", 0) != 0) {
    if (report != nullptr) *report = local;
    return Status::InvalidArgument("missing 'humdex-db' header");
  }
  bool v2 = line.rfind("humdex-db v2", 0) == 0;

  // Checksum is advisory in salvage mode: verify when possible, note the
  // result, and keep going either way.
  std::string parse_text = text;
  if (v2) {
    std::string_view body;
    std::uint32_t stored_crc = 0;
    Status st = SplitV2Trailer(text, &body, &stored_crc);
    if (st.ok()) {
      local.crc_ok = Crc32c(body) == stored_crc;
      parse_text = std::string(body);
    }
    if (!local.crc_ok) CorruptionCounter().Increment();
  }

  // Lenient header scan: malformed option lines fall back to the default
  // value instead of failing the load. Legacy pivot lines are skipped.
  QbhOptions opt;
  std::optional<std::size_t> salvage_next_id;
  std::optional<std::vector<std::size_t>> salvage_ids;
  bool ids_ok = true;
  std::istringstream body_in(parse_text);
  std::getline(body_in, line);  // version header
  std::ostringstream rest;
  bool in_header = true;
  while (std::getline(body_in, line)) {
    if (in_header && IsLegacyPivotLine(line)) continue;
    if (in_header && line.rfind("option ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string key, value;
      if (fields >> key >> value) {
        if (key == "next_id") {
          std::size_t v = 0;
          if (ParseSize(value, &v).ok() && v > 0 && v <= kMaxNextId) {
            salvage_next_id = v;
          } else {
            ids_ok = false;
          }
          continue;
        }
        if (key == "ids") {
          std::vector<std::size_t> parsed;
          if (ParseIdList(value, &parsed).ok()) {
            salvage_ids = std::move(parsed);
          } else {
            ids_ok = false;
          }
          continue;
        }
        QbhOptions trial = opt;
        if (ApplyOption(key, value, &trial).ok()) opt = trial;
      } else if (key == "next_id" || key == "ids") {
        ids_ok = false;  // id metadata present but valueless: untrustworthy
      }
      continue;
    }
    in_header = false;
    rest << line << '\n';
  }
  if (!ValidateOptions(opt).ok()) opt = QbhOptions();

  std::vector<Melody> corpus;
  std::size_t dropped = 0;
  std::vector<std::size_t> kept_blocks;
  ParseMelodiesSalvage(rest.str(), &corpus, &dropped, &kept_blocks);
  local.melodies_loaded = corpus.size();
  local.melodies_dropped = dropped;
  if (dropped > 0) SalvagedCounter().Increment(dropped);
  if (corpus.empty()) {
    if (report != nullptr) *report = local;
    return Status::InvalidArgument("salvage recovered no melodies");
  }
  if (opt.scheme == SchemeKind::kSvd && corpus.size() < 2) {
    opt.scheme = SchemeKind::kDft;  // SVD cannot fit a 1-melody salvage
  }

  // Reconstruct the id space so every survivor keeps the id the file
  // assigned it: block b's id is ids[b] (gapped file) or b (dense file),
  // and a dropped block becomes a tombstone instead of shifting every
  // melody after it. Only when the id metadata itself is unrecoverable
  // (truncated or duplicated id list, malformed next_id) do we fall back
  // to dense renumbering — and say so via ids_stable, because renumbered
  // ids must not be served by anything that keys on them.
  const std::size_t total_blocks = corpus.size() + dropped;
  if (salvage_ids.has_value()) {
    if (salvage_ids->size() != total_blocks) {
      ids_ok = false;
    } else {
      std::vector<std::size_t> sorted = *salvage_ids;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        ids_ok = false;
      }
    }
  }

  DbMeta meta;
  if (ids_ok) {
    std::size_t file_max = total_blocks;  // dense: ids are block indices
    if (salvage_ids.has_value() && !salvage_ids->empty()) {
      file_max =
          1 + *std::max_element(salvage_ids->begin(), salvage_ids->end());
    }
    const std::size_t next_id = std::max(salvage_next_id.value_or(0), file_max);
    if (dropped > 0 || salvage_ids.has_value() || next_id != corpus.size()) {
      std::vector<std::size_t> survivor_ids;
      survivor_ids.reserve(kept_blocks.size());
      for (std::size_t b : kept_blocks) {
        survivor_ids.push_back(salvage_ids.has_value() ? (*salvage_ids)[b]
                                                       : b);
      }
      meta.ids = std::move(survivor_ids);
      meta.next_id = next_id;
    }
  }
  local.ids_stable = ids_ok;
  if (report != nullptr) *report = local;
  return BuildSystem(opt, std::move(corpus), std::move(meta));
}

Status SaveQbhDatabase(const std::string& path, const QbhSystem& system,
                       Env* env) {
  if (env == nullptr) env = Env::Default();
  return env->AtomicWriteFile(path, SerializeQbhDatabase(system));
}

Result<QbhSystem> LoadQbhDatabase(const std::string& path, Env* env) {
  // One mapped (or page-aligned buffered) view serves both formats: a v3
  // image parses zero-copy straight out of it; text formats copy out once,
  // exactly as the old whole-file read did.
  auto source = std::make_shared<MemorySource>();
  HUMDEX_RETURN_IF_ERROR(MapFileWithRetry(env, path, source.get()));
  if (LooksLikeV3(source->view())) {
    return ParseQbhDatabaseV3(std::move(source));
  }
  return ParseQbhDatabase(std::string(source->view()));
}

Result<QbhSystem> LoadQbhDatabaseSalvage(const std::string& path,
                                         SalvageReport* report, Env* env) {
  auto source = std::make_shared<MemorySource>();
  HUMDEX_RETURN_IF_ERROR(MapFileWithRetry(env, path, source.get()));
  if (LooksLikeV3(source->view())) {
    return ParseQbhDatabaseV3Salvage(std::move(source), report);
  }
  return ParseQbhDatabaseSalvage(std::string(source->view()), report);
}

}  // namespace humdex
