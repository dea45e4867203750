#include "qbh/storage_v3.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <optional>
#include <span>
#include <string_view>

#include "gemini/query_engine.h"
#include "index/rstar_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbh/storage_detail.h"
#include "transform/feature_scheme.h"
#include "transform/linear_transform.h"
#include "ts/codec.h"
#include "util/crc32c.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace humdex {
namespace {

using storage_detail::ApplyOption;
using storage_detail::Corruption;
using storage_detail::CorruptionCounter;
using storage_detail::kMaxNextId;
using storage_detail::SalvagedCounter;
using storage_detail::ValidateOptions;

constexpr char kMagic[16] = {'h', 'u', 'm', 'd', 'e', 'x', '-', 'd',
                             'b', ' ', 'v', '3', '\n', 0,   0,   0};
constexpr std::size_t kMagicLen = 13;  // match on the text prefix
constexpr std::size_t kPage = 4096;
constexpr std::size_t kHeaderSize = kPage;
constexpr std::size_t kTableStart = 64;
constexpr std::size_t kEntrySize = 32;
constexpr std::size_t kMaxSections = 64;

// Section types, in their on-disk order. Types 4, 7 and 8 held the removed
// LB_Triangle references, Kim meta rows and pivot rows (DESIGN.md §11), and
// type 6 the per-item envelopes, now derived from NORMALS at open: the
// writer no longer emits them, and the readers checksum them in files that
// still carry them but otherwise ignore them.
enum SectionType : std::uint32_t {
  kSecOptions = 1,    ///< the v2 `option k v` lines, verbatim
  kSecIds = 2,        ///< u64 n, then n unique u64 ids, in row order
  kSecMelodies = 3,   ///< n per-frame-checksummed melody frames, row order
  kSecNormals = 5,    ///< n codec-encoded normal forms, row order
  kSecEnvelopes = 6,  ///< legacy: n*stride lo doubles, then n*stride hi
  kSecFeatures = 9,   ///< n * feature_dim raw doubles, row order (non-R*-tree)
  kSecIndex = 10,     ///< RStarTree::SerializePages blob (R*-tree backend)
  kSecScheme = 11,    ///< u64 rows, u64 cols, fitted coefficients (SVD)
};
constexpr std::uint32_t kMaxSectionType = kSecScheme;

// Bounds against decode amplification: a tiny packed payload must not be
// able to request gigabytes of decoded doubles.
constexpr std::size_t kMaxNameLen = 1 << 20;
constexpr std::size_t kMaxNotesPerMelody = 1 << 22;
constexpr std::size_t kMaxTotalNotes = 1 << 26;
constexpr std::size_t kMaxDecodedDoubles = std::size_t{1} << 31;
// The codec packs a constant series of any length into 11 bytes, so the
// NORMALS size alone does not bound the row blocks a v3 open allocates
// before decoding. The series rows (the envelope rows take as many bytes
// again) may exceed kRowBytesPerNormalsByte bytes per NORMALS byte only
// within kRowBytesSlack. Real normal forms of length 128 pack into ~77
// bytes (13x) and a constant one into 11 (93x); only a corpus made mostly
// of constant series longer than 352 values, decoding past the slack,
// exceeds the bound.
constexpr std::size_t kRowBytesPerNormalsByte = 256;
constexpr std::size_t kRowBytesSlack = std::size_t{16} << 20;

void PutU32(std::string* out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void StoreU32(char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void StoreU64(char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

/// LEB128, for the small integers in per-melody frames (id, name length,
/// note count): one byte in the common case instead of four or eight.
void PutVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

std::uint32_t LoadU32(std::string_view in, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, in.data() + pos, 4);
  return v;
}

std::uint64_t LoadU64(std::string_view in, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + pos, 8);
  return v;
}

/// Bounds-checked forward reader over a section's bytes.
struct Cursor {
  std::string_view in;
  std::size_t pos = 0;

  std::size_t remaining() const { return in.size() - pos; }
  bool done() const { return pos == in.size(); }
  bool ReadBytes(void* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, in.data() + pos, n);
    pos += n;
    return true;
  }
  bool ReadU32(std::uint32_t* v) { return ReadBytes(v, 4); }
  bool ReadU64(std::uint64_t* v) { return ReadBytes(v, 8); }
  bool ReadVarint(std::uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos >= in.size()) return false;
      const std::uint8_t b = static_cast<std::uint8_t>(in[pos++]);
      if (shift == 63 && (b & 0x7e) != 0) return false;  // > 64 bits
      *v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        // Reject non-canonical padding so every value has one wire form.
        return b != 0 || shift == 0;
      }
    }
    return false;
  }
  bool Skip(std::size_t n) {
    if (remaining() < n) return false;
    pos += n;
    return true;
  }
};

/// One melody frame's payload (the bytes covered by its per-frame CRC).
std::string EncodeMelodyPayload(std::uint64_t id, const Melody& m) {
  std::string payload;
  PutVarint(&payload, id);
  PutVarint(&payload, m.name.size());
  payload += m.name;
  PutVarint(&payload, m.notes.size());
  Series track(m.notes.size());
  for (std::size_t i = 0; i < m.notes.size(); ++i) track[i] = m.notes[i].pitch;
  codec::EncodeSeries(track, &payload);
  for (std::size_t i = 0; i < m.notes.size(); ++i) {
    track[i] = m.notes[i].duration;
  }
  codec::EncodeSeries(track, &payload);
  return payload;
}

/// Strict payload parse. `total_notes` accumulates across frames (bounded),
/// from any number of threads.
Status DecodeMelodyPayload(std::string_view payload, std::uint64_t* id,
                           Melody* out,
                           std::atomic<std::size_t>* total_notes) {
  Cursor c{payload};
  std::uint64_t name_len = 0;
  std::uint64_t note_count = 0;
  if (!c.ReadVarint(id) || !c.ReadVarint(&name_len)) {
    return Status::Corruption("melody frame header truncated");
  }
  if (name_len > kMaxNameLen || name_len > c.remaining()) {
    return Status::Corruption("melody name length out of range");
  }
  out->name.assign(payload.data() + c.pos, static_cast<std::size_t>(name_len));
  c.pos += static_cast<std::size_t>(name_len);
  if (!c.ReadVarint(&note_count) || note_count == 0 ||
      note_count > kMaxNotesPerMelody) {
    return Status::Corruption("melody note count out of range");
  }
  std::size_t total = total_notes->load(std::memory_order_relaxed);
  do {
    if (total + note_count > kMaxTotalNotes) {
      return Status::Corruption("melody note count out of range");
    }
  } while (!total_notes->compare_exchange_weak(total, total + note_count,
                                               std::memory_order_relaxed));
  Series pitches, durations;
  HUMDEX_RETURN_IF_ERROR(
      codec::DecodeSeries(payload, &c.pos, note_count, &pitches));
  HUMDEX_RETURN_IF_ERROR(
      codec::DecodeSeries(payload, &c.pos, note_count, &durations));
  if (!c.done()) {
    return Status::Corruption("trailing bytes in melody frame");
  }
  out->notes.resize(note_count);
  for (std::size_t i = 0; i < note_count; ++i) {
    if (!std::isfinite(pitches[i]) || !std::isfinite(durations[i]) ||
        durations[i] <= 0.0) {
      return Status::Corruption("melody note out of domain");
    }
    out->notes[i] = Note{pitches[i], durations[i]};
  }
  return Status::OK();
}

/// Parse the OPTIONS section (strict): every line must be a valid
/// `option k v`. Returns validated options.
Status ParseOptionsSection(std::string_view text, QbhOptions* opt) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t eol = text.find('\n', start);
    if (eol == std::string_view::npos) {
      return Status::Corruption("unterminated option line");
    }
    std::string line(text.substr(start, eol - start));
    start = eol + 1;
    if (line.rfind("option ", 0) != 0) {
      return Status::Corruption("malformed option line: '" + line + "'");
    }
    std::size_t sp = line.find(' ', 7);
    if (sp == std::string::npos || sp + 1 >= line.size()) {
      return Status::Corruption("malformed option line: '" + line + "'");
    }
    HUMDEX_RETURN_IF_ERROR(
        ApplyOption(line.substr(7, sp - 7), line.substr(sp + 1), opt));
  }
  return ValidateOptions(*opt);
}

struct SectionEntry {
  bool present = false;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::string_view bytes;  // filled once validated
};

bool RangeIsZero(std::string_view in, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (in[i] != 0) return false;
  }
  return true;
}

/// Strict header + section-table parse shared by the strict loader; fills
/// `secs` (indexed by type) with validated, CRC-checked section views.
Status ParseSectionTable(std::string_view in,
                         SectionEntry (&secs)[kMaxSectionType + 1],
                         std::uint64_t* next_id, std::uint64_t* melody_count) {
  if (in.size() < kHeaderSize) {
    return Corruption("v3 file shorter than its header page");
  }
  const std::uint32_t count = LoadU32(in, 16);
  if (count == 0 || count > kMaxSections) {
    return Corruption("v3 section count out of range");
  }
  const std::uint64_t file_size = LoadU64(in, 24);
  *next_id = LoadU64(in, 32);
  *melody_count = LoadU64(in, 40);
  const std::uint32_t stored_crc = LoadU32(in, 56);
  std::uint32_t actual = Crc32cExtend(0, in.data(), 56);
  actual = Crc32cExtend(actual, in.data() + kTableStart, count * kEntrySize);
  if (actual != stored_crc) {
    return Corruption("v3 header checksum mismatch");
  }
  // Bytes [60, 64) sit between the checksum and the table, outside the
  // checksummed span — they must be zero so every header bit is verified.
  if (LoadU32(in, 60) != 0) {
    return Corruption("v3 reserved header bytes set");
  }
  if (file_size != in.size()) {
    return Corruption("v3 file size does not match header");
  }
  if (!RangeIsZero(in, kTableStart + count * kEntrySize, kHeaderSize)) {
    return Corruption("v3 header page has nonzero padding");
  }
  std::uint64_t prev_end = kHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t e = kTableStart + i * kEntrySize;
    const std::uint32_t type = LoadU32(in, e);
    const std::uint32_t flags = LoadU32(in, e + 4);
    const std::uint64_t offset = LoadU64(in, e + 8);
    const std::uint64_t length = LoadU64(in, e + 16);
    const std::uint32_t crc = LoadU32(in, e + 24);
    const std::uint32_t reserved = LoadU32(in, e + 28);
    if (type == 0 || type > kMaxSectionType) {
      return Corruption("v3 unknown section type");
    }
    if (flags != 0 || reserved != 0) {
      return Corruption("v3 reserved section bits set");
    }
    if (secs[type].present) return Corruption("v3 duplicate section");
    if (offset % kPage != 0 || offset < prev_end ||
        length > in.size() - offset) {
      return Corruption("v3 section out of bounds");
    }
    if (!RangeIsZero(in, prev_end, offset)) {
      return Corruption("v3 inter-section gap has nonzero bytes");
    }
    // Section CRCs are deliberately NOT verified here: the strict parse
    // overlaps that scan (the whole file's bytes) with decoding on a worker
    // thread, and the salvage parse runs its own lenient version.
    secs[type] = {true, offset, length, crc, in.substr(offset, length)};
    prev_end = offset + length;
  }
  if (prev_end != in.size()) {
    return Corruption("v3 trailing bytes after the last section");
  }
  return Status::OK();
}

std::shared_ptr<FeatureScheme> MakeFixedScheme(const QbhOptions& opt) {
  switch (opt.scheme) {
    case SchemeKind::kNewPaa:
      return MakeNewPaaScheme(opt.normal_len, opt.feature_dim);
    case SchemeKind::kKeoghPaa:
      return MakeKeoghPaaScheme(opt.normal_len, opt.feature_dim);
    case SchemeKind::kDft:
      return MakeDftScheme(opt.normal_len, opt.feature_dim);
    case SchemeKind::kDwt:
      return MakeDwtScheme(opt.normal_len, opt.feature_dim);
    case SchemeKind::kSvd:
      break;  // rebuilt from the SCHEME section's fitted coefficients
  }
  return nullptr;
}

}  // namespace

bool LooksLikeV3(std::string_view data) {
  return data.size() >= kMagicLen &&
         std::memcmp(data.data(), kMagic, kMagicLen) == 0;
}

std::string SerializeQbhCorpusV3(
    const QbhOptions& opt, const std::vector<std::optional<Melody>>& slots,
    const DtwQueryEngine& engine) {
  // Every id-ordered section lists the items in the index's probe order
  // (the R*-tree's leaf preorder, as INDEX serializes it), so an open lays
  // its arena rows out in leaf order however the engine churned since.
  const std::vector<std::int64_t> ids =
      engine.feature_index().IdsInProbeOrder();
  const std::size_t n = ids.size();
  std::size_t live = 0;
  for (const std::optional<Melody>& slot : slots) live += slot.has_value();
  HUMDEX_CHECK_MSG(engine.size() == n && live == n,
                   "v3 serializer: engine does not mirror the corpus");

  std::vector<std::pair<std::uint32_t, std::string>> sections;
  sections.emplace_back(kSecOptions, storage_detail::SerializeOptionLines(opt));

  {
    std::string s;
    PutU64(&s, n);
    for (std::int64_t id : ids) PutU64(&s, static_cast<std::uint64_t>(id));
    sections.emplace_back(kSecIds, std::move(s));
  }

  {
    std::string s;
    for (std::int64_t id : ids) {
      const std::optional<Melody>& slot = slots[static_cast<std::size_t>(id)];
      HUMDEX_CHECK_MSG(slot.has_value(),
                       "v3 serializer: engine does not mirror the corpus");
      std::string payload =
          EncodeMelodyPayload(static_cast<std::uint64_t>(id), *slot);
      PutU32(&s, static_cast<std::uint32_t>(payload.size()));
      PutU32(&s, Crc32c(payload));
      s += payload;
    }
    sections.emplace_back(kSecMelodies, std::move(s));
  }

  // Per-id arena positions, reused by every id-ordered section below.
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = engine.PosForId(ids[i]);
    HUMDEX_CHECK(pos[i] != static_cast<std::size_t>(-1));
  }

  {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
      codec::EncodeSeries(engine.SeriesAt(pos[i]), &s);
    }
    sections.emplace_back(kSecNormals, std::move(s));
  }

  if (opt.index == IndexKind::kRStarTree) {
    const RStarTree* tree = engine.feature_index().rstar_tree();
    HUMDEX_CHECK_MSG(tree != nullptr, "R*-tree backend without an R*-tree");
    std::string s;
    tree->SerializePages(&s);
    sections.emplace_back(kSecIndex, std::move(s));
  } else {
    std::string s;
    s.reserve(n * opt.feature_dim * sizeof(double));
    const FeatureScheme& scheme = engine.feature_index().scheme();
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> row = engine.SeriesAt(pos[i]);
      Series f = scheme.Features(Series(row.begin(), row.end()));
      HUMDEX_CHECK(f.size() == opt.feature_dim);
      s.append(reinterpret_cast<const char*>(f.data()),
               f.size() * sizeof(double));
    }
    sections.emplace_back(kSecFeatures, std::move(s));
  }

  if (opt.scheme == SchemeKind::kSvd) {
    const auto* linear =
        dynamic_cast<const LinearScheme*>(&engine.feature_index().scheme());
    HUMDEX_CHECK_MSG(linear != nullptr, "SVD scheme is not linear");
    const Matrix& m = linear->transform()->coefficients();
    std::string s;
    PutU64(&s, m.rows());
    PutU64(&s, m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      s.append(reinterpret_cast<const char*>(m.Row(r)),
               m.cols() * sizeof(double));
    }
    sections.emplace_back(kSecScheme, std::move(s));
  }

  // Lay the sections out at ascending page-aligned offsets and assemble the
  // image: header page, zero-filled gaps, file size ending exactly at the
  // last section's last byte.
  struct Placed {
    std::uint32_t type;
    std::uint64_t offset;
    std::uint64_t length;
    std::uint32_t crc;
  };
  std::vector<Placed> table;
  std::uint64_t offset = kHeaderSize;
  for (const auto& [type, bytes] : sections) {
    table.push_back({type, offset, bytes.size(), Crc32c(bytes)});
    offset = (offset + bytes.size() + kPage - 1) & ~(kPage - 1);
  }
  const std::uint64_t file_size = table.back().offset + table.back().length;

  std::string out(file_size, '\0');
  std::memcpy(&out[0], kMagic, sizeof(kMagic));
  StoreU32(&out[16], static_cast<std::uint32_t>(sections.size()));
  StoreU64(&out[24], file_size);
  StoreU64(&out[32], static_cast<std::uint64_t>(slots.size()));
  StoreU64(&out[40], n);
  for (std::size_t i = 0; i < table.size(); ++i) {
    char* e = &out[kTableStart + i * kEntrySize];
    StoreU32(e, table[i].type);
    StoreU32(e + 4, 0);
    StoreU64(e + 8, table[i].offset);
    StoreU64(e + 16, table[i].length);
    StoreU32(e + 24, table[i].crc);
    StoreU32(e + 28, 0);
  }
  std::uint32_t crc = Crc32cExtend(0, out.data(), 56);
  crc = Crc32cExtend(crc, out.data() + kTableStart,
                     table.size() * kEntrySize);
  StoreU32(&out[56], crc);
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::memcpy(&out[table[i].offset], sections[i].second.data(),
                sections[i].second.size());
  }
  return out;
}

Result<QbhSystem> ParseQbhDatabaseV3(std::shared_ptr<MemorySource> source) {
  const std::string_view in = source->view();
  if (!LooksLikeV3(in)) {
    return Status::InvalidArgument("missing 'humdex-db v3' magic");
  }
  SectionEntry secs[kMaxSectionType + 1] = {};
  std::uint64_t next_id = 0;
  std::uint64_t melody_count = 0;
  HUMDEX_RETURN_IF_ERROR(
      ParseSectionTable(in, secs, &next_id, &melody_count));
  for (std::uint32_t t : {kSecOptions, kSecIds, kSecMelodies, kSecNormals}) {
    if (!secs[t].present) return Corruption("v3 required section missing");
  }

  QbhOptions opt;
  HUMDEX_RETURN_IF_ERROR(ParseOptionsSection(secs[kSecOptions].bytes, &opt));
  opt.format = CheckpointFormat::kV3Binary;

  // Section presence must agree with the configuration the options declare.
  const bool rstar = opt.index == IndexKind::kRStarTree;
  if (secs[kSecIndex].present != rstar ||
      secs[kSecFeatures].present == rstar) {
    return Corruption("v3 index sections do not match the index option");
  }
  if (secs[kSecScheme].present != (opt.scheme == SchemeKind::kSvd)) {
    return Corruption("v3 scheme section does not match the scheme option");
  }

  // IDS: n unique ids below the id-space bound, all n listed, in the order
  // of the rows (a writer's probe order; legacy images list them
  // ascending). Nothing is sized by n before that check, nor are the row
  // blocks before the bound on their size below.
  Cursor ids_in{secs[kSecIds].bytes};
  std::uint64_t n64 = 0;
  if (!ids_in.ReadU64(&n64) || n64 == 0 || n64 != melody_count ||
      n64 > kMaxNextId || ids_in.remaining() != n64 * 8) {
    return Corruption("v3 melody count out of range");
  }
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::string_view normals = secs[kSecNormals].bytes;
  const std::size_t row_bytes =
      CandidateArena::RowStride(opt.normal_len) * sizeof(double);
  if (n * opt.normal_len > kMaxDecodedDoubles ||
      n > (kRowBytesSlack + kRowBytesPerNormalsByte * normals.size()) /
              row_bytes) {
    return Corruption("v3 normal-form payload too large");
  }
  std::vector<std::int64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t id = 0;
    if (!ids_in.ReadU64(&id) || id >= kMaxNextId) {
      return Corruption("v3 id out of range");
    }
    ids[i] = static_cast<std::int64_t>(id);
  }
  if (!ids_in.done()) return Corruption("trailing bytes in v3 id section");
  const std::int64_t max_id = *std::max_element(ids.begin(), ids.end());
  if (next_id <= static_cast<std::uint64_t>(max_id) || next_id > kMaxNextId) {
    return Corruption("v3 next_id out of range");
  }
  {
    std::vector<bool> seen(static_cast<std::size_t>(max_id) + 1);
    for (std::int64_t id : ids) {
      if (seen[static_cast<std::size_t>(id)]) {
        return Corruption("v3 id list has a duplicate id");
      }
      seen[static_cast<std::size_t>(id)] = true;
    }
  }

  // NORMALS framing: where each encoded series starts, so the rows can
  // decode in parallel below.
  std::vector<std::size_t> starts(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    starts[i + 1] = starts[i];
    Status st = codec::SkipSeries(normals, &starts[i + 1], opt.normal_len);
    if (!st.ok()) return Corruption(st.message());
  }
  if (starts[n] != normals.size()) {
    return Corruption("trailing bytes in v3 normals section");
  }

  // MELODIES framing: each frame is a u32 length, a u32 CRC and the
  // payload. Hopping the lengths finds where every kMelodyChunk-th frame
  // starts, so chunks of frames decode in parallel below.
  constexpr std::size_t kMelodyChunk = 1024;
  std::vector<std::size_t> melody_starts;
  {
    Cursor c{secs[kSecMelodies].bytes};
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kMelodyChunk == 0) melody_starts.push_back(c.pos);
      std::uint32_t len = 0, crc = 0;
      if (!c.ReadU32(&len) || !c.ReadU32(&crc) || len > c.remaining()) {
        return Corruption("v3 melody frame truncated");
      }
      c.pos += len;
    }
    if (!c.done()) return Corruption("trailing bytes in v3 melody section");
  }

  // Scheme: data-independent kinds are rebuilt from the options; SVD from
  // its fitted coefficient matrix, which fully determines its behavior.
  std::shared_ptr<FeatureScheme> scheme = MakeFixedScheme(opt);
  if (scheme == nullptr) {
    Cursor c{secs[kSecScheme].bytes};
    std::uint64_t rows = 0, cols = 0;
    if (!c.ReadU64(&rows) || !c.ReadU64(&cols) || rows != opt.feature_dim ||
        cols != opt.normal_len ||
        c.remaining() != rows * cols * sizeof(double)) {
      return Corruption("v3 scheme section has the wrong shape");
    }
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      c.ReadBytes(m.Row(r), cols * sizeof(double));
      for (std::size_t j = 0; j < cols; ++j) {
        if (!std::isfinite(m(r, j))) {
          return Corruption("non-finite v3 scheme coefficient");
        }
      }
    }
    scheme = std::make_shared<LinearScheme>(
        std::make_shared<LinearTransform>(std::move(m), "svd"), "svd");
  }

  QueryEngineOptions eopts;
  eopts.normal_len = opt.normal_len;
  eopts.warping_width = opt.warping_width;
  eopts.index.kind = opt.index;
  eopts.cascade = opt.cascade;
  auto engine = std::make_unique<DtwQueryEngine>(scheme, eopts);

  // The workers carry the file-sized but independent work while this
  // thread allocates the row blocks and assembles the system:
  //   - verification of every section's CRC (every data byte in the file),
  //   - the feature index restore (R*-tree pages or feature rows),
  //   - the per-frame-checksummed MELODIES decode, in chunks of frames,
  //   - the NORMALS decode into the arena's series rows, each chunk of rows
  //     then deriving its envelope rows while they are still in cache.
  // Decoding bytes whose section CRC has not been verified YET is safe: the
  // decoders are exhaustively bounds-checked (corruption_test flips every
  // bit of an image), and every verdict gates success before anything is
  // returned. What the tasks touch must outlive `pool` — its destructor
  // drains submitted tasks on every early-return path.
  std::vector<Melody> melodies(n);
  std::atomic<std::size_t> total_notes{0};
  std::optional<CandidateArena::Prebuilt> rows;
  std::atomic<std::uint64_t> derive_ns{0};
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  std::future<Status> crc_done = pool.Submit([&secs]() -> Status {
    for (std::uint32_t t = 1; t <= kMaxSectionType; ++t) {
      if (secs[t].present && Crc32c(secs[t].bytes) != secs[t].crc) {
        return Corruption("v3 section checksum mismatch");
      }
    }
    return Status::OK();
  });
  std::future<Status> index_done = pool.Submit([&]() -> Status {
    FeatureIndex* index = engine->mutable_feature_index();
    if (rstar) {
      std::unique_ptr<RStarTree> tree;
      Status st = RStarTree::FromPages(opt.feature_dim, secs[kSecIndex].bytes,
                                       RStarOptions(), &tree);
      if (!st.ok()) return Corruption(st.message());
      if (tree->size() != n) {
        return Corruption("v3 index entry count does not match the corpus");
      }
      index->AttachRStarTree(std::move(tree));
      return Status::OK();
    }
    if (secs[kSecFeatures].length != n * opt.feature_dim * sizeof(double)) {
      return Corruption("v3 feature section has the wrong size");
    }
    const double* fp =
        reinterpret_cast<const double*>(secs[kSecFeatures].bytes.data());
    std::vector<Series> features(n);
    for (std::size_t i = 0; i < n; ++i) {
      features[i].assign(fp + i * opt.feature_dim,
                         fp + (i + 1) * opt.feature_dim);
    }
    index->AddBatchFeatures(features, ids);
    return Status::OK();
  });
  std::vector<std::future<Status>> melodies_done;
  for (std::size_t chunk = 0; chunk < melody_starts.size(); ++chunk) {
    melodies_done.push_back(pool.Submit([&, chunk]() -> Status {
      Cursor c{secs[kSecMelodies].bytes};
      c.pos = melody_starts[chunk];
      const std::size_t first = chunk * kMelodyChunk;
      for (std::size_t i = first; i < std::min(n, first + kMelodyChunk); ++i) {
        std::uint32_t len = 0, crc = 0;
        c.ReadU32(&len);  // framed above
        c.ReadU32(&crc);
        std::string_view payload = c.in.substr(c.pos, len);
        c.pos += len;
        if (Crc32c(payload) != crc) {
          return Corruption("v3 melody frame checksum mismatch");
        }
        std::uint64_t id = 0;
        Status st =
            DecodeMelodyPayload(payload, &id, &melodies[i], &total_notes);
        if (!st.ok()) return Corruption(st.message());
        if (id != static_cast<std::uint64_t>(ids[i])) {
          return Corruption("v3 melody frame id does not match the id list");
        }
      }
      return Status::OK();
    }));
  }

  rows.emplace(engine->arena().AllocatePrebuilt(n));
  constexpr std::size_t kChunkRows = 1024;
  std::vector<std::future<Status>> chunks_done;
  for (std::size_t first = 0; first < n; first += kChunkRows) {
    const std::size_t last = std::min(n, first + kChunkRows);
    rows->Prefault(first, last);
    chunks_done.push_back(pool.Submit([&, first, last]() -> Status {
      for (std::size_t i = first; i < last; ++i) {
        double* row = rows->series_row(i);
        std::size_t pos = starts[i];
        Status st = codec::DecodeSeries(normals, &pos, opt.normal_len, row);
        if (!st.ok()) return Corruption(st.message());
        if (pos != starts[i + 1]) {
          return Corruption("v3 normal form overruns its frame");
        }
        if (!std::all_of(row, row + opt.normal_len,
                         [](double v) { return std::isfinite(v); })) {
          return Corruption("non-finite v3 normal-form value");
        }
      }
      std::vector<float> scratch(rows->ScratchFloats());
      const std::uint64_t t0 = obs::MonotonicNowNs();
      rows->Finish(first, last, scratch.data());
      derive_ns.fetch_add(obs::MonotonicNowNs() - t0,
                          std::memory_order_relaxed);
      return Status::OK();
    }));
  }

  for (std::future<Status>& chunk : melodies_done) {
    Status st = chunk.get();
    if (!st.ok()) return st;
  }
  QbhSystem system(opt);
  system.ReserveIds(static_cast<std::int64_t>(next_id));
  for (std::size_t i = 0; i < n; ++i) {
    Status st = system.AddMelodyWithId(std::move(melodies[i]), ids[i]);
    if (!st.ok()) return Corruption(st.message());
  }

  Status index_st = index_done.get();
  if (!index_st.ok()) return index_st;
  for (std::future<Status>& chunk : chunks_done) {
    Status st = chunk.get();
    if (!st.ok()) return st;
  }
  static obs::Histogram& h_envelopes =
      obs::MetricsRegistry::Default().GetHistogram("storage.v3_envelopes_ns");
  h_envelopes.Record(derive_ns.load(std::memory_order_relaxed));
  engine->AddAllPrebuilt(std::move(*rows), ids);
  system.InstallPrebuiltEngine(std::move(engine));
  Status crc_st = crc_done.get();
  if (!crc_st.ok()) return crc_st;
  return system;
}

Result<QbhSystem> ParseQbhDatabaseV3Salvage(
    std::shared_ptr<MemorySource> source, SalvageReport* report) {
  SalvageReport local;
  const std::string_view in = source->view();
  if (!LooksLikeV3(in) || in.size() < kHeaderSize) {
    if (report != nullptr) *report = local;
    return Status::InvalidArgument("not a v3 image");
  }

  // Lenient table scan: the header checksum is advisory; any entry whose
  // type and byte range are sane is used (first occurrence per type).
  std::uint32_t count = LoadU32(in, 16);
  const std::uint64_t header_next_id = LoadU64(in, 32);
  const std::uint64_t header_count = LoadU64(in, 40);
  {
    std::uint32_t crc = Crc32cExtend(0, in.data(), 56);
    const std::uint32_t table_len =
        std::min<std::uint32_t>(count, kMaxSections) * kEntrySize;
    crc = Crc32cExtend(crc, in.data() + kTableStart, table_len);
    local.crc_ok = count > 0 && count <= kMaxSections &&
                   crc == LoadU32(in, 56) && LoadU64(in, 24) == in.size();
    if (!local.crc_ok) CorruptionCounter().Increment();
  }
  if (count > kMaxSections) count = kMaxSections;
  SectionEntry secs[kMaxSectionType + 1] = {};
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t e = kTableStart + i * kEntrySize;
    const std::uint32_t type = LoadU32(in, e);
    const std::uint64_t offset = LoadU64(in, e + 8);
    const std::uint64_t length = LoadU64(in, e + 16);
    if (type == 0 || type > kMaxSectionType || secs[type].present) continue;
    if (offset < kHeaderSize || offset > in.size() ||
        length > in.size() - offset) {
      continue;
    }
    secs[type] = {true, offset, length, LoadU32(in, e + 24),
                  in.substr(offset, length)};
  }

  // crc_ok reports "the image was fully intact", the v3 analog of the v2
  // whole-body trailer: any section whose bytes fail their CRC (including a
  // damaged melody frame — it breaks its section's CRC too) clears it.
  for (std::uint32_t t = 1; t <= kMaxSectionType; ++t) {
    if (secs[t].present && Crc32c(secs[t].bytes) != secs[t].crc) {
      if (local.crc_ok) CorruptionCounter().Increment();
      local.crc_ok = false;
    }
  }

  // Options: lenient per-line (bad lines fall back to defaults).
  QbhOptions opt;
  if (secs[kSecOptions].present) {
    std::string_view text = secs[kSecOptions].bytes;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t eol = text.find('\n', start);
      if (eol == std::string_view::npos) break;
      std::string line(text.substr(start, eol - start));
      start = eol + 1;
      if (line.rfind("option ", 0) != 0) continue;
      std::size_t sp = line.find(' ', 7);
      if (sp == std::string::npos || sp + 1 >= line.size()) continue;
      QbhOptions trial = opt;
      if (ApplyOption(line.substr(7, sp - 7), line.substr(sp + 1), &trial)
              .ok()) {
        opt = trial;
      }
    }
  }
  if (!ValidateOptions(opt).ok()) opt = QbhOptions();
  opt.format = CheckpointFormat::kV3Binary;

  // Melodies: every frame stands alone behind its own CRC, so a damaged
  // frame (or a truncated section tail) drops only itself.
  if (!secs[kSecMelodies].present) {
    if (report != nullptr) *report = local;
    return Status::InvalidArgument("salvage recovered no melodies");
  }
  std::vector<std::uint64_t> frame_ids;
  std::vector<Melody> melodies;
  std::size_t dropped = 0;
  {
    Cursor c{secs[kSecMelodies].bytes};
    std::atomic<std::size_t> total_notes{0};
    while (c.remaining() >= 8) {
      std::uint32_t len = 0, crc = 0;
      c.ReadU32(&len);
      c.ReadU32(&crc);
      if (len > c.remaining()) {
        ++dropped;  // truncated tail: at least this frame is gone
        break;
      }
      std::string_view payload = c.in.substr(c.pos, len);
      c.pos += len;
      std::uint64_t id = 0;
      Melody m;
      if (Crc32c(payload) != crc ||
          !DecodeMelodyPayload(payload, &id, &m, &total_notes).ok() ||
          id >= kMaxNextId) {
        ++dropped;
        continue;
      }
      frame_ids.push_back(id);
      melodies.push_back(std::move(m));
    }
  }
  if (header_count <= kMaxNextId &&
      header_count > frame_ids.size() + dropped) {
    dropped = static_cast<std::size_t>(header_count) - frame_ids.size();
  }
  local.melodies_loaded = melodies.size();
  local.melodies_dropped = dropped;
  if (dropped > 0) SalvagedCounter().Increment(dropped);
  if (melodies.empty()) {
    if (report != nullptr) *report = local;
    return Status::InvalidArgument("salvage recovered no melodies");
  }

  // Ids come from the frames themselves; only when they collide do we
  // renumber (and say so — renumbered ids must not be served).
  {
    std::vector<std::uint64_t> sorted = frame_ids;
    std::sort(sorted.begin(), sorted.end());
    local.ids_stable = std::adjacent_find(sorted.begin(), sorted.end()) ==
                       sorted.end();
  }

  if (opt.scheme == SchemeKind::kSvd && melodies.size() < 2) {
    opt.scheme = SchemeKind::kDft;  // SVD cannot fit a 1-melody salvage
  }

  QbhSystem system(opt);
  std::uint64_t max_id = 0;
  if (local.ids_stable) {
    for (std::size_t i = 0; i < melodies.size(); ++i) {
      max_id = std::max(max_id, frame_ids[i]);
      Status st = system.AddMelodyWithId(
          std::move(melodies[i]), static_cast<std::int64_t>(frame_ids[i]));
      HUMDEX_CHECK(st.ok());  // ids unique + in range, melodies non-empty
    }
    std::uint64_t next_id = max_id + 1;
    if (header_next_id > next_id && header_next_id <= kMaxNextId) {
      next_id = header_next_id;
    }
    system.ReserveIds(static_cast<std::int64_t>(next_id));
  } else {
    for (Melody& m : melodies) system.AddMelody(std::move(m));
  }
  system.Build();
  if (report != nullptr) *report = local;
  return system;
}

}  // namespace humdex
