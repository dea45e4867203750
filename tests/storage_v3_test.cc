// The v3 binary checkpoint format (DESIGN.md §14): round trips across every
// scheme/index combination, bit-identical answers from a mapped corpus,
// durable Attach/Open/Checkpoint/WAL interplay, snapshot shipping, salvage,
// and mapped opens under injected IO faults. Corruption exhaustiveness (the
// all-bits-flip / all-truncations matrix) lives in corruption_test.cc.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "music/hummer.h"
#include "music/song_generator.h"
#include "qbh/storage.h"
#include "qbh/storage_v3.h"
#include "ts/codec.h"
#include "util/crc32c.h"
#include "util/env.h"

namespace humdex {
namespace {

QbhSystem MakeSystem(QbhOptions opt, std::size_t corpus_size,
                     std::uint64_t seed = 3) {
  SongGenerator gen(seed);
  QbhSystem system(opt);
  for (Melody& m : gen.GeneratePhrases(corpus_size)) {
    system.AddMelody(std::move(m));
  }
  system.Build();
  return system;
}

QbhOptions V3Options() {
  QbhOptions opt;
  opt.format = CheckpointFormat::kV3Binary;
  return opt;
}

// Minimal reader for the documented header/table layout (storage_v3.h), so
// tests can aim damage at a specific section without replicating the parser.
std::uint32_t LoadU32(const std::string& s, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, s.data() + off, sizeof v);
  return v;
}
std::uint64_t LoadU64(const std::string& s, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, s.data() + off, sizeof v);
  return v;
}
struct SectionSpan {
  std::uint32_t type;
  std::uint64_t offset;
  std::uint64_t length;
};
std::vector<SectionSpan> SectionsOf(const std::string& image) {
  std::vector<SectionSpan> out;
  std::uint32_t count = LoadU32(image, 16);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::size_t e = 64 + 32 * static_cast<std::size_t>(i);
    out.push_back({LoadU32(image, e), LoadU64(image, e + 8),
                   LoadU64(image, e + 16)});
  }
  return out;
}
SectionSpan FindSection(const std::string& image, std::uint32_t type) {
  for (const SectionSpan& s : SectionsOf(image)) {
    if (s.type == type) return s;
  }
  ADD_FAILURE() << "section type " << type << " not present";
  return {};
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// The bytes of section `type` in `image`.
std::string SectionBytes(const std::string& image, std::uint32_t type) {
  const SectionSpan span = FindSection(image, type);
  return image.substr(static_cast<std::size_t>(span.offset),
                      static_cast<std::size_t>(span.length));
}

// A v3 image over `sections` (type, bytes), laid out as the writer does:
// page-aligned ascending sections, correct section and header checksums.
std::string AssembleV3(
    const std::vector<std::pair<std::uint32_t, std::string>>& sections,
    std::uint64_t next_id, std::uint64_t melody_count) {
  auto put32 = [](std::string* out, std::size_t at, std::uint32_t v) {
    std::memcpy(&(*out)[at], &v, sizeof v);
  };
  auto put64 = [](std::string* out, std::size_t at, std::uint64_t v) {
    std::memcpy(&(*out)[at], &v, sizeof v);
  };
  std::vector<std::uint64_t> offsets;
  std::uint64_t offset = 4096;
  for (const auto& section : sections) {
    offsets.push_back(offset);
    offset = (offset + section.second.size() + 4095) & ~std::uint64_t{4095};
  }
  const std::uint64_t file_size = offsets.back() + sections.back().second.size();
  std::string out(static_cast<std::size_t>(file_size), '\0');
  std::memcpy(&out[0], "humdex-db v3\n", 13);
  put32(&out, 16, static_cast<std::uint32_t>(sections.size()));
  put64(&out, 24, file_size);
  put64(&out, 32, next_id);
  put64(&out, 40, melody_count);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::size_t e = 64 + 32 * i;
    put32(&out, e, sections[i].first);
    put64(&out, e + 8, offsets[i]);
    put64(&out, e + 16, sections[i].second.size());
    put32(&out, e + 24, Crc32c(sections[i].second));
    std::memcpy(&out[static_cast<std::size_t>(offsets[i])],
                sections[i].second.data(), sections[i].second.size());
  }
  std::uint32_t crc = Crc32cExtend(0, out.data(), 56);
  crc = Crc32cExtend(crc, out.data() + 64, 32 * sections.size());
  put32(&out, 56, crc);
  return out;
}

// Peak resident set of this process so far, in bytes.
std::int64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

// The ids `system` holds, ascending.
std::vector<std::int64_t> LiveIds(const QbhSystem& system) {
  std::vector<std::int64_t> live;
  const std::vector<std::optional<Melody>> corpus = system.CorpusSnapshot();
  for (std::size_t id = 0; id < corpus.size(); ++id) {
    if (corpus[id].has_value()) live.push_back(static_cast<std::int64_t>(id));
  }
  return live;
}

// Each id's arena rows — series and float envelope rows, pad tails
// included — are bit-identical in `a` and `b`.
void ExpectSameArenaRows(const DtwQueryEngine& a, const DtwQueryEngine& b,
                         const std::vector<std::int64_t>& ids) {
  ASSERT_EQ(a.size(), b.size());
  const CandidateArena& ra = a.arena();
  const CandidateArena& rb = b.arena();
  ASSERT_EQ(ra.stride(), rb.stride());
  ASSERT_EQ(ra.env_stride(), rb.env_stride());
  for (std::int64_t id : ids) {
    const std::size_t pa = a.PosForId(id);
    const std::size_t pb = b.PosForId(id);
    ASSERT_LT(pa, a.size());
    ASSERT_LT(pb, b.size());
    EXPECT_EQ(std::memcmp(ra.series(pa), rb.series(pb),
                          ra.stride() * sizeof(double)),
              0)
        << "id " << id;
    EXPECT_EQ(std::memcmp(ra.env_lo(pa), rb.env_lo(pb),
                          ra.env_stride() * sizeof(float)),
              0)
        << "id " << id;
    EXPECT_EQ(std::memcmp(ra.env_hi(pa), rb.env_hi(pb),
                          ra.env_stride() * sizeof(float)),
              0)
        << "id " << id;
  }
}

// kNN and range answers over `hums` hums of `a`'s live melodies agree in ids
// and distance bits.
void ExpectSameAnswers(const QbhSystem& a, const QbhSystem& b,
                       std::uint64_t hum_seed, std::size_t hums) {
  const std::vector<std::int64_t> live = LiveIds(a);
  Hummer hummer(HummerProfile::Good(), hum_seed);
  for (std::size_t q = 0; q < hums; ++q) {
    std::int64_t target = live[q * 7 % live.size()];
    Series hum = hummer.Hum(*a.melody(target));
    auto ma = a.Query(hum, 5);
    auto mb = b.Query(hum, 5);
    ASSERT_EQ(ma.size(), mb.size()) << "hum " << q;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].id, mb[i].id) << "hum " << q << " rank " << i;
      // Bit-identical, not approximately equal: the mapped corpus serves the
      // same envelopes and features the builder computed.
      EXPECT_EQ(Bits(ma[i].distance), Bits(mb[i].distance))
          << "hum " << q << " rank " << i;
    }
    if (!ma.empty()) {
      double eps = ma.back().distance * 1.5 + 1.0;
      auto ra = a.RangeQuery(hum, eps);
      auto rb = b.RangeQuery(hum, eps);
      ASSERT_EQ(ra.size(), rb.size()) << "range hum " << q;
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_EQ(Bits(ra[i].distance), Bits(rb[i].distance));
      }
    }
  }
}

TEST(StorageV3Test, MagicIsRecognizedOnlyOnV3Images) {
  QbhSystem v3 = MakeSystem(V3Options(), 5);
  QbhSystem v2 = MakeSystem(QbhOptions(), 5);
  EXPECT_TRUE(LooksLikeV3(SerializeQbhDatabase(v3)));
  EXPECT_FALSE(LooksLikeV3(SerializeQbhDatabase(v2)));
  EXPECT_FALSE(LooksLikeV3(""));
  EXPECT_FALSE(LooksLikeV3("humdex-db v2\n"));
}

TEST(StorageV3Test, RoundTripPreservesCorpusOptionsAndFormat) {
  QbhOptions opt = V3Options();
  opt.normal_len = 64;
  opt.warping_width = 0.15;
  opt.feature_dim = 4;
  QbhSystem original = MakeSystem(opt, 30);
  std::string image = SerializeQbhDatabase(original);
  ASSERT_TRUE(LooksLikeV3(image));

  Result<QbhSystem> loaded = ParseQbhDatabase(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const QbhSystem& sys = loaded.value();
  EXPECT_TRUE(sys.built());
  EXPECT_EQ(sys.size(), original.size());
  EXPECT_EQ(sys.next_id(), original.next_id());
  EXPECT_EQ(sys.Digest(), original.Digest());
  EXPECT_EQ(sys.options().normal_len, 64u);
  EXPECT_DOUBLE_EQ(sys.options().warping_width, 0.15);
  EXPECT_EQ(sys.options().feature_dim, 4u);
  // Loading a v3 file sets the format so the system checkpoints back in kind.
  EXPECT_EQ(sys.options().format, CheckpointFormat::kV3Binary);
  EXPECT_EQ(sys.melody(7)->name, original.melody(7)->name);
}

TEST(StorageV3Test, RoundTripsEverySchemeAndIndexKind) {
  const SchemeKind schemes[] = {SchemeKind::kNewPaa, SchemeKind::kKeoghPaa,
                                SchemeKind::kDft, SchemeKind::kDwt,
                                SchemeKind::kSvd};
  const IndexKind indexes[] = {IndexKind::kRStarTree, IndexKind::kGridFile,
                               IndexKind::kLinearScan};
  for (SchemeKind scheme : schemes) {
    for (IndexKind index : indexes) {
      QbhOptions opt = V3Options();
      opt.normal_len = 64;
      opt.feature_dim = 4;
      opt.scheme = scheme;
      opt.index = index;
      QbhSystem original = MakeSystem(opt, 24);
      Result<QbhSystem> loaded =
          ParseQbhDatabase(SerializeQbhDatabase(original));
      ASSERT_TRUE(loaded.ok())
          << "scheme " << static_cast<int>(scheme) << " index "
          << static_cast<int>(index) << ": " << loaded.status().ToString();
      EXPECT_EQ(loaded.value().Digest(), original.Digest());
      EXPECT_EQ(loaded.value().options().scheme, scheme);
      EXPECT_EQ(loaded.value().options().index, index);
      ExpectSameAnswers(original, loaded.value(), /*hum_seed=*/5, /*hums=*/2);
    }
  }
}

TEST(StorageV3Test, MappedCorpusAnswersBitIdenticallyToFreshEngine) {
  QbhSystem original = MakeSystem(V3Options(), 80, /*seed=*/9);
  Result<QbhSystem> loaded = ParseQbhDatabase(SerializeQbhDatabase(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameAnswers(original, loaded.value(), /*hum_seed=*/11, /*hums=*/8);
}

TEST(StorageV3Test, V2TextPathIsUnchangedByDefault) {
  QbhSystem system = MakeSystem(QbhOptions(), 8);
  std::string text = SerializeQbhDatabase(system);
  EXPECT_EQ(text.rfind("humdex-db v2\n", 0), 0u);
  Result<QbhSystem> loaded = ParseQbhDatabase(text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().options().format, CheckpointFormat::kV2Text);
  // And a reloaded v3 system re-serializes as v3.
  Result<QbhSystem> v3 =
      ParseQbhDatabase(SerializeQbhDatabase(MakeSystem(V3Options(), 8)));
  ASSERT_TRUE(v3.ok());
  EXPECT_TRUE(LooksLikeV3(SerializeQbhDatabase(v3.value())));
}

TEST(StorageV3Test, AttachWritesV3AndOpenMapsItBack) {
  Env* env = Env::Default();
  std::string path = ::testing::TempDir() + "/v3_attach.db";
  QbhSystem original = MakeSystem(V3Options(), 20, /*seed=*/7);
  ASSERT_TRUE(original.Attach(path, env).ok());

  std::string raw;
  ASSERT_TRUE(env->ReadFile(path, &raw).ok());
  EXPECT_TRUE(LooksLikeV3(raw));

  RecoveryStats stats;
  Result<QbhSystem> reopened = QbhSystem::Open(path, env, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().Digest(), original.Digest());
  EXPECT_TRUE(reopened.value().durable());
  EXPECT_EQ(stats.records_replayed, 0u);
  EXPECT_GT(stats.open_ns, 0u);
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

TEST(StorageV3Test, WalMutationsAfterMappedOpenSurviveReopen) {
  Env* env = Env::Default();
  std::string path = ::testing::TempDir() + "/v3_wal.db";
  {
    QbhSystem system = MakeSystem(V3Options(), 10, /*seed=*/4);
    ASSERT_TRUE(system.Attach(path, env).ok());
  }
  std::uint32_t mutated_digest;
  {
    Result<QbhSystem> r = QbhSystem::Open(path, env);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    QbhSystem& system = r.value();
    // Mutating a system whose engine borrows the file mapping must
    // materialize owned copies, never write through the mapped image.
    SongGenerator gen(77);
    for (Melody& m : gen.GeneratePhrases(2)) {
      ASSERT_TRUE(system.Insert(std::move(m)).ok());
    }
    ASSERT_TRUE(system.Remove(3).ok());
    mutated_digest = system.Digest();
  }
  RecoveryStats stats;
  Result<QbhSystem> reopened = QbhSystem::Open(path, env, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(reopened.value().Digest(), mutated_digest);
  EXPECT_EQ(reopened.value().melody(3), std::nullopt);

  // Checkpoint the replayed state: still v3, WAL truncated, digest stable.
  ASSERT_TRUE(reopened.value().Checkpoint().ok());
  std::string raw;
  ASSERT_TRUE(env->ReadFile(path, &raw).ok());
  EXPECT_TRUE(LooksLikeV3(raw));
  RecoveryStats stats2;
  Result<QbhSystem> again = QbhSystem::Open(path, env, &stats2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(stats2.records_replayed, 0u);
  EXPECT_EQ(again.value().Digest(), mutated_digest);
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

TEST(StorageV3Test, MutationsAfterMappedOpenMatchAFreshBuild) {
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/v3_mutate.db";
  {
    QbhSystem system = MakeSystem(V3Options(), 30, /*seed=*/17);
    ASSERT_TRUE(system.Attach(path, env).ok());
  }
  Result<QbhSystem> r = QbhSystem::Open(path, env);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  QbhSystem& mapped = r.value();
  // The opened arena owns rows bit-identical to a build's: the decoded
  // series and the envelope rows derived from them.
  const QbhSystem built = MakeSystem(V3Options(), 30, /*seed=*/17);
  ExpectSameArenaRows(*mapped.engine(), *built.engine(), LiveIds(built));

  // v3 rows follow the checkpoint's row order, and removes swap the last
  // row into the hole: removing the last row's id moves nothing, removing
  // the id of the (new) last row's neighbour in row order does, twice.
  const DtwQueryEngine& engine = *mapped.engine();
  std::vector<std::int64_t> row_ids(engine.size());
  for (std::int64_t id : LiveIds(mapped)) row_ids[engine.PosForId(id)] = id;
  const std::int64_t last = row_ids[29];
  const std::int64_t first = row_ids[0];
  const std::int64_t middle = row_ids[15];
  const std::int64_t moved_first = row_ids[28];  // the last row after `last`
  const std::int64_t moved_middle = row_ids[27];
  ASSERT_TRUE(mapped.Remove(last).ok());
  ASSERT_TRUE(mapped.Remove(first).ok());
  ASSERT_TRUE(mapped.Remove(middle).ok());
  EXPECT_EQ(engine.PosForId(moved_first), 0u);
  EXPECT_EQ(engine.PosForId(moved_middle), 15u);
  SongGenerator gen(71);
  for (Melody& m : gen.GeneratePhrases(2)) {
    ASSERT_TRUE(mapped.Insert(std::move(m)).ok());
  }

  // A fresh build over the same live corpus under the same ids.
  QbhSystem fresh(V3Options());
  const std::vector<std::optional<Melody>> corpus = mapped.CorpusSnapshot();
  for (std::int64_t id : LiveIds(mapped)) {
    ASSERT_TRUE(
        fresh.AddMelodyWithId(*corpus[static_cast<std::size_t>(id)], id).ok());
  }
  fresh.ReserveIds(mapped.next_id());
  fresh.Build();
  ASSERT_EQ(fresh.Digest(), mapped.Digest());

  ExpectSameAnswers(mapped, fresh, /*hum_seed=*/19, /*hums=*/16);
  Hummer hummer(HummerProfile::Good(), 23);
  for (std::int64_t moved : {moved_first, moved_middle}) {
    const Series q = mapped.HumToNormalForm(hummer.Hum(*mapped.melody(moved)));
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(Bits(mapped.engine()->ExactDistance(q, moved)),
              Bits(fresh.engine()->ExactDistance(q, moved)))
        << "id " << moved;
  }
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

// One row of a v3 image: its IDS entry, MELODIES frame and NORMALS bytes.
struct ImageRow {
  std::uint64_t id;
  std::string frame;
  std::string normal;
};

// The rows of a v3 image, in its row order.
std::vector<ImageRow> RowsOf(const std::string& image, std::size_t normal_len) {
  const std::string ids = SectionBytes(image, /*kSecIds=*/2);
  const std::string melodies = SectionBytes(image, /*kSecMelodies=*/3);
  const std::string normals = SectionBytes(image, /*kSecNormals=*/5);
  std::vector<ImageRow> rows(LoadU64(ids, 0));
  std::size_t frame_at = 0, normal_at = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].id = LoadU64(ids, 8 * (1 + i));
    const std::size_t len = LoadU32(melodies, frame_at);
    rows[i].frame = melodies.substr(frame_at, 8 + len);
    frame_at += 8 + len;
    const std::size_t start = normal_at;
    EXPECT_TRUE(codec::SkipSeries(normals, &normal_at, normal_len).ok());
    rows[i].normal = normals.substr(start, normal_at - start);
  }
  return rows;
}

// `image` with its IDS, MELODIES and NORMALS sections replaced by `rows`,
// every other section kept, checksums recomputed.
std::string WithRows(const std::string& image,
                     const std::vector<ImageRow>& rows) {
  std::string ids(8, '\0'), melodies, normals;
  const std::uint64_t n = rows.size();
  std::memcpy(&ids[0], &n, 8);
  for (const ImageRow& row : rows) {
    ids.append(reinterpret_cast<const char*>(&row.id), 8);
    melodies += row.frame;
    normals += row.normal;
  }
  std::vector<std::pair<std::uint32_t, std::string>> sections;
  for (const SectionSpan& s : SectionsOf(image)) {
    std::string bytes = SectionBytes(image, s.type);
    if (s.type == 2) bytes = ids;
    if (s.type == 3) bytes = melodies;
    if (s.type == 5) bytes = normals;
    sections.emplace_back(s.type, std::move(bytes));
  }
  return AssembleV3(sections, LoadU64(image, 32), n);
}

TEST(StorageV3Test, IdsInAnyOrderOpenAndDuplicatesFail) {
  // 300 melodies fill several R*-tree leaves, so the writer's leaf order is
  // not ascending.
  const QbhSystem built = MakeSystem(V3Options(), 300, /*seed=*/41);
  const std::string image = SerializeQbhDatabase(built);
  std::vector<ImageRow> rows = RowsOf(image, V3Options().normal_len);
  ASSERT_EQ(rows.size(), 300u);
  EXPECT_FALSE(std::is_sorted(rows.begin(), rows.end(),
                              [](const ImageRow& a, const ImageRow& b) {
                                return a.id < b.id;
                              }));

  // Reversed rows, and ascending ones as a legacy writer laid them out:
  // both open, rows in the listed order, answers equal to a fresh build.
  std::vector<ImageRow> ascending = rows;
  std::sort(ascending.begin(), ascending.end(),
            [](const ImageRow& a, const ImageRow& b) { return a.id < b.id; });
  std::vector<ImageRow> reversed(rows.rbegin(), rows.rend());
  for (const std::vector<ImageRow>* order : {&reversed, &ascending}) {
    Result<QbhSystem> opened = ParseQbhDatabase(WithRows(image, *order));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DtwQueryEngine& engine = *opened.value().engine();
    for (std::size_t i = 0; i < order->size(); ++i) {
      EXPECT_EQ(engine.PosForId(static_cast<std::int64_t>((*order)[i].id)), i);
    }
    EXPECT_EQ(opened.value().Digest(), built.Digest());
    ExpectSameAnswers(opened.value(), built, /*hum_seed=*/43, /*hums=*/12);
  }

  // A duplicated id, with its frame and normal form copied along so every
  // section agrees with the id list, is corruption.
  std::vector<ImageRow> duplicated = rows;
  duplicated[1] = duplicated[0];
  Result<QbhSystem> dup = ParseQbhDatabase(WithRows(image, duplicated));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), Status::Code::kCorruption)
      << dup.status().ToString();
}

TEST(StorageV3Test, TombstonesAndNextIdSurviveTheBinaryRoundTrip) {
  std::string path = ::testing::TempDir() + "/v3_tombstones.db";
  Env* env = Env::Default();
  QbhSystem system = MakeSystem(V3Options(), 6, /*seed=*/13);
  ASSERT_TRUE(system.Attach(path, env).ok());
  ASSERT_TRUE(system.Remove(2).ok());
  SongGenerator gen(99);
  for (Melody& m : gen.GeneratePhrases(1)) {
    ASSERT_TRUE(system.Insert(std::move(m)).ok());
  }
  ASSERT_TRUE(system.Checkpoint().ok());

  Result<QbhSystem> reopened = QbhSystem::Open(path, env);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().size(), 6u);
  EXPECT_EQ(reopened.value().next_id(), 7);
  EXPECT_EQ(reopened.value().melody(2), std::nullopt);
  EXPECT_EQ(reopened.value().Digest(), system.Digest());
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

TEST(StorageV3Test, SnapshotShipIsDigestEqual) {
  QbhSystem primary = MakeSystem(V3Options(), 25, /*seed=*/21);
  std::string snapshot = primary.ExportSnapshot();
  EXPECT_TRUE(LooksLikeV3(snapshot));
  // The shipped string is not page-aligned memory; the parser must still
  // serve it (it copies into an aligned owned buffer).
  Result<QbhSystem> replica = ParseQbhDatabase(snapshot);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_EQ(replica.value().Digest(), primary.Digest());
  // Ship the replica's own snapshot onward: still digest-equal.
  Result<QbhSystem> second = ParseQbhDatabase(replica.value().ExportSnapshot());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().Digest(), primary.Digest());
}

TEST(StorageV3Test, SalvageDropsOnlyTheDamagedMelodyFrame) {
  QbhSystem original = MakeSystem(V3Options(), 6, /*seed=*/31);
  std::string image = SerializeQbhDatabase(original);
  // Damage melody 1 by flipping a byte of its name, which is stored raw
  // inside its checksummed frame in the MELODIES section.
  const std::string name = original.melody(1)->name;
  std::size_t at = image.find(name, 4096);
  ASSERT_NE(at, std::string::npos);
  image[at] = static_cast<char>(image[at] ^ 0x40);

  EXPECT_FALSE(ParseQbhDatabase(image).ok());
  SalvageReport report;
  Result<QbhSystem> r = ParseQbhDatabaseSalvage(image, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(report.crc_ok);
  EXPECT_TRUE(report.ids_stable);
  EXPECT_EQ(report.melodies_loaded, 5u);
  EXPECT_EQ(report.melodies_dropped, 1u);
  EXPECT_EQ(r.value().melody(1), std::nullopt);
  EXPECT_EQ(r.value().melody(2)->name, original.melody(2)->name);
  EXPECT_EQ(r.value().next_id(), original.next_id());
}

TEST(StorageV3Test, SalvageRebuildsDamagedDerivedSections) {
  // Damage in a derived section (the R*-tree pages here) loses nothing:
  // salvage rebuilds every derived structure from the per-frame-checksummed
  // melodies, and the rebuilt system answers exactly like the original.
  QbhSystem original = MakeSystem(V3Options(), 12, /*seed=*/41);
  std::string image = SerializeQbhDatabase(original);
  SectionSpan index_sec = FindSection(image, /*kSecIndex=*/10);
  ASSERT_GT(index_sec.length, 0u);
  std::size_t at =
      static_cast<std::size_t>(index_sec.offset + index_sec.length / 2);
  image[at] = static_cast<char>(image[at] ^ 0x01);

  EXPECT_FALSE(ParseQbhDatabase(image).ok());
  SalvageReport report;
  Result<QbhSystem> r = ParseQbhDatabaseSalvage(image, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(report.melodies_loaded, 12u);
  EXPECT_EQ(report.melodies_dropped, 0u);
  EXPECT_EQ(r.value().Digest(), original.Digest());
  ExpectSameAnswers(original, r.value(), /*hum_seed=*/17, /*hums=*/3);
}

TEST(StorageV3Test, SalvageSurvivesADestroyedSectionTable) {
  QbhSystem original = MakeSystem(V3Options(), 5, /*seed=*/51);
  std::string image = SerializeQbhDatabase(original);
  image[56] = static_cast<char>(image[56] ^ 0xff);  // table_crc byte

  EXPECT_FALSE(ParseQbhDatabase(image).ok());
  SalvageReport report;
  Result<QbhSystem> r = ParseQbhDatabaseSalvage(image, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(report.crc_ok);
  EXPECT_EQ(report.melodies_loaded, 5u);
  EXPECT_EQ(r.value().Digest(), original.Digest());
}

TEST(StorageV3Test, OpenSalvageRecoversADamagedV3Checkpoint) {
  Env* env = Env::Default();
  std::string path = ::testing::TempDir() + "/v3_salvage.db";
  QbhSystem original = MakeSystem(V3Options(), 6, /*seed=*/61);
  ASSERT_TRUE(original.Attach(path, env).ok());

  std::string image;
  ASSERT_TRUE(env->ReadFile(path, &image).ok());
  const std::string name = original.melody(4)->name;
  std::size_t at = image.find(name, 4096);
  ASSERT_NE(at, std::string::npos);
  image[at] = static_cast<char>(image[at] ^ 0x20);
  ASSERT_TRUE(env->AtomicWriteFile(path, image).ok());

  ASSERT_FALSE(QbhSystem::Open(path, env).ok());
  RecoveryStats stats;
  Result<QbhSystem> r = QbhSystem::OpenSalvage(path, env, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(stats.salvaged);
  EXPECT_TRUE(stats.ids_stable);
  EXPECT_EQ(stats.melodies_dropped, 1u);
  EXPECT_GT(stats.open_ns, 0u);
  EXPECT_EQ(r.value().size(), 5u);
  EXPECT_EQ(r.value().melody(4), std::nullopt);
  env->Delete(path);
  env->Delete(QbhSystem::WalPathFor(path));
}

TEST(StorageV3Test, MappedOpenRetriesTransientReadFaults) {
  FaultInjectingEnv env;
  std::string path = ::testing::TempDir() + "/v3_transient.db";
  QbhSystem original = MakeSystem(V3Options(), 8, /*seed=*/71);
  ASSERT_TRUE(SaveQbhDatabase(path, original, &env).ok());

  env.FailNextReads(2);  // default policy retries up to 3 attempts
  Result<QbhSystem> r = LoadQbhDatabase(path, &env);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Digest(), original.Digest());
  env.Delete(path);
}

TEST(StorageV3Test, TruncatedMappedReadSurfacesAsCorruption) {
  FaultInjectingEnv env;
  std::string path = ::testing::TempDir() + "/v3_truncated.db";
  QbhSystem original = MakeSystem(V3Options(), 8, /*seed=*/81);
  ASSERT_TRUE(SaveQbhDatabase(path, original, &env).ok());
  std::string image = SerializeQbhDatabase(original);

  env.TruncateNextRead(image.size() / 2);
  Result<QbhSystem> r = LoadQbhDatabase(path, &env);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  env.Delete(path);
}

TEST(StorageV3Test, CrashAtEveryWriteStepPreservesTheOldV3Database) {
  FaultInjectingEnv env;
  std::string path = ::testing::TempDir() + "/v3_crash.db";
  QbhSystem db1 = MakeSystem(V3Options(), 4, /*seed=*/91);
  QbhSystem db2 = MakeSystem(V3Options(), 7, /*seed=*/92);
  ASSERT_TRUE(SaveQbhDatabase(path, db1, &env).ok());
  std::string db1_bytes;
  ASSERT_TRUE(env.ReadFile(path, &db1_bytes).ok());
  ASSERT_TRUE(LooksLikeV3(db1_bytes));

  using WS = FaultInjectingEnv::WriteStep;
  for (WS step : {WS::kOpenTemp, WS::kWriteBody, WS::kSync, WS::kRename}) {
    env.CrashNextWriteAt(step, /*torn_bytes=*/db1_bytes.size() / 3);
    EXPECT_EQ(SaveQbhDatabase(path, db2, &env).code(),
              Status::Code::kIoError)
        << "crash step " << static_cast<int>(step);
    std::string after;
    ASSERT_TRUE(env.ReadFile(path, &after).ok());
    EXPECT_EQ(after, db1_bytes) << "crash step " << static_cast<int>(step);
    Result<QbhSystem> r = LoadQbhDatabase(path, &env);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().Digest(), db1.Digest());
  }
  env.Delete(path);
  env.Delete(path + ".tmp");
}

TEST(StorageV3Test, SectionsArePageAlignedAndExactlySized) {
  QbhSystem system = MakeSystem(V3Options(), 10);
  std::string image = SerializeQbhDatabase(system);
  ASSERT_GE(image.size(), 4096u);
  EXPECT_EQ(LoadU64(image, 24), image.size());  // header file_size is exact
  EXPECT_EQ(LoadU64(image, 40), 10u);           // melody_count
  std::vector<SectionSpan> secs = SectionsOf(image);
  ASSERT_FALSE(secs.empty());
  std::uint64_t prev_end = 4096;
  for (const SectionSpan& s : secs) {
    EXPECT_EQ(s.offset % 4096, 0u) << "section type " << s.type;
    EXPECT_GE(s.offset, prev_end);
    prev_end = s.offset + s.length;
  }
  EXPECT_EQ(prev_end, image.size());  // no trailing pad after the last section
}

TEST(StorageV3Test, WriterEmitsNoEnvelopesSection) {
  // Envelopes are derived from NORMALS at open, so the image carries none.
  const std::string image = SerializeQbhDatabase(MakeSystem(V3Options(), 10));
  for (const SectionSpan& s : SectionsOf(image)) {
    EXPECT_NE(s.type, 6u) << "ENVELOPES section written";
  }
}

TEST(StorageV3Test, SmallImageAnnouncingAHugeCorpusFailsWithoutAllocating) {
  // Every image below passes the header checks and names a corpus whose
  // rows would take far more memory than its bytes back. Strict open must
  // refuse each before allocating by the announced size: peak RSS may not
  // grow by the ~128 MiB (or more) those rows would cost.
  const std::string good = SerializeQbhDatabase(MakeSystem(V3Options(), 2));
  auto with = [&](std::uint32_t replace, const std::string& bytes,
                  std::uint64_t count) {
    std::vector<std::pair<std::uint32_t, std::string>> sections;
    for (const SectionSpan& s : SectionsOf(good)) {
      sections.emplace_back(
          s.type, s.type == replace ? bytes : SectionBytes(good, s.type));
    }
    return AssembleV3(sections, count, count);
  };
  auto ids_section = [](std::uint64_t count, std::uint64_t listed) {
    std::string out(8 * (1 + listed), '\0');
    std::memcpy(&out[0], &count, 8);
    for (std::uint64_t i = 0; i < listed; ++i) {
      std::memcpy(&out[8 * (1 + i)], &i, 8);
    }
    return out;
  };
  // An id count of 2^24 - 1 over a two-id list.
  const std::uint64_t huge = (std::uint64_t{1} << 24) - 1;
  const std::string short_ids = with(/*kSecIds=*/2, ids_section(huge, 2), huge);
  // 2^17 listed ids (1 MiB) over the two-series NORMALS section; their rows
  // alone would be 128 MiB.
  const std::uint64_t many = std::uint64_t{1} << 17;
  const std::string short_normals =
      with(/*kSecIds=*/2, ids_section(many, many), many);
  // 128 melodies whose normal forms are 2^16 values long and constant: the
  // codec packs each into a few bytes, so a 2 KB NORMALS section frames and
  // decodes cleanly, yet its rows would take 64 MiB and its envelope rows
  // as much again. Its MELODIES section holds 128 empty frames, so every
  // section frames before any payload is checked.
  const std::uint64_t few = 128;
  const std::size_t long_len = std::size_t{1} << 16;
  std::string constant_normals;
  for (std::uint64_t i = 0; i < few; ++i) {
    codec::EncodeSeries(Series(long_len, 0.25), &constant_normals);
  }
  ASSERT_LT(constant_normals.size(), std::size_t{2048});
  std::string long_options = SectionBytes(good, /*kSecOptions=*/1);
  const std::string len_line = "option normal_len 128\n";
  ASSERT_NE(long_options.find(len_line), std::string::npos);
  long_options.replace(long_options.find(len_line), len_line.size(),
                       "option normal_len 65536\n");
  std::vector<std::pair<std::uint32_t, std::string>> sections;
  for (const SectionSpan& s : SectionsOf(good)) {
    std::string bytes = SectionBytes(good, s.type);
    if (s.type == 1) bytes = long_options;
    if (s.type == 2) bytes = ids_section(few, few);
    if (s.type == 5) bytes = constant_normals;
    if (s.type == 3) bytes = std::string(8 * few, '\0');
    sections.emplace_back(s.type, std::move(bytes));
  }
  const std::string long_constant = AssembleV3(sections, few, few);
  for (const std::string* image :
       {&short_ids, &short_normals, &long_constant}) {
    const std::int64_t peak_before = PeakRssBytes();
    Result<QbhSystem> r = ParseQbhDatabase(*image);
    const std::int64_t growth = PeakRssBytes() - peak_before;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption)
        << r.status().ToString();
    EXPECT_LT(growth, std::int64_t{32} << 20) << r.status().ToString();
  }
}

}  // namespace
}  // namespace humdex
