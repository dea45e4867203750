// Checkpoints written before the LB_Triangle, Kim and LB_Improved cascade
// stages were removed (DESIGN.md §11). Both fixtures under tests/data/ hold
// the same corpus — 30 SongGenerator(2003) phrases, default QbhOptions —
// saved by the last writer that still emitted the removed stages' data:
//
//   legacy_v2_pivots.db     v2 text with an `option pivots 4` block;
//   legacy_v3_pivots_meta.db v3 image with PIVOTS (4), META (7) and
//                            PIVOTROWS (8) sections, and the stored
//                            ENVELOPES (6) today's writer derives at open
//                            instead.
//
// The current loaders must open both, strictly and by salvage, ignore the
// removed stages' data and the stored envelopes (checksummed all the same),
// and answer bit-identically to a fresh build of the same corpus.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "music/hummer.h"
#include "qbh/qbh_system.h"
#include "qbh/storage_v3.h"

namespace humdex {
namespace {

constexpr std::size_t kFixtureMelodies = 30;

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(HUMDEX_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A private copy of the fixture: Open attaches a write-ahead log next to
/// the checkpoint, which must never land in the source tree.
std::string CopyToTemp(const std::string& name, const std::string& bytes) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "humdex_legacy_checkpoint_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / name).string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".wal");
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

/// The section types in a v3 image's table (layout in qbh/storage_v3.h).
std::set<std::uint32_t> SectionTypes(const std::string& image) {
  std::set<std::uint32_t> types;
  std::uint32_t count = 0;
  std::memcpy(&count, image.data() + 16, sizeof count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t type = 0;
    std::memcpy(&type, image.data() + 64 + 32 * static_cast<std::size_t>(i),
                sizeof type);
    types.insert(type);
  }
  return types;
}

/// The same corpus, ids and options, built from scratch by the current code.
QbhSystem FreshBuildOf(const QbhSystem& loaded) {
  QbhSystem fresh(loaded.options());
  auto slots = loaded.CorpusSnapshot();
  for (std::size_t id = 0; id < slots.size(); ++id) {
    if (!slots[id].has_value()) continue;
    EXPECT_TRUE(
        fresh.AddMelodyWithId(*slots[id], static_cast<std::int64_t>(id)).ok());
  }
  fresh.ReserveIds(loaded.next_id());
  fresh.Build();
  return fresh;
}

void ExpectSameAnswers(const QbhSystem& got, const QbhSystem& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), kFixtureMelodies) << what;
  ASSERT_EQ(got.Digest(), want.Digest()) << what;
  Hummer hummer(HummerProfile::Good(), 17);
  for (std::int64_t target = 0; target < std::int64_t{kFixtureMelodies};
       target += 3) {
    Series hum = hummer.Hum(*want.melody(target));
    auto knn_got = got.Query(hum, 5);
    auto knn_want = want.Query(hum, 5);
    ASSERT_EQ(knn_got.size(), knn_want.size()) << what;
    for (std::size_t i = 0; i < knn_got.size(); ++i) {
      EXPECT_EQ(knn_got[i].id, knn_want[i].id) << what << " rank " << i;
      EXPECT_EQ(knn_got[i].distance, knn_want[i].distance) << what;
    }
    ASSERT_FALSE(knn_want.empty());
    const double eps = knn_want.back().distance * 1.5 + 1.0;
    auto range_got = got.RangeQuery(hum, eps);
    auto range_want = want.RangeQuery(hum, eps);
    ASSERT_EQ(range_got.size(), range_want.size()) << what;
    for (std::size_t i = 0; i < range_got.size(); ++i) {
      EXPECT_EQ(range_got[i].id, range_want[i].id) << what;
      EXPECT_EQ(range_got[i].distance, range_want[i].distance) << what;
    }
  }
}

void ExpectOpensLikeAFreshBuild(const std::string& name,
                                const std::string& bytes) {
  const std::string path = CopyToTemp(name, bytes);
  RecoveryStats stats;
  auto opened = QbhSystem::Open(path, nullptr, &stats);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  QbhSystem fresh = FreshBuildOf(opened.value());
  ExpectSameAnswers(opened.value(), fresh, name + " Open");

  RecoveryStats salvage_stats;
  auto salvaged = QbhSystem::OpenSalvage(path, nullptr, &salvage_stats);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_EQ(salvage_stats.melodies_dropped, 0u);
  EXPECT_TRUE(salvage_stats.ids_stable);
  ExpectSameAnswers(salvaged.value(), fresh, name + " OpenSalvage");
}

TEST(StorageLegacyTest, V2FileWithPivotBlockOpensLikeAFreshBuild) {
  const std::string bytes = ReadFixture("legacy_v2_pivots.db");
  // The fixture must still carry what it exists to exercise.
  ASSERT_EQ(bytes.rfind("humdex-db v2\n", 0), 0u);
  ASSERT_NE(bytes.find("\noption pivots 4\n"), std::string::npos);
  ASSERT_NE(bytes.find("\npivot "), std::string::npos);
  ExpectOpensLikeAFreshBuild("legacy_v2_pivots.db", bytes);
}

TEST(StorageLegacyTest, V3ImageWithRemovedSectionsOpensLikeAFreshBuild) {
  const std::string bytes = ReadFixture("legacy_v3_pivots_meta.db");
  ASSERT_TRUE(LooksLikeV3(bytes));
  const std::set<std::uint32_t> types = SectionTypes(bytes);
  ASSERT_TRUE(types.count(4) && types.count(7) && types.count(8));
  ASSERT_TRUE(types.count(6));
  ExpectOpensLikeAFreshBuild("legacy_v3_pivots_meta.db", bytes);
}

// The stored envelopes are ignored but still checksummed: one flipped byte
// fails the strict open, and salvage — which rebuilds from the melody
// frames — loses nothing.
TEST(StorageLegacyTest, V3ImageWithDamagedEnvelopesFailsStrictAndSalvagesAll) {
  std::string bytes = ReadFixture("legacy_v3_pivots_meta.db");
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 16, sizeof count);
  std::uint64_t offset = 0, length = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* e = bytes.data() + 64 + 32 * static_cast<std::size_t>(i);
    std::uint32_t type = 0;
    std::memcpy(&type, e, sizeof type);
    if (type != 6) continue;
    std::memcpy(&offset, e + 8, sizeof offset);
    std::memcpy(&length, e + 16, sizeof length);
  }
  ASSERT_GT(length, 0u);
  const std::size_t at = static_cast<std::size_t>(offset + length / 3);
  bytes[at] = static_cast<char>(bytes[at] ^ 0x10);

  const std::string path = CopyToTemp("damaged_envelopes.db", bytes);
  auto strict = QbhSystem::Open(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), Status::Code::kCorruption)
      << strict.status().ToString();

  RecoveryStats stats;
  auto salvaged = QbhSystem::OpenSalvage(path, nullptr, &stats);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_EQ(stats.melodies_dropped, 0u);
  EXPECT_TRUE(stats.ids_stable);
  ExpectSameAnswers(salvaged.value(), FreshBuildOf(salvaged.value()),
                    "damaged envelopes OpenSalvage");
}

// Rewriting a legacy checkpoint drops the removed stages' data: the v2 text
// loses its pivot block and the v3 image its three legacy sections and its
// stored envelopes, and the rewritten files still answer like a fresh build.
TEST(StorageLegacyTest, RewriteDropsTheRemovedStagesData) {
  for (const char* name : {"legacy_v2_pivots.db", "legacy_v3_pivots_meta.db"}) {
    const std::string path = CopyToTemp(name, ReadFixture(name));
    auto opened = QbhSystem::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_TRUE(opened.value().Checkpoint().ok());
    std::ifstream in(path, std::ios::binary);
    const std::string rewritten(std::istreambuf_iterator<char>(in), {});
    EXPECT_EQ(rewritten.find("pivot"), std::string::npos) << name;
    if (LooksLikeV3(rewritten)) {
      for (std::uint32_t type : SectionTypes(rewritten)) {
        EXPECT_TRUE(type != 4 && type != 6 && type != 7 && type != 8)
            << name << " " << type;
      }
    }
    auto reopened = QbhSystem::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectSameAnswers(reopened.value(), FreshBuildOf(reopened.value()), name);
  }
}

}  // namespace
}  // namespace humdex
