// Deterministic fuzzing of every parser and of the index under adversarial
// workloads: random garbage must produce clean Status errors (or parse), and
// the structures must never corrupt or crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audio/wav_io.h"
#include "index/rstar_tree.h"
#include "music/hummer.h"
#include "music/melody_io.h"
#include "music/song_generator.h"
#include "qbh/qbh_system.h"
#include "qbh/storage.h"
#include "qbh/wal.h"
#include "serve/protocol.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/random.h"

namespace humdex {
namespace {

std::string RandomBytes(Rng* rng, std::size_t len) {
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->NextBounded(256)));
  }
  return s;
}

std::string RandomTextLines(Rng* rng, std::size_t lines) {
  static const char* kTokens[] = {"melody", "end",   "60",   "1.0",  "abc",
                                  "-5",     "nan",   "inf",  "#x",   "",
                                  "melody a", "1e308", "0.5", "60 1", "60 1 2"};
  std::string s;
  for (std::size_t i = 0; i < lines; ++i) {
    int parts = rng->UniformInt(0, 3);
    for (int p = 0; p < parts; ++p) {
      if (p > 0) s.push_back(' ');
      s += kTokens[rng->NextBounded(15)];
    }
    s.push_back('\n');
  }
  return s;
}

TEST(FuzzTest, ParseMelodiesNeverCrashesOnGarbage) {
  Rng rng(1);
  std::vector<Melody> out;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = RandomBytes(&rng, static_cast<std::size_t>(
                                             rng.UniformInt(0, 500)));
    Status st = ParseMelodies(text, &out);  // must return, never abort
    if (st.ok()) {
      for (const Melody& m : out) EXPECT_FALSE(m.empty());
    }
  }
}

TEST(FuzzTest, ParseMelodiesOnStructuredGarbage) {
  Rng rng(2);
  std::vector<Melody> out;
  int ok_count = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string text = RandomTextLines(&rng, static_cast<std::size_t>(
                                                 rng.UniformInt(0, 20)));
    if (ParseMelodies(text, &out).ok()) {
      ++ok_count;
      // Whatever parses must re-serialize and re-parse identically.
      std::vector<Melody> again;
      EXPECT_TRUE(ParseMelodies(SerializeMelodies(out), &again).ok());
      EXPECT_EQ(again.size(), out.size());
    }
  }
  // Structured garbage should occasionally parse (empty corpus at least).
  EXPECT_GT(ok_count, 0);
}

TEST(FuzzTest, DecodeWavNeverCrashesOnGarbage) {
  Rng rng(3);
  WavData out;
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes = RandomBytes(&rng, static_cast<std::size_t>(
                                              rng.UniformInt(0, 300)));
    DecodeWav(bytes, &out);  // Status either way; no crash
  }
}

TEST(FuzzTest, DecodeWavOnMutatedValidFiles) {
  Rng rng(4);
  Series samples(200, 0.25);
  std::string good = EncodeWav(samples, 8000);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = good;
    int flips = rng.UniformInt(1, 8);
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = rng.NextBounded(static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] = static_cast<char>(rng.NextBounded(256));
    }
    WavData out;
    Status st = DecodeWav(mutated, &out);
    if (st.ok()) {
      // If it still decodes, the payload must be bounded.
      for (double v : out.samples) {
        EXPECT_GE(v, -1.001);
        EXPECT_LE(v, 1.001);
      }
    }
  }
}

TEST(FuzzTest, ParseQbhDatabaseNeverCrashes) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = "humdex-db v1\n" +
                       RandomTextLines(&rng, static_cast<std::size_t>(
                                                 rng.UniformInt(0, 15)));
    ParseQbhDatabase(text);  // Result either way; no crash
  }
}

std::string ValidV2Database() {
  SongGenerator gen(21);
  QbhSystem system;
  for (Melody& m : gen.GeneratePhrases(4)) system.AddMelody(std::move(m));
  system.Build();
  return SerializeQbhDatabase(system);
}

TEST(FuzzTest, ParseQbhDatabaseV2OnMutatedValidFiles) {
  Rng rng(6);
  const std::string good = ValidV2Database();
  ASSERT_TRUE(ParseQbhDatabase(good).ok());
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    int edits = rng.UniformInt(1, 6);
    for (int e = 0; e < edits; ++e) {
      std::size_t pos =
          rng.NextBounded(static_cast<std::uint32_t>(mutated.size()));
      switch (rng.NextBounded(3)) {
        case 0:  // byte replacement
          mutated[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 1:  // truncation
          mutated.resize(pos);
          break;
        default:  // garbage insertion
          mutated.insert(pos, RandomBytes(&rng, 1 + rng.NextBounded(8)));
          break;
      }
      if (mutated.empty()) break;
    }
    if (mutated == good) continue;
    // Must never crash; a mutated checksummed file that still parses is a
    // (vanishingly unlikely) CRC collision, so just require no crash here and
    // leave single-edit guarantees to corruption_test.
    ParseQbhDatabase(mutated);
  }
}

TEST(FuzzTest, SalvageNeverCrashesAndKeepsItsPromises) {
  Rng rng(7);
  const std::string good = ValidV2Database();
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    if (trial % 3 == 0) {
      text = "humdex-db v2\n" +
             RandomTextLines(&rng,
                             static_cast<std::size_t>(rng.UniformInt(0, 15)));
    } else {
      text = good;
      int edits = rng.UniformInt(1, 10);
      for (int e = 0; e < edits && !text.empty(); ++e) {
        std::size_t pos =
            rng.NextBounded(static_cast<std::uint32_t>(text.size()));
        if (rng.NextBounded(4) == 0) {
          text.resize(pos);
        } else {
          text[pos] = static_cast<char>(rng.NextBounded(256));
        }
      }
    }
    SalvageReport report;
    Result<QbhSystem> r = ParseQbhDatabaseSalvage(text, &report);
    if (r.ok()) {
      // A successful salvage must hand back a usable, non-empty system whose
      // size matches the report.
      EXPECT_TRUE(r.value().built());
      EXPECT_GT(r.value().size(), 0u);
      EXPECT_EQ(r.value().size(), report.melodies_loaded);
    }
  }
}

// Re-stamp a v2 body with a valid trailer so the parser reaches the inserted
// lines instead of stopping at the checksum.
std::string WithFreshCrc(std::string body) {
  std::size_t tpos = body.rfind("\ncrc32c ");
  if (tpos != std::string::npos) body.resize(tpos + 1);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "crc32c %08x\n", Crc32c(body));
  return body + buf;
}

// Files written before the LB_Triangle stages were removed carry an
// `option pivots` / `pivot` block that both loaders skip. Lines of that block,
// well-formed or not, interleaved behind a VALID checksum anywhere from the
// option header on: strict parse may reject, salvage must still produce a
// usable system or a clean error, and neither may crash.
TEST(FuzzTest, FuzzedPivotBlocksNeverCrash) {
  Rng rng(11);
  const std::string good = ValidV2Database();
  const std::size_t block = good.find("option ");
  ASSERT_NE(block, std::string::npos);
  static const char* kPivotTokens[] = {
      "pivot",          "pivot 1 2 3", "pivot nan",     "option pivots 2",
      "option pivots",  "pivot -1e308", "pivot 0",      "pivotx 1",
      "option pivots 999999999999999999999999", "pivot inf inf"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = good;
    int edits = rng.UniformInt(1, 5);
    for (int e = 0; e < edits; ++e) {
      std::string line = kPivotTokens[rng.NextBounded(10)];
      line.push_back('\n');
      // Insert at a random line boundary at or after the option header.
      std::size_t pos = block + rng.NextBounded(static_cast<std::uint32_t>(
                                    good.size() - block));
      pos = text.find('\n', pos);
      if (pos == std::string::npos) break;
      text.insert(pos + 1, line);
    }
    ParseQbhDatabase(WithFreshCrc(text));  // any Status; no crash
    SalvageReport report;
    Result<QbhSystem> s = ParseQbhDatabaseSalvage(WithFreshCrc(text), &report);
    if (s.ok()) {
      EXPECT_TRUE(s.value().built());
      EXPECT_EQ(s.value().size(), report.melodies_loaded);
    }
  }
}

TEST(FuzzTest, WalParseRecordsNeverCrashesOnGarbage) {
  Rng rng(31);
  WalReadResult rr;
  for (int trial = 0; trial < 800; ++trial) {
    std::string bytes = RandomBytes(
        &rng, static_cast<std::size_t>(rng.UniformInt(0, 400)));
    WriteAheadLog::ParseRecords(bytes, &rr);  // must return, never abort
    EXPECT_LE(rr.valid_bytes, bytes.size());
    EXPECT_EQ(rr.valid_bytes + rr.dropped_bytes, bytes.size());
  }
}

TEST(FuzzTest, WalScanOnMutatedValidLogs) {
  // Truncations and bit flips of a well-formed log: the scan must keep every
  // record before the damage, drop everything at or after it, and never
  // return a payload that was not appended.
  Rng rng(32);
  std::vector<std::string> payloads = {"insert 0\nmelody a\n60 1\nend\n",
                                       "remove 0\n", "", "short",
                                       std::string(300, 'x')};
  std::string good;
  for (const std::string& p : payloads) good += WriteAheadLog::FrameRecord(p);
  for (int trial = 0; trial < 800; ++trial) {
    std::string mutated = good;
    if (trial % 2 == 0) {
      mutated.resize(rng.NextBounded(
          static_cast<std::uint32_t>(mutated.size()) + 1));  // torn tail
    } else {
      std::size_t pos =
          rng.NextBounded(static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] ^= static_cast<char>(1 + rng.NextBounded(255));  // bit flip
    }
    WalReadResult rr;
    WriteAheadLog::ParseRecords(mutated, &rr);
    ASSERT_LE(rr.payloads.size(), payloads.size());
    for (std::size_t i = 0; i < rr.payloads.size(); ++i) {
      // A surviving record is a *prefix* run: record i is exactly payload i.
      EXPECT_EQ(rr.payloads[i], payloads[i]);
    }
    if (mutated.size() < good.size() || mutated != good) {
      EXPECT_LE(rr.valid_bytes, mutated.size());
    }
  }
}

TEST(FuzzTest, DecodeWalMutationNeverCrashesOnGarbage) {
  Rng rng(33);
  WalMutation out;
  for (int trial = 0; trial < 800; ++trial) {
    std::string payload;
    if (trial % 3 == 0) {
      payload = (rng.NextBounded(2) ? "insert " : "remove ") +
                RandomTextLines(&rng,
                                static_cast<std::size_t>(rng.UniformInt(0, 6)));
    } else {
      payload = RandomBytes(
          &rng, static_cast<std::size_t>(rng.UniformInt(0, 200)));
    }
    Status st = DecodeWalMutation(payload, &out);  // Status either way
    if (st.ok() && out.kind == WalMutation::Kind::kInsert) {
      EXPECT_FALSE(out.melody.empty());
      EXPECT_GE(out.id, 0);
    }
  }
}

TEST(FuzzTest, RecoveryNeverCrashesOnFuzzedWalFiles) {
  // End to end: a valid checkpoint plus a fuzzed log file. Open() must
  // either recover a working system (never replaying a corrupt record) or
  // fail with a clean Status — and the checkpointed melodies survive intact.
  Rng rng(34);
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "fuzz_recovery.db";
  const std::string wal_path = QbhSystem::WalPathFor(path);
  {
    SongGenerator gen(35);
    QbhSystem system;
    for (Melody& m : gen.GeneratePhrases(5)) system.AddMelody(std::move(m));
    system.Build();
    ASSERT_TRUE(SaveQbhDatabase(path, system, env).ok());
  }
  WalMutation valid;
  valid.kind = WalMutation::Kind::kInsert;
  valid.id = 5;
  valid.melody.name = "valid tail";
  valid.melody.notes = {{60, 1}, {64, 1}, {67, 2}};
  const std::string valid_frame =
      WriteAheadLog::FrameRecord(EncodeWalMutation(valid));

  for (int trial = 0; trial < 60; ++trial) {
    std::string log_bytes;
    switch (trial % 4) {
      case 0:  // pure garbage
        log_bytes = RandomBytes(
            &rng, static_cast<std::size_t>(rng.UniformInt(0, 300)));
        break;
      case 1:  // valid record + torn copy of another
        log_bytes = valid_frame +
                    valid_frame.substr(0, rng.NextBounded(static_cast<
                                              std::uint32_t>(valid_frame.size())));
        break;
      case 2: {  // valid record with one flipped bit
        log_bytes = valid_frame;
        std::size_t pos =
            rng.NextBounded(static_cast<std::uint32_t>(log_bytes.size()));
        log_bytes[pos] ^= 0x20;
        break;
      }
      default:  // well-framed garbage payloads
        log_bytes = WriteAheadLog::FrameRecord(RandomBytes(
            &rng, static_cast<std::size_t>(rng.UniformInt(0, 80))));
        break;
    }
    ASSERT_TRUE(env->AtomicWriteFile(wal_path, log_bytes).ok());
    Result<QbhSystem> r = QbhSystem::Open(path, env);
    ASSERT_TRUE(r.ok());  // checkpoint is intact, so recovery must succeed
    EXPECT_GE(r.value().size(), 5u);
    for (std::int64_t id = 0; id < 5; ++id) {
      EXPECT_TRUE(r.value().melody(id).has_value());
    }
  }
}

TEST(FuzzTest, RStarTreeAdversarialInsertOrders) {
  // Sorted, reverse-sorted, duplicate-heavy, and clustered insert orders all
  // keep the invariants.
  for (int mode = 0; mode < 4; ++mode) {
    Rng rng(10 + mode);
    RStarTree tree(3);
    for (std::int64_t id = 0; id < 3000; ++id) {
      Series p(3);
      switch (mode) {
        case 0:  // sorted along a line
          p = {static_cast<double>(id), static_cast<double>(id) * 0.5, 0.0};
          break;
        case 1:  // reverse sorted
          p = {static_cast<double>(3000 - id), 0.0, static_cast<double>(id % 7)};
          break;
        case 2:  // heavy duplicates
          p = {static_cast<double>(id % 5), static_cast<double>(id % 3), 1.0};
          break;
        default:  // tight clusters far apart
          p = {rng.Gaussian(static_cast<double>(id % 10) * 1000.0, 0.01),
               rng.Gaussian(), rng.Gaussian()};
          break;
      }
      tree.Insert(p, id);
    }
    tree.CheckInvariants();
    EXPECT_EQ(tree.size(), 3000u);
    // Everything must be retrievable.
    IndexStats stats;
    auto all = tree.RangeQuery(Rect(Series(3, -1e7), Series(3, 1e7)), 0.0, &stats);
    EXPECT_EQ(all.size(), 3000u) << "mode=" << mode;
  }
}

// --- Wire protocol -----------------------------------------------------------
//
// The serving daemon's wire surface: length-prefixed frames and the text
// request/response grammar. Hostile bytes — bad announced lengths, truncated
// bodies, non-UTF8 verbs, mutated real frames — must always come back as a
// Status (or a clean parse), never an abort: the daemon outlives any client.

TEST(FuzzTest, DecodeFrameNeverCrashesOnGarbage) {
  Rng rng(13);
  for (int trial = 0; trial < 800; ++trial) {
    const std::string buffer =
        RandomBytes(&rng, static_cast<std::size_t>(rng.UniformInt(0, 64)));
    std::string payload;
    std::size_t consumed = 0;
    bool complete = false;
    Status st = serve::DecodeFrame(buffer, &payload, &consumed, &complete);
    if (st.ok() && complete) {
      EXPECT_LE(consumed, buffer.size());
      EXPECT_LE(payload.size(), serve::kMaxFrameBytes);
    }
  }
}

TEST(FuzzTest, DecodeFrameRejectsHostileAnnouncedLengths) {
  // Headers announcing more than kMaxFrameBytes (up to 4GB) must be refused
  // before any allocation; truncated bodies must simply read as incomplete.
  for (std::uint32_t n :
       {serve::kMaxFrameBytes + 1, 0x7fffffffu, 0xffffffffu}) {
    std::string buffer;
    buffer.push_back(static_cast<char>(n & 0xff));
    buffer.push_back(static_cast<char>((n >> 8) & 0xff));
    buffer.push_back(static_cast<char>((n >> 16) & 0xff));
    buffer.push_back(static_cast<char>((n >> 24) & 0xff));
    buffer += "body";
    std::string payload;
    std::size_t consumed = 0;
    bool complete = false;
    EXPECT_FALSE(
        serve::DecodeFrame(buffer, &payload, &consumed, &complete).ok());
  }
  // An honest header with a short body: incomplete, not an error.
  std::string truncated = serve::EncodeFrame("hello world");
  truncated.resize(truncated.size() - 5);
  std::string payload;
  std::size_t consumed = 0;
  bool complete = false;
  EXPECT_TRUE(
      serve::DecodeFrame(truncated, &payload, &consumed, &complete).ok());
  EXPECT_FALSE(complete);
}

TEST(FuzzTest, ParseRequestNeverCrashesOnGarbage) {
  Rng rng(14);
  serve::Request request;
  for (int trial = 0; trial < 800; ++trial) {
    const std::string payload =
        RandomBytes(&rng, static_cast<std::size_t>(rng.UniformInt(0, 200)));
    Status st = serve::ParseRequest(payload, &request);  // never aborts
    (void)st;
  }
  // Non-UTF8 verbs and embedded NULs are errors, not crashes.
  for (const std::string payload :
       {std::string("\xc3\x28 5 0\npitch 1 2\n"),
        std::string("qu\x00" "ery 5 0\n", 10),
        std::string("\xff\xfe\xfd\n"), std::string("query \xf0\x9f 0\n")}) {
    EXPECT_FALSE(serve::ParseRequest(payload, &request).ok());
  }
}

TEST(FuzzTest, ParseRequestOnMutatedValidFrames) {
  Rng rng(15);
  serve::Request seed;
  seed.kind = serve::Request::Kind::kQuery;
  seed.top_k = 5;
  seed.deadline_ms = 40;
  for (double v : {60.0, 62.5, 59.1, 64.0, 61.2}) seed.pitch.push_back(v);
  const std::string valid = serve::EncodeRequest(seed);
  serve::Request out;
  for (int trial = 0; trial < 800; ++trial) {
    std::string text = valid;
    const int mutations = rng.UniformInt(1, 6);
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(3)) {
        case 0:  // flip a byte (possibly to a non-ASCII value)
          text[static_cast<std::size_t>(rng.NextBounded(
              static_cast<std::uint64_t>(text.size())))] =
              static_cast<char>(rng.NextBounded(256));
          break;
        case 1:  // truncate
          text.resize(static_cast<std::size_t>(rng.NextBounded(
              static_cast<std::uint64_t>(text.size()) + 1)));
          break;
        default:  // duplicate a tail chunk
          text += text.substr(text.size() / 2);
          break;
      }
      if (text.empty()) break;
    }
    Status st = serve::ParseRequest(text, &out);  // Status or parse, only
    (void)st;
  }
}

TEST(FuzzTest, ParseResponseNeverCrashesOnGarbageOrMutations) {
  Rng rng(16);
  serve::Response seed;
  seed.ok = true;
  seed.partial = true;
  seed.shards_failed = 1;
  for (int i = 0; i < 4; ++i) {
    QbhMatch m;
    m.id = i;
    m.distance = 1.5 * i;
    m.name = "melody-" + std::to_string(i);
    seed.matches.push_back(m);
  }
  const std::string valid = serve::EncodeResponse(seed);
  serve::Response out;
  for (int trial = 0; trial < 800; ++trial) {
    std::string text =
        trial % 2 == 0
            ? RandomBytes(&rng,
                          static_cast<std::size_t>(rng.UniformInt(0, 200)))
            : valid;
    if (trial % 2 == 1 && !text.empty()) {
      text[static_cast<std::size_t>(rng.NextBounded(
          static_cast<std::uint64_t>(text.size())))] =
          static_cast<char>(rng.NextBounded(256));
    }
    Status st = serve::ParseResponse(text, &out);
    (void)st;
  }
}

// Applies 1-3 seeded byte flips, inserts and truncations to `valid`.
std::string MutateFrame(Rng* rng, const std::string& valid) {
  std::string text = valid;
  const int mutations = rng->UniformInt(1, 3);
  for (int m = 0; m < mutations && !text.empty(); ++m) {
    const std::size_t pos = static_cast<std::size_t>(
        rng->NextBounded(static_cast<std::uint32_t>(text.size())));
    switch (rng->NextBounded(3)) {
      case 0:  // flip a byte (possibly to a non-ASCII value or a NUL)
        text[pos] = static_cast<char>(rng->NextBounded(256));
        break;
      case 1:  // insert a short random run
        text.insert(pos, RandomBytes(rng, 1 + rng->NextBounded(8)));
        break;
      default:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

// The codec walks raw pointers over the payload, so each mutated frame sits
// in a heap block of exactly its size: under ASan, a read one byte past the
// end is a heap-buffer-overflow, not a read of std::string's spare capacity.
TEST(FuzzTest, CodecSurvivesMutatedRealHumAndMatchFrames) {
  SongGenerator gen(18);
  const std::vector<Melody> phrases = gen.GeneratePhrases(31);
  Hummer hummer(HummerProfile::Good(), 18);
  serve::Request query;
  query.kind = serve::Request::Kind::kRange;
  query.epsilon = 3.5;
  query.deadline_ms = 250;
  query.pitch = hummer.Hum(phrases[0]);
  serve::Response answer;
  answer.ok = true;
  for (std::size_t i = 0; i < phrases.size(); ++i) {
    QbhMatch m;
    m.id = static_cast<std::int64_t>(i * 37);
    m.distance = 0.25 + 1.0 / static_cast<double>(i + 3);
    m.name = "phrase " + std::to_string(i) + " (take 2)";
    answer.matches.push_back(m);
  }
  const std::string request_text = serve::EncodeRequest(query);
  const std::string response_text = serve::EncodeResponse(answer);
  serve::Request request;
  serve::Response response;
  ASSERT_TRUE(serve::ParseRequest(request_text, &request).ok());
  ASSERT_EQ(request.pitch, query.pitch);
  ASSERT_TRUE(serve::ParseResponse(response_text, &response).ok());
  ASSERT_EQ(response.matches.size(), 31u);

  Rng rng(19);
  int requests_ok = 0;
  int responses_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    for (const bool is_request : {true, false}) {
      const std::string text =
          MutateFrame(&rng, is_request ? request_text : response_text);
      std::unique_ptr<char[]> exact(new char[text.size()]);
      std::memcpy(exact.get(), text.data(), text.size());
      const std::string_view payload(exact.get(), text.size());
      // A Status or a parse, never an abort or an out-of-bounds read.
      if (is_request) {
        requests_ok += serve::ParseRequest(payload, &request).ok();
      } else {
        responses_ok += serve::ParseResponse(payload, &response).ok();
        EXPECT_LE(response.matches.capacity(), text.size());
      }
    }
  }
  // Most truncations and many flips leave a well-formed frame, so both
  // accept paths ran too.
  EXPECT_GT(requests_ok, 0);
  EXPECT_GT(responses_ok, 0);
}

TEST(FuzzTest, FrameRoundTripSurvivesRandomPayloads) {
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string payload =
        RandomBytes(&rng, static_cast<std::size_t>(rng.UniformInt(0, 300)));
    const std::string frame = serve::EncodeFrame(payload);
    std::string decoded;
    std::size_t consumed = 0;
    bool complete = false;
    ASSERT_TRUE(
        serve::DecodeFrame(frame, &decoded, &consumed, &complete).ok());
    ASSERT_TRUE(complete);
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(decoded, payload);
  }
}

TEST(FuzzTest, GridFileAdversarialInsertOrders) {
  GridFile grid(2);
  for (std::int64_t id = 0; id < 5000; ++id) {
    // All points identical: splits can make no progress and must not loop.
    grid.Insert({1.0, 1.0}, id);
  }
  EXPECT_EQ(grid.size(), 5000u);
  auto all = grid.RangeQuery(Rect::FromPoint({1.0, 1.0}), 0.0);
  EXPECT_EQ(all.size(), 5000u);
}

}  // namespace
}  // namespace humdex
