// Online mutation and crash recovery for QbhSystem: Insert/Remove semantics
// on the live index, tombstone-aware accessors, the abort-free serving path,
// the WAL + checkpoint durability protocol under crash-at-every-step fault
// injection, and writer/reader concurrency (the TSan target).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "music/hummer.h"
#include "music/song_generator.h"
#include "obs/metrics.h"
#include "qbh/qbh_system.h"
#include "qbh/storage.h"
#include "qbh/wal.h"
#include "serve/sharded_engine.h"
#include "util/env.h"

namespace humdex {
namespace {

std::vector<Melody> SmallCorpus(std::size_t count, std::uint64_t seed = 1) {
  SongGenerator gen(seed);
  return gen.GeneratePhrases(count);
}

QbhSystem BuildSystem(const std::vector<Melody>& corpus,
                      QbhOptions opt = QbhOptions()) {
  QbhSystem system(opt);
  for (const Melody& m : corpus) system.AddMelody(m);
  system.Build();
  return system;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

void CleanDb(Env* env, const std::string& path) {
  for (const std::string& p : {path, QbhSystem::WalPathFor(path)}) {
    if (env->Exists(p)) {
      Status st = env->Delete(p);
      (void)st;
    }
  }
}

/// Both systems answer a panel of hums identically: same ids, same names,
/// same distances bit for bit.
void ExpectSameAnswers(const QbhSystem& a, const QbhSystem& b,
                       const std::vector<Melody>& hum_targets) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.next_id(), b.next_id());
  Hummer hummer(HummerProfile::Good(), 99);
  for (const Melody& target : hum_targets) {
    Series hum = hummer.Hum(target);
    auto ra = a.Query(hum, 5);
    auto rb = b.Query(hum, 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_EQ(ra[i].name, rb[i].name);
      EXPECT_EQ(ra[i].distance, rb[i].distance);  // bit-identical
    }
  }
}

// --- In-memory online mutation ----------------------------------------------

TEST(OnlineUpdateTest, InsertedMelodyBecomesQueryable) {
  auto corpus = SmallCorpus(40);
  QbhSystem system = BuildSystem(corpus);
  Melody extra = SmallCorpus(1, 777)[0];
  extra.name = "the new one";

  auto id = system.Insert(extra);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 40);
  EXPECT_EQ(system.size(), 41u);
  ASSERT_TRUE(system.melody(40).has_value());
  EXPECT_EQ(system.melody(40)->name, "the new one");

  Hummer hummer(HummerProfile::Perfect(), 5);
  auto matches = system.Query(hummer.Hum(extra), 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 40);
  EXPECT_EQ(matches[0].name, "the new one");
}

TEST(OnlineUpdateTest, RemovedMelodyVanishesFromQueries) {
  auto corpus = SmallCorpus(40);
  QbhSystem system = BuildSystem(corpus);
  ASSERT_TRUE(system.Remove(12).ok());
  EXPECT_EQ(system.size(), 39u);
  EXPECT_FALSE(system.melody(12).has_value());
  EXPECT_EQ(system.next_id(), 40);  // ids are never reused

  Hummer hummer(HummerProfile::Perfect(), 5);
  auto matches = system.Query(hummer.Hum(corpus[12]), 5);
  for (const QbhMatch& m : matches) EXPECT_NE(m.id, 12);
  EXPECT_EQ(system.RankOf(hummer.Hum(corpus[12]), 12), 0u);
}

TEST(OnlineUpdateTest, InsertNeverReusesRemovedIds) {
  auto corpus = SmallCorpus(10);
  QbhSystem system = BuildSystem(corpus);
  ASSERT_TRUE(system.Remove(9).ok());
  auto id = system.Insert(SmallCorpus(1, 88)[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 10);  // not 9
  EXPECT_FALSE(system.melody(9).has_value());
  ASSERT_TRUE(system.melody(10).has_value());
}

TEST(OnlineUpdateTest, RemoveErrorsAreStatusesNotAborts) {
  auto corpus = SmallCorpus(3);
  QbhSystem system = BuildSystem(corpus);
  EXPECT_EQ(system.Remove(-1).code(), Status::Code::kNotFound);
  EXPECT_EQ(system.Remove(3).code(), Status::Code::kNotFound);
  ASSERT_TRUE(system.Remove(1).ok());
  EXPECT_EQ(system.Remove(1).code(), Status::Code::kNotFound);  // double free
  ASSERT_TRUE(system.Remove(0).ok());
  // The last live melody is not removable: an empty corpus has no valid
  // index or checkpoint form.
  EXPECT_EQ(system.Remove(2).code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(system.size(), 1u);
}

TEST(OnlineUpdateTest, InsertValidatesNotes) {
  auto corpus = SmallCorpus(5);
  QbhSystem system = BuildSystem(corpus);
  Melody empty;
  empty.name = "empty";
  EXPECT_FALSE(system.Insert(empty).ok());
  Melody bad_pitch;
  bad_pitch.notes = {{std::nan(""), 1.0}};
  EXPECT_FALSE(system.Insert(bad_pitch).ok());
  Melody bad_duration;
  bad_duration.notes = {{60.0, 0.0}};
  EXPECT_FALSE(system.Insert(bad_duration).ok());
  EXPECT_EQ(system.size(), 5u);
}

TEST(OnlineUpdateTest, MutationBeforeBuildIsFailedPrecondition) {
  QbhSystem system;
  system.AddMelody(SmallCorpus(1)[0]);
  EXPECT_EQ(system.Insert(SmallCorpus(1, 2)[0]).status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(system.Remove(0).code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(system.Checkpoint().code(), Status::Code::kFailedPrecondition);
}

TEST(OnlineUpdateTest, MelodyAccessorIsTombstoneAware) {
  auto corpus = SmallCorpus(5);
  QbhSystem system = BuildSystem(corpus);
  EXPECT_FALSE(system.melody(-1).has_value());
  EXPECT_FALSE(system.melody(5).has_value());
  ASSERT_TRUE(system.melody(2).has_value());
  ASSERT_TRUE(system.Remove(2).ok());
  EXPECT_FALSE(system.melody(2).has_value());
}

TEST(OnlineUpdateTest, MutatedSystemMatchesFreshlyBuiltEquivalent) {
  auto corpus = SmallCorpus(30);
  QbhSystem mutated = BuildSystem(corpus);
  ASSERT_TRUE(mutated.Remove(4).ok());
  ASSERT_TRUE(mutated.Remove(17).ok());
  Melody extra = SmallCorpus(1, 55)[0];
  ASSERT_TRUE(mutated.Insert(extra).ok());

  // The same corpus assembled offline with identical ids.
  QbhSystem fresh;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (i == 4 || i == 17) continue;
    ASSERT_TRUE(
        fresh.AddMelodyWithId(corpus[i], static_cast<std::int64_t>(i)).ok());
  }
  ASSERT_TRUE(fresh.AddMelodyWithId(extra, 30).ok());
  fresh.Build();

  std::vector<Melody> targets = {corpus[0], corpus[4], corpus[25], extra};
  ExpectSameAnswers(mutated, fresh, targets);
}

// --- Abort-free serving path -------------------------------------------------

TEST(OnlineUpdateTest, UnvoicedHumIsRejectedNotAborted) {
  auto corpus = SmallCorpus(10);
  QbhSystem system = BuildSystem(corpus);
  obs::Counter& rejected =
      obs::MetricsRegistry::Default().GetCounter("qbh.queries_rejected");
  const std::uint64_t before = rejected.value();

  const double kSilent = std::numeric_limits<double>::quiet_NaN();
  QueryStats stats;
  auto matches = system.Query(Series(64, kSilent), 3, &stats);
  EXPECT_TRUE(matches.empty());
  EXPECT_TRUE(stats.rejected);
  EXPECT_TRUE(system.Query(Series(), 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
  EXPECT_GE(rejected.value(), before + 2);
}

TEST(OnlineUpdateTest, NonFiniteHumIsRejectedNotAborted) {
  auto corpus = SmallCorpus(10);
  QbhSystem system = BuildSystem(corpus);
  Series inf_hum(64, 60.0);
  inf_hum[10] = std::numeric_limits<double>::infinity();
  QueryStats stats;
  EXPECT_TRUE(system.Query(inf_hum, 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
  EXPECT_EQ(system.RankOf(inf_hum, 0), 0u);
}

TEST(OnlineUpdateTest, MalformedAudioIsRejectedNotAborted) {
  auto corpus = SmallCorpus(10);
  QbhSystem system = BuildSystem(corpus);
  QueryStats stats;
  EXPECT_TRUE(system.QueryAudio(Series(), 8000.0, 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
  Series pcm(4000, 0.1);
  EXPECT_TRUE(system.QueryAudio(pcm, 0.0, 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
  EXPECT_TRUE(system.QueryAudio(pcm, std::nan(""), 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
  EXPECT_TRUE(system.QueryAudio(pcm, 1e12, 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
  pcm[100] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(system.QueryAudio(pcm, 8000.0, 3, &stats).empty());
  EXPECT_TRUE(stats.rejected);
}

TEST(OnlineUpdateTest, RejectedQueriesInsideBatchDoNotPoisonOthers) {
  auto corpus = SmallCorpus(20);
  QbhSystem system = BuildSystem(corpus);
  Hummer hummer(HummerProfile::Perfect(), 3);
  std::vector<Series> hums = {
      hummer.Hum(corpus[7]),
      Series(32, std::numeric_limits<double>::quiet_NaN()),
      hummer.Hum(corpus[9]),
  };
  QueryStats aggregate;
  auto results = system.QueryBatch(hums, 1, 2, &aggregate);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(results[0].size(), 1u);
  EXPECT_EQ(results[0][0].id, 7);
  EXPECT_TRUE(results[1].empty());
  ASSERT_EQ(results[2].size(), 1u);
  EXPECT_EQ(results[2][0].id, 9);
  EXPECT_TRUE(aggregate.rejected);
}

// --- Durability: WAL + checkpoint + recovery ---------------------------------

TEST(RecoveryTest, OpenReplaysLoggedMutations) {
  FaultInjectingEnv env;
  const std::string path = TempPath("recovery_replay.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(25);
  Melody extra = SmallCorpus(1, 321)[0];
  extra.name = "logged insert";

  QbhSystem live = BuildSystem(corpus);
  ASSERT_TRUE(live.Attach(path, &env).ok());
  EXPECT_TRUE(live.durable());
  ASSERT_TRUE(live.Insert(extra).ok());
  ASSERT_TRUE(live.Remove(3).ok());
  // No Checkpoint: everything past Attach lives only in the log.

  RecoveryStats rs;
  auto reopened = QbhSystem::Open(path, &env, &rs);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rs.records_replayed, 2u);
  EXPECT_EQ(rs.records_skipped, 0u);
  EXPECT_FALSE(rs.torn_tail);
  EXPECT_EQ(reopened.value().size(), 25u);
  EXPECT_FALSE(reopened.value().melody(3).has_value());
  EXPECT_EQ(reopened.value().melody(25)->name, "logged insert");
  ExpectSameAnswers(live, reopened.value(), {corpus[0], corpus[3], extra});
}

TEST(RecoveryTest, CheckpointTruncatesLogAndPreservesState) {
  FaultInjectingEnv env;
  const std::string path = TempPath("recovery_checkpoint.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(25);

  QbhSystem live = BuildSystem(corpus);
  ASSERT_TRUE(live.Attach(path, &env).ok());
  ASSERT_TRUE(live.Insert(SmallCorpus(1, 5)[0]).ok());
  ASSERT_TRUE(live.Remove(7).ok());
  ASSERT_TRUE(live.Checkpoint().ok());

  WalReadResult rr;
  ASSERT_TRUE(
      WriteAheadLog::ReadAll(QbhSystem::WalPathFor(path), &env, &rr).ok());
  EXPECT_TRUE(rr.payloads.empty());  // checkpoint truncated the log

  RecoveryStats rs;
  auto reopened = QbhSystem::Open(path, &env, &rs);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rs.records_replayed, 0u);
  EXPECT_EQ(reopened.value().size(), 25u);
  EXPECT_EQ(reopened.value().next_id(), 26);
  EXPECT_FALSE(reopened.value().melody(7).has_value());
  ExpectSameAnswers(live, reopened.value(), {corpus[0], corpus[24]});
}

TEST(RecoveryTest, TornAppendRecoversPreRecordState) {
  // Crash the append at every prefix length of the frame. Recovery must see
  // exactly the pre-record corpus (record torn) or the post-record corpus
  // (record complete on disk): never anything in between, never a crash.
  auto corpus = SmallCorpus(15);
  Melody extra = SmallCorpus(1, 654)[0];
  extra.name = "maybe lost";

  // The exact bytes the WAL will try to append.
  WalMutation mut;
  mut.kind = WalMutation::Kind::kInsert;
  mut.id = 15;
  mut.melody = extra;
  const std::size_t frame_size =
      WriteAheadLog::FrameRecord(EncodeWalMutation(mut)).size();

  std::vector<std::size_t> torn_points = {0,
                                          1,
                                          5,
                                          21,
                                          22,
                                          frame_size / 2,
                                          frame_size - 1,
                                          frame_size};
  for (std::size_t torn : torn_points) {
    SCOPED_TRACE("torn_bytes=" + std::to_string(torn));
    FaultInjectingEnv env;
    const std::string path = TempPath("recovery_torn.db");
    CleanDb(&env, path);
    QbhSystem live = BuildSystem(corpus);
    ASSERT_TRUE(live.Attach(path, &env).ok());
    env.CrashNextAppendAt(torn);
    auto id = live.Insert(extra);
    ASSERT_FALSE(id.ok());  // the "process" died mid-append

    RecoveryStats rs;
    auto reopened = QbhSystem::Open(path, &env, &rs);
    ASSERT_TRUE(reopened.ok());
    if (torn >= frame_size) {
      // The record landed whole before the crash: post-record state.
      EXPECT_EQ(reopened.value().size(), 16u);
      EXPECT_EQ(reopened.value().melody(15)->name, "maybe lost");
      EXPECT_EQ(rs.records_replayed, 1u);
    } else {
      // Torn: pre-record state, tail dropped and reported.
      EXPECT_EQ(reopened.value().size(), 15u);
      EXPECT_FALSE(reopened.value().melody(15).has_value());
      EXPECT_EQ(rs.records_replayed, 0u);
      EXPECT_EQ(rs.torn_tail, torn > 0);
    }
    // Either way the reopened system serves and mutates normally.
    ASSERT_TRUE(reopened.value().Insert(SmallCorpus(1, 99)[0]).ok());
  }
}

TEST(RecoveryTest, CrashAtEveryCheckpointStepIsRecoverable) {
  // Crash AtomicWriteFile at each pipeline step during Checkpoint, plus the
  // delete between the rename and the truncation. Every debris state must
  // reopen to exactly the pre-checkpoint logical corpus.
  auto corpus = SmallCorpus(15);
  for (int step = -1; step < FaultInjectingEnv::kWriteStepCount; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    FaultInjectingEnv env;
    const std::string path = TempPath("recovery_ckpt_crash.db");
    CleanDb(&env, path);
    QbhSystem live = BuildSystem(corpus);
    ASSERT_TRUE(live.Attach(path, &env).ok());
    Melody extra = SmallCorpus(1, 42)[0];
    extra.name = "pre-checkpoint insert";
    ASSERT_TRUE(live.Insert(extra).ok());
    ASSERT_TRUE(live.Remove(2).ok());

    if (step < 0) {
      // Crash between the checkpoint rename and the log truncation: the new
      // checkpoint already contains the logged mutations, and the stale log
      // must be recognized and skipped, not replayed twice.
      env.FailNextDelete();
      EXPECT_FALSE(live.Checkpoint().ok());
    } else {
      env.CrashNextWriteAt(static_cast<FaultInjectingEnv::WriteStep>(step),
                           step == 1 ? 40 : 0);
      EXPECT_FALSE(live.Checkpoint().ok());
    }

    RecoveryStats rs;
    auto reopened = QbhSystem::Open(path, &env, &rs);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value().size(), 15u);
    EXPECT_FALSE(reopened.value().melody(2).has_value());
    EXPECT_EQ(reopened.value().melody(15)->name, "pre-checkpoint insert");
    if (step < 0) {
      EXPECT_EQ(rs.records_replayed, 0u);
      EXPECT_EQ(rs.records_skipped, 2u);
    } else {
      EXPECT_EQ(rs.records_replayed, 2u);
    }
    ExpectSameAnswers(live, reopened.value(), {corpus[1], corpus[2], extra});
  }
}

TEST(RecoveryTest, TornTailIsRepairedSoNewAppendsAreReachable) {
  FaultInjectingEnv env;
  const std::string path = TempPath("recovery_repair.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(12);
  QbhSystem live = BuildSystem(corpus);
  ASSERT_TRUE(live.Attach(path, &env).ok());
  ASSERT_TRUE(live.Insert(SmallCorpus(1, 1)[0]).ok());
  env.CrashNextAppendAt(9);
  ASSERT_FALSE(live.Insert(SmallCorpus(1, 2)[0]).ok());

  RecoveryStats rs;
  auto reopened = QbhSystem::Open(path, &env, &rs);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(rs.torn_tail);
  EXPECT_EQ(rs.dropped_bytes, 9u);
  EXPECT_EQ(reopened.value().size(), 13u);

  // The repaired log accepts appends that a second recovery can reach.
  Melody after = SmallCorpus(1, 3)[0];
  after.name = "post-repair";
  ASSERT_TRUE(reopened.value().Insert(after).ok());
  auto again = QbhSystem::Open(path, &env);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().size(), 14u);
  ASSERT_TRUE(again.value().melody(13).has_value());
  EXPECT_EQ(again.value().melody(13)->name, "post-repair");
}

TEST(RecoveryTest, CorruptMutationPayloadStopsReplayCleanly) {
  FaultInjectingEnv env;
  const std::string path = TempPath("recovery_bad_payload.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(12);
  QbhSystem live = BuildSystem(corpus);
  ASSERT_TRUE(live.Attach(path, &env).ok());
  ASSERT_TRUE(live.Insert(SmallCorpus(1, 9)[0]).ok());

  // Append a well-framed record whose payload is not a valid mutation, then
  // a valid one behind it: replay must stop at the bad record and drop both.
  auto wal = WriteAheadLog::Open(QbhSystem::WalPathFor(path), &env);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append("upsert 13\ngarbage\n").ok());
  WalMutation valid;
  valid.kind = WalMutation::Kind::kRemove;
  valid.id = 0;
  ASSERT_TRUE(wal.value()->Append(EncodeWalMutation(valid)).ok());

  RecoveryStats rs;
  auto reopened = QbhSystem::Open(path, &env, &rs);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rs.records_replayed, 1u);  // the real insert
  EXPECT_TRUE(rs.torn_tail);
  EXPECT_GT(rs.dropped_bytes, 0u);
  EXPECT_EQ(reopened.value().size(), 13u);
  ASSERT_TRUE(reopened.value().melody(0).has_value());  // remove was dropped
}

TEST(RecoveryTest, CheckpointPersistsGappedIdSpace) {
  FaultInjectingEnv env;
  const std::string path = TempPath("recovery_gapped.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(10);
  QbhSystem live = BuildSystem(corpus);
  // Tombstones at both ends: id 0 and the highest ids.
  ASSERT_TRUE(live.Remove(0).ok());
  ASSERT_TRUE(live.Remove(8).ok());
  ASSERT_TRUE(live.Remove(9).ok());
  ASSERT_TRUE(live.Attach(path, &env).ok());
  ASSERT_TRUE(live.Checkpoint().ok());

  auto reopened = QbhSystem::Open(path, &env);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().size(), 7u);
  EXPECT_EQ(reopened.value().next_id(), 10);  // trailing tombstones kept
  EXPECT_FALSE(reopened.value().melody(0).has_value());
  EXPECT_FALSE(reopened.value().melody(9).has_value());
  ASSERT_TRUE(reopened.value().melody(5).has_value());
  ExpectSameAnswers(live, reopened.value(), {corpus[5], corpus[0]});
  // A new insert continues the id sequence instead of reusing 8 or 9.
  auto id = reopened.value().Insert(SmallCorpus(1, 31)[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 10);
}

TEST(RecoveryTest, FailedWalAppendLeavesMemoryAndDiskConsistent) {
  FaultInjectingEnv env;
  const std::string path = TempPath("recovery_failed_append.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(10);
  QbhSystem live = BuildSystem(corpus);
  ASSERT_TRUE(live.Attach(path, &env).ok());

  env.FailNextSync();
  EXPECT_FALSE(live.Remove(4).ok());
  // Log-before-apply: the in-memory state did not change either, so memory
  // and disk agree that melody 4 still exists.
  ASSERT_TRUE(live.melody(4).has_value());
  EXPECT_EQ(live.size(), 10u);
  auto reopened = QbhSystem::Open(path, &env);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value().melody(4).has_value());

  // The poisoned log refuses further mutations until a checkpoint resets it.
  EXPECT_FALSE(live.Remove(4).ok());
  ASSERT_TRUE(live.Checkpoint().ok());
  EXPECT_TRUE(live.Remove(4).ok());
}

// --- Writer/reader concurrency (TSan target) ---------------------------------

TEST(ConcurrentWriterTest, QueriesStayExactDuringInserts) {
  auto corpus = SmallCorpus(40);
  QbhSystem system = BuildSystem(corpus);
  Hummer hummer(HummerProfile::Perfect(), 11);
  std::vector<Series> hums;
  std::vector<std::int64_t> targets = {0, 7, 19, 33};
  for (std::int64_t t : targets) {
    hums.push_back(hummer.Hum(corpus[static_cast<std::size_t>(t)]));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t seed = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(system.Insert(SmallCorpus(1, seed++)[0]).ok());
    }
  });

  ThreadPool pool(3);
  for (int round = 0; round < 30; ++round) {
    auto results = system.QueryBatch(hums, 1, pool);
    ASSERT_EQ(results.size(), hums.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      // A perfect hum of an original melody keeps finding it regardless of
      // how many melodies the writer has raced in.
      ASSERT_EQ(results[i].size(), 1u);
      EXPECT_EQ(results[i][0].id, targets[i]);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(system.size(), 40u);
}

TEST(ConcurrentWriterTest, InsertsRemovesAndReadsRaceCleanly) {
  auto corpus = SmallCorpus(30);
  QbhSystem system = BuildSystem(corpus);
  Hummer hummer(HummerProfile::Good(), 13);
  Series hum = hummer.Hum(corpus[5]);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t seed = 500;
    std::vector<std::int64_t> mine;
    while (!stop.load(std::memory_order_relaxed)) {
      auto id = system.Insert(SmallCorpus(1, seed++)[0]);
      ASSERT_TRUE(id.ok());
      mine.push_back(id.value());
      if (mine.size() > 3) {
        ASSERT_TRUE(system.Remove(mine.front()).ok());
        mine.erase(mine.begin());
      }
    }
  });

  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      auto matches = system.Query(hum, 3);
      ASSERT_FALSE(matches.empty());
      // Accessors racing the writer must stay consistent, never abort.
      (void)system.size();
      (void)system.melody(system.next_id() - 1);
      (void)system.RankOf(hum, 5);
    }
  });

  reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(ConcurrentWriterTest, DurableWriterRacesReaders) {
  FaultInjectingEnv env;
  const std::string path = TempPath("concurrent_durable.db");
  CleanDb(&env, path);
  auto corpus = SmallCorpus(20);
  QbhSystem system = BuildSystem(corpus);
  ASSERT_TRUE(system.Attach(path, &env).ok());
  Hummer hummer(HummerProfile::Perfect(), 17);
  Series hum = hummer.Hum(corpus[3]);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t seed = 9000;
    int ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(system.Insert(SmallCorpus(1, seed++)[0]).ok());
      if (++ops % 8 == 0) ASSERT_TRUE(system.Checkpoint().ok());
    }
  });
  for (int i = 0; i < 100; ++i) {
    auto matches = system.Query(hum, 1);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].id, 3);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // What the racing writer persisted reopens to exactly the live state.
  RecoveryStats rs;
  auto reopened = QbhSystem::Open(path, &env, &rs);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().size(), system.size());
  ExpectSameAnswers(system, reopened.value(), {corpus[3], corpus[19]});
}

// --- Sharded crash matrix ----------------------------------------------------
//
// Each shard of a sharded engine crashes at a *different* WAL/checkpoint
// step, and the recovered engine's merged answers must match a never-crashed
// single-engine oracle that applied exactly the acknowledged mutations.

TEST(ShardRecoveryTest, EachShardCrashesAtADifferentStepAndRecoversMerged) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = ::testing::TempDir() + "shard_matrix";
  ::mkdir(dir.c_str(), 0755);
  constexpr std::size_t kShards = 3;
  for (std::size_t s = 0; s < kShards; ++s) {
    CleanDb(Env::Default(), serve::ShardedEngine::ShardPath(dir, s));
  }

  auto corpus = SmallCorpus(18);
  QbhSystem oracle = BuildSystem(corpus);  // never crashes, never durable
  serve::ShardedOptions opts;
  opts.num_shards = kShards;
  auto created = serve::ShardedEngine::Create(corpus, opts);
  ASSERT_TRUE(created.ok());
  {
    auto& engine = *created.value();
    ASSERT_TRUE(engine.AttachAll(dir, &env).ok());

    // Round one: acknowledged inserts on every shard, checkpointed.
    auto extra = SmallCorpus(6, 300);
    for (Melody& m : extra) {
      auto id = engine.Insert(m);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(oracle.Insert(std::move(m)).ok());
    }
    ASSERT_TRUE(engine.CheckpointAll().ok());

    // Shard 0 (next insert routes there: 24 % 3 == 0) crashes mid WAL
    // append: torn tail, mutation not acknowledged, so the oracle does not
    // apply it either. A clean checkpoint then restores its writability so
    // the next acknowledged inserts stay dense (ids equal on both sides).
    env.CrashNextAppendAt(4);
    EXPECT_FALSE(engine.Insert(SmallCorpus(1, 301)[0]).ok());
    env.ClearFaults();
    ASSERT_TRUE(engine.CheckpointAll().ok());

    // Acknowledged inserts land in every shard's WAL (ids 24..27 -> shards
    // 0,1,2,0); the crashes below hit only checkpoint rewrites, which must
    // never lose acknowledged data.
    auto more = SmallCorpus(4, 302);
    for (Melody& m : more) {
      auto id = engine.Insert(m);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(oracle.Insert(std::move(m)).ok());
    }

    // CheckpointAll visits shards in order and skips quarantined ones, so
    // quarantining the earlier shards aims each armed crash at a specific
    // later shard: shard 1 dies mid checkpoint body, shard 2 at the rename.
    // Their on-disk files (stale checkpoint + intact WAL, plus whatever the
    // crash tore) are exactly what a killed process leaves behind.
    engine.QuarantineShard(0);
    env.CrashNextWriteAt(FaultInjectingEnv::WriteStep::kWriteBody, 7);
    EXPECT_FALSE(engine.CheckpointAll().ok());  // shard 1 crashes
    env.ClearFaults();
    engine.QuarantineShard(1);
    env.CrashNextWriteAt(FaultInjectingEnv::WriteStep::kRename, 0);
    EXPECT_FALSE(engine.CheckpointAll().ok());  // shard 2 crashes
    env.ClearFaults();
  }  // drop the engine: a process kill with torn files left behind

  // Recovery: every shard comes back from whatever mix of stale checkpoint,
  // torn temp file, and WAL tail its crash left, and the merged answers are
  // bit-identical to the oracle that saw only acknowledged mutations.
  std::vector<RecoveryStats> recovery;
  auto reopened = serve::ShardedEngine::Open(dir, opts, &env, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& engine = *reopened.value();
  EXPECT_EQ(engine.serving_shards(), kShards);
  EXPECT_EQ(engine.size(), oracle.size());
  EXPECT_EQ(engine.next_id(), oracle.next_id());

  Hummer hummer(HummerProfile::Good(), 99);
  for (const Melody& target : {corpus[2], corpus[7], corpus[11], corpus[16]}) {
    Series hum = hummer.Hum(target);
    QueryStats stats;
    auto got = engine.Query(hum, 5, QueryOptions(), &stats);
    auto want = oracle.Query(hum, 5);
    EXPECT_FALSE(stats.partial);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].name, want[i].name);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
  }
}

TEST(ShardRecoveryTest, CrashAtEveryWalStepOnEveryShardStaysConsistent) {
  // The full matrix: for each shard index and each append tear length, crash
  // one shard's WAL there, recover the whole engine, and check the merged
  // answer against the oracle of acknowledged mutations.
  constexpr std::size_t kShards = 2;
  for (std::size_t victim = 0; victim < kShards; ++victim) {
    for (std::size_t torn : {0u, 1u, 8u}) {
      FaultInjectingEnv env(Env::Default());
      const std::string dir = ::testing::TempDir() + "shard_matrix2";
      ::mkdir(dir.c_str(), 0755);
      for (std::size_t s = 0; s < kShards; ++s) {
        CleanDb(Env::Default(), serve::ShardedEngine::ShardPath(dir, s));
      }
      auto corpus = SmallCorpus(10);
      QbhSystem oracle = BuildSystem(corpus);
      serve::ShardedOptions opts;
      opts.num_shards = kShards;
      auto created = serve::ShardedEngine::Create(corpus, opts);
      ASSERT_TRUE(created.ok());
      {
        auto& engine = *created.value();
        ASSERT_TRUE(engine.AttachAll(dir, &env).ok());
        // Walk the insert frontier to the victim shard, then tear its WAL.
        auto filler = SmallCorpus(4, 400 + victim);
        std::size_t i = 0;
        while (engine.next_id() % kShards != static_cast<std::int64_t>(victim)) {
          ASSERT_LT(i, filler.size());
          ASSERT_TRUE(engine.Insert(filler[i]).ok());
          ASSERT_TRUE(oracle.Insert(std::move(filler[i])).ok());
          ++i;
        }
        env.CrashNextAppendAt(torn);
        EXPECT_FALSE(engine.Insert(SmallCorpus(1, 500)[0]).ok());
        env.ClearFaults();
      }
      std::vector<RecoveryStats> recovery;
      auto reopened = serve::ShardedEngine::Open(dir, opts, &env, &recovery);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(reopened.value()->size(), oracle.size());
      Series hum = Hummer(HummerProfile::Good(), 17).Hum(corpus[3]);
      auto got = reopened.value()->Query(hum, 4);
      auto want = oracle.Query(hum, 4);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].id, want[k].id);
        EXPECT_EQ(got[k].distance, want[k].distance);
      }
    }
  }
}

}  // namespace
}  // namespace humdex
