// ShardedEngine: healthy-path bit-exactness against a single engine,
// partial-result semantics under quarantine, hedged retry, admission
// control, global id routing for online mutation, and the durable
// attach/open/repair/reseed lifecycle.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "music/hummer.h"
#include "music/song_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_engine.h"
#include "util/env.h"
#include "util/random.h"

namespace humdex {
namespace serve {
namespace {

std::vector<Melody> Corpus(std::size_t count, std::uint64_t seed = 1) {
  SongGenerator gen(seed);
  return gen.GeneratePhrases(count);
}

QbhSystem SingleEngine(const std::vector<Melody>& corpus,
                       QbhOptions opt = QbhOptions()) {
  QbhSystem system(opt);
  for (const Melody& m : corpus) system.AddMelody(m);
  system.Build();
  return system;
}

std::unique_ptr<ShardedEngine> Sharded(const std::vector<Melody>& corpus,
                                       std::size_t shards,
                                       ShardedOptions opts = ShardedOptions()) {
  opts.num_shards = shards;
  auto r = ShardedEngine::Create(corpus, std::move(opts));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::vector<Series> HumPanel(const std::vector<Melody>& corpus,
                             std::size_t count) {
  Hummer hummer(HummerProfile::Good(), 99);
  std::vector<Series> hums;
  for (std::size_t i = 0; i < count; ++i) {
    hums.push_back(hummer.Hum(corpus[(i * 7) % corpus.size()]));
  }
  return hums;
}

void ExpectSameMatches(const std::vector<QbhMatch>& a,
                       const std::vector<QbhMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].distance, b[i].distance);  // bit-identical
  }
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  Env* env = Env::Default();
  for (std::size_t s = 0; s < 16; ++s) {
    const std::string p = ShardedEngine::ShardPath(dir, s);
    for (const std::string& f : {p, QbhSystem::WalPathFor(p)}) {
      if (env->Exists(f)) {
        Status st = env->Delete(f);
        (void)st;
      }
    }
  }
  return dir;
}

// --- Healthy path: bit-exact equivalence ------------------------------------

TEST(ShardedEngineTest, HealthyAnswersAreBitIdenticalToSingleEngine) {
  auto corpus = Corpus(36);
  QbhSystem single = SingleEngine(corpus);
  auto sharded = Sharded(corpus, 4);

  for (const Series& hum : HumPanel(corpus, 6)) {
    QueryStats sstats;
    auto sh = sharded->Query(hum, 5, QueryOptions(), &sstats);
    auto si = single.Query(hum, 5);
    ExpectSameMatches(sh, si);
    EXPECT_FALSE(sstats.partial);
    EXPECT_EQ(sstats.shards_failed, 0u);

    // Range queries: merge the full result sets, bit for bit.
    if (!si.empty()) {
      const double epsilon = si.back().distance;
      auto rh = sharded->RangeQuery(hum, epsilon);
      auto ri = single.RangeQuery(hum, epsilon);
      ExpectSameMatches(rh, ri);
    }
  }
}

TEST(ShardedEngineTest, ShardCountDoesNotChangeAnswers) {
  auto corpus = Corpus(30);
  QbhSystem single = SingleEngine(corpus);
  for (std::size_t shards : {1u, 2u, 3u, 5u}) {
    auto sharded = Sharded(corpus, shards);
    for (const Series& hum : HumPanel(corpus, 3)) {
      ExpectSameMatches(sharded->Query(hum, 4), single.Query(hum, 4));
    }
  }
}

TEST(ShardedEngineTest, QueryBatchMatchesSerialQueries) {
  auto corpus = Corpus(24);
  auto sharded = Sharded(corpus, 3);
  auto hums = HumPanel(corpus, 5);

  QueryStats aggregate;
  auto batch = sharded->QueryBatch(hums, 4, QueryOptions(), &aggregate);
  ASSERT_EQ(batch.size(), hums.size());
  for (std::size_t i = 0; i < hums.size(); ++i) {
    ExpectSameMatches(batch[i], sharded->Query(hums[i], 4));
  }
  EXPECT_FALSE(aggregate.partial);
}

std::uint64_t KnnRadiusFallbacks() {
  return obs::MetricsRegistry::Default()
      .GetCounter("sharded.knn_radius_fallbacks")
      .value();
}

// Every melody stored three times at shuffled positions under distinct
// names: each hum ties three ids at every distance, so the request-wide kNN
// radius must keep ties and the merge must break them by global id exactly
// as one engine does, whatever the shard count.
TEST(ShardedEngineTest, DuplicateCorpusTiesMatchSingleEngineAcrossShardCounts) {
  const std::vector<Melody> base = Corpus(40, 5);
  std::vector<Melody> corpus;
  for (int copy = 0; copy < 3; ++copy) {
    for (const Melody& m : base) {
      corpus.push_back(m);
      corpus.back().name = m.name + "#" + std::to_string(copy);
    }
  }
  Rng rng(17);
  for (std::size_t i = corpus.size() - 1; i > 0; --i) {
    std::swap(corpus[i],
              corpus[rng.NextBounded(static_cast<std::uint32_t>(i + 1))]);
  }
  QbhSystem single = SingleEngine(corpus);
  const std::vector<Series> hums = HumPanel(base, 6);
  const std::uint64_t fallbacks = KnnRadiusFallbacks();
  for (std::size_t shards : {1u, 2u, 3u, 8u}) {
    auto sharded = Sharded(corpus, shards);
    for (std::size_t k : {1u, 2u, 4u, 5u, 7u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " k=" + std::to_string(k));
      const auto batch = sharded->QueryBatch(hums, k);
      ASSERT_EQ(batch.size(), hums.size());
      for (std::size_t i = 0; i < hums.size(); ++i) {
        const auto want = single.Query(hums[i], k);
        ExpectSameMatches(sharded->Query(hums[i], k), want);
        ExpectSameMatches(batch[i], want);
      }
    }
  }
  EXPECT_EQ(KnnRadiusFallbacks(), fallbacks);  // healthy path: certified
}

TEST(ShardedEngineTest, KnnSeedPhaseIsTraced) {
  auto corpus = Corpus(24);
  auto sharded = Sharded(corpus, 3);
  obs::QueryTrace trace;
  QueryStats stats;
  {
    obs::ScopedTrace activate(&trace);
    sharded->Query(HumPanel(corpus, 1)[0], 4, QueryOptions(), &stats);
  }
  // Seed DTWs count: three shards each verify their own four seeds.
  EXPECT_GE(stats.exact_dtw_calls, 12u);
#if HUMDEX_TRACING_ENABLED
  const obs::TraceSpan* seed = trace.Find("sharded.knn_seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_GE(seed->Attribute("radius"), 0.0);
#endif
}

// --- Partial results: degraded, never wrong ---------------------------------

// The request-wide radius can rest on seeds of a shard whose range attempts
// then all fail. Without certification the surviving shards would answer at
// a radius they cannot back up and silently miss true neighbors; with it,
// each answer is the unsharded ranking minus the failed shard.
TEST(ShardedEngineTest, RangeFailureOnAnyShardStillYieldsExactPartialAnswers) {
  const std::size_t kShards = 4;
  const std::size_t kTopK = 3;
  auto corpus = Corpus(400);
  QbhSystem single = SingleEngine(corpus);
  const std::vector<Series> hums = HumPanel(corpus, 12);
  std::vector<std::vector<QbhMatch>> full;
  for (const Series& hum : hums) full.push_back(single.Query(hum, corpus.size()));

  const std::uint64_t fallbacks = KnnRadiusFallbacks();
  for (std::size_t failing = 0; failing < kShards; ++failing) {
    ShardedOptions opts;
    opts.fail_attempt_hook = [failing](std::size_t shard, int) {
      return shard == failing;
    };
    auto sharded = Sharded(corpus, kShards, std::move(opts));
    const auto batch = sharded->QueryBatch(hums, kTopK);
    for (std::size_t i = 0; i < hums.size(); ++i) {
      SCOPED_TRACE("failing shard " + std::to_string(failing) + ", hum " +
                   std::to_string(i));
      std::vector<QbhMatch> expect;
      for (const QbhMatch& m : full[i]) {
        if (static_cast<std::size_t>(m.id) % kShards != failing) {
          expect.push_back(m);
        }
        if (expect.size() == kTopK) break;
      }
      QueryStats stats;
      ExpectSameMatches(sharded->Query(hums[i], kTopK, QueryOptions(), &stats),
                        expect);
      EXPECT_TRUE(stats.partial);
      EXPECT_EQ(stats.shards_failed, 1u);
      ExpectSameMatches(batch[i], expect);
    }
  }
  EXPECT_GT(KnnRadiusFallbacks(), fallbacks);
}

TEST(ShardedEngineTest, FinishHalfDropsASeedRemovedAfterSeeding) {
  auto corpus = Corpus(30);
  QbhSystem system = SingleEngine(corpus);
  const Series normal = system.HumToNormalForm(HumPanel(corpus, 1)[0]);
  const std::vector<Neighbor> seeds =
      system.KnnSeedsNormal(normal, 3, QueryOptions());
  ASSERT_EQ(seeds.size(), 3u);
  double radius = 0.0;
  for (const Neighbor& s : seeds) radius = std::max(radius, s.distance);
  ASSERT_TRUE(system.Remove(seeds.front().id).ok());
  std::size_t live = 0;
  const auto got = system.KnnFinishNormal(normal, 3, radius, seeds,
                                          QueryOptions(), nullptr, &live);
  EXPECT_EQ(live, corpus.size() - 1);
  for (const QbhMatch& m : got) EXPECT_NE(m.id, seeds.front().id);
}


TEST(ShardedEngineTest, QuarantinedShardYieldsFlaggedPartialNeverWrong) {
  auto corpus = Corpus(32);
  QbhSystem single = SingleEngine(corpus);
  auto sharded = Sharded(corpus, 4);
  const std::size_t quarantined = 2;
  sharded->QuarantineShard(quarantined);
  EXPECT_EQ(sharded->serving_shards(), 3u);

  for (const Series& hum : HumPanel(corpus, 4)) {
    QueryStats stats;
    auto got = sharded->Query(hum, 5, QueryOptions(), &stats);
    EXPECT_TRUE(stats.partial);
    EXPECT_EQ(stats.shards_failed, 1u);

    // Oracle: the full single-engine ranking with the quarantined shard's
    // melodies removed. The partial answer must equal it exactly — degraded
    // coverage, never a wrong id or distance.
    auto full = single.Query(hum, corpus.size());
    std::vector<QbhMatch> expect;
    for (const QbhMatch& m : full) {
      if (static_cast<std::size_t>(m.id) % 4 != quarantined) {
        expect.push_back(m);
      }
      if (expect.size() == 5) break;
    }
    ExpectSameMatches(got, expect);
  }
}

TEST(ShardedEngineTest, AllShardsQuarantinedServesEmptyPartialAnswers) {
  auto corpus = Corpus(12);
  auto sharded = Sharded(corpus, 3);
  for (std::size_t s = 0; s < 3; ++s) sharded->QuarantineShard(s);

  QueryStats stats;
  auto got = sharded->Query(HumPanel(corpus, 1)[0], 5, QueryOptions(), &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.shards_failed, 3u);
  EXPECT_EQ(sharded->serving_shards(), 0u);
  EXPECT_EQ(sharded->size(), 0u);
}

TEST(ShardedEngineTest, HedgedRetryAbsorbsOneSlowAttempt) {
  auto corpus = Corpus(20);
  QbhSystem single = SingleEngine(corpus);
  ShardedOptions opts;
  opts.attempts_per_shard = 2;
  int failed_attempts = 0;
  opts.fail_attempt_hook = [&failed_attempts](std::size_t shard, int attempt) {
    if (shard == 1 && attempt == 0) {
      ++failed_attempts;
      return true;  // first attempt on shard 1 "hangs"
    }
    return false;
  };
  auto sharded = Sharded(corpus, 4, std::move(opts));

  const Series hum = HumPanel(corpus, 1)[0];
  QueryStats stats;
  auto got = sharded->Query(hum, 5, QueryOptions(), &stats);
  EXPECT_GT(failed_attempts, 0);
  EXPECT_FALSE(stats.partial);  // the retry covered the slow shard
  ExpectSameMatches(got, single.Query(hum, 5));
}

TEST(ShardedEngineTest, ShardFailingEveryAttemptIsFlaggedPartial) {
  auto corpus = Corpus(20);
  QbhSystem single = SingleEngine(corpus);
  ShardedOptions opts;
  opts.attempts_per_shard = 2;
  opts.fail_attempt_hook = [](std::size_t shard, int) { return shard == 1; };
  auto sharded = Sharded(corpus, 4, std::move(opts));

  const Series hum = HumPanel(corpus, 1)[0];
  QueryStats stats;
  auto got = sharded->Query(hum, 5, QueryOptions(), &stats);
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.shards_failed, 1u);
  auto full = single.Query(hum, corpus.size());
  std::vector<QbhMatch> expect;
  for (const QbhMatch& m : full) {
    if (static_cast<std::size_t>(m.id) % 4 != 1) expect.push_back(m);
    if (expect.size() == 5) break;
  }
  ExpectSameMatches(got, expect);
}

TEST(ShardedEngineTest, ExpiredDeadlineTruncatesWithoutAborting) {
  auto corpus = Corpus(16);
  auto sharded = Sharded(corpus, 2);
  QueryOptions qopts;
  qopts.deadline = Deadline::Expired();
  QueryStats stats;
  auto got = sharded->Query(HumPanel(corpus, 1)[0], 5, qopts, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_TRUE(got.empty());
}

TEST(ShardedEngineTest, UnservableHumIsRejectedNotAborted) {
  auto corpus = Corpus(8);
  auto sharded = Sharded(corpus, 2);
  QueryStats stats;
  auto got = sharded->Query(Series(), 5, QueryOptions(), &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(stats.rejected);
}

TEST(ShardedEngineTest, BatchSheddingWithInjectedProbeIsDeterministic) {
  auto corpus = Corpus(15);
  auto sharded = Sharded(corpus, 3);
  auto hums = HumPanel(corpus, 3);

  QueryOptions qopts;
  qopts.max_queue_depth = 5;
  int calls = 0;
  qopts.queue_depth_probe = [&calls]() -> std::size_t {
    return ++calls == 1 ? 10 : 0;  // only the first submission sees overload
  };
  QueryStats aggregate;
  auto batch = sharded->QueryBatch(hums, 3, qopts, &aggregate);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].empty());  // shed
  EXPECT_TRUE(aggregate.truncated);
  for (std::size_t i = 1; i < 3; ++i) {
    ExpectSameMatches(batch[i], sharded->Query(hums[i], 3));
  }
}

// --- Online mutation through the global id space ----------------------------

TEST(ShardedEngineTest, InsertRemoveMatchesSingleEngine) {
  auto corpus = Corpus(21);
  QbhSystem single = SingleEngine(corpus);
  auto sharded = Sharded(corpus, 3);

  auto extra = Corpus(6, 777);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    extra[i].name = "extra_" + std::to_string(i);
    auto sid = sharded->Insert(extra[i]);
    auto oid = single.Insert(extra[i]);
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(oid.ok());
    EXPECT_EQ(sid.value(), oid.value());
  }
  for (std::int64_t id : {4, 13, 22}) {
    ASSERT_TRUE(sharded->Remove(id).ok());
    ASSERT_TRUE(single.Remove(id).ok());
  }
  EXPECT_EQ(sharded->size(), single.size());
  EXPECT_EQ(sharded->next_id(), single.next_id());
  ASSERT_TRUE(sharded->melody(23).has_value());
  EXPECT_EQ(sharded->melody(23)->name, "extra_2");
  EXPECT_FALSE(sharded->melody(13).has_value());

  auto panel = HumPanel(corpus, 3);
  Hummer hummer(HummerProfile::Good(), 5);
  panel.push_back(hummer.Hum(extra[2]));
  for (const Series& hum : panel) {
    ExpectSameMatches(sharded->Query(hum, 5), single.Query(hum, 5));
  }
}

TEST(ShardedEngineTest, InsertSkipsUnwritableShardAndBurnsItsId) {
  auto corpus = Corpus(12);
  auto sharded = Sharded(corpus, 3);
  // Next global id is 12, which maps to shard 0. Quarantine it.
  sharded->QuarantineShard(0);
  Melody extra = Corpus(1, 31)[0];
  extra.name = "skipped over";
  auto id = sharded->Insert(extra);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 13);  // 12 was burned; 13 maps to shard 1
  EXPECT_FALSE(sharded->melody(12).has_value());
  ASSERT_TRUE(sharded->melody(13).has_value());
  EXPECT_EQ(sharded->melody(13)->name, "skipped over");
  EXPECT_EQ(sharded->next_id(), 14);
}

TEST(ShardedEngineTest, RemoveOnQuarantinedShardFailsCleanly) {
  auto corpus = Corpus(12);
  auto sharded = Sharded(corpus, 3);
  sharded->QuarantineShard(1);
  Status st = sharded->Remove(4);  // 4 % 3 == 1
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(sharded->Remove(5).ok());  // other shards keep taking writes
}

// --- Durability and repair ---------------------------------------------------

TEST(ShardedDurabilityTest, AttachOpenRoundTripsBitExact) {
  auto corpus = Corpus(18);
  const std::string dir = FreshDir("serve_roundtrip");
  QbhSystem oracle = SingleEngine(corpus);
  {
    auto sharded = Sharded(corpus, 3);
    ASSERT_TRUE(sharded->AttachAll(dir).ok());
    auto extra = Corpus(4, 55);
    for (Melody& m : extra) {
      ASSERT_TRUE(sharded->Insert(m).ok());
      ASSERT_TRUE(oracle.Insert(m).ok());
    }
    ASSERT_TRUE(sharded->CheckpointAll().ok());
    auto more = Corpus(2, 56);
    for (Melody& m : more) {  // these live only in the WALs
      ASSERT_TRUE(sharded->Insert(m).ok());
      ASSERT_TRUE(oracle.Insert(m).ok());
    }
  }
  ShardedOptions opts;
  opts.num_shards = 3;
  std::vector<RecoveryStats> recovery;
  auto reopened = ShardedEngine::Open(dir, opts, nullptr, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& sharded = *reopened.value();
  ASSERT_EQ(recovery.size(), 3u);
  EXPECT_EQ(sharded.next_id(), oracle.next_id());

  for (const Series& hum : HumPanel(corpus, 4)) {
    QueryStats stats;
    auto got = sharded.Query(hum, 5, QueryOptions(), &stats);
    EXPECT_FALSE(stats.partial);
    ExpectSameMatches(got, oracle.Query(hum, 5));
  }
}

TEST(ShardedDurabilityTest, OpenWithMatchingShardCountIsNotPartial) {
  auto corpus = Corpus(18);
  const std::string dir = FreshDir("serve_roundtrip2");
  QbhSystem oracle = SingleEngine(corpus);
  {
    auto sharded = Sharded(corpus, 3);
    ASSERT_TRUE(sharded->AttachAll(dir).ok());
  }
  ShardedOptions opts;
  opts.num_shards = 3;
  auto reopened = ShardedEngine::Open(dir, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(reopened.value()->shard_status(s).health, ShardHealth::kHealthy);
  }
  for (const Series& hum : HumPanel(corpus, 4)) {
    QueryStats stats;
    auto got = reopened.value()->Query(hum, 5, QueryOptions(), &stats);
    EXPECT_FALSE(stats.partial);
    ExpectSameMatches(got, oracle.Query(hum, 5));
  }
}

TEST(ShardedDurabilityTest, RepairShardRejoinsWithoutStoppingReads) {
  auto corpus = Corpus(18);
  const std::string dir = FreshDir("serve_repair");
  QbhSystem oracle = SingleEngine(corpus);
  ShardedOptions opts;
  opts.num_shards = 3;
  auto r = ShardedEngine::Create(corpus, opts);
  ASSERT_TRUE(r.ok());
  auto& sharded = *r.value();
  ASSERT_TRUE(sharded.AttachAll(dir).ok());

  sharded.QuarantineShard(1);
  const Series hum = HumPanel(corpus, 1)[0];
  QueryStats stats;
  sharded.Query(hum, 5, QueryOptions(), &stats);
  EXPECT_TRUE(stats.partial);

  ASSERT_TRUE(sharded.RepairShard(1).ok());
  EXPECT_EQ(sharded.shard_status(1).health, ShardHealth::kHealthy);
  EXPECT_EQ(sharded.shard_status(1).repairs, 1u);

  stats = QueryStats();
  auto got = sharded.Query(hum, 5, QueryOptions(), &stats);
  EXPECT_FALSE(stats.partial);
  ExpectSameMatches(got, oracle.Query(hum, 5));
}

TEST(ShardedDurabilityTest, RepairIsRefusedForServingShards) {
  auto corpus = Corpus(9);
  const std::string dir = FreshDir("serve_repair2");
  ShardedOptions opts;
  opts.num_shards = 3;
  auto r = ShardedEngine::Create(corpus, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value()->AttachAll(dir).ok());
  EXPECT_FALSE(r.value()->RepairShard(0).ok());  // not quarantined
}

TEST(ShardedDurabilityTest, RepairPadsTheIdFrontierOfARejoinedShard) {
  auto corpus = Corpus(12);
  const std::string dir = FreshDir("serve_pad");
  ShardedOptions opts;
  opts.num_shards = 3;
  auto r = ShardedEngine::Create(corpus, opts);
  ASSERT_TRUE(r.ok());
  auto& sharded = *r.value();
  ASSERT_TRUE(sharded.AttachAll(dir).ok());

  // Take shard 0 out, then keep inserting: ids 12 (shard 0) burns, 13 and
  // 14 land on shards 1 and 2, 15 burns, 16 lands...
  sharded.QuarantineShard(0);
  auto extra = Corpus(4, 91);
  std::vector<std::int64_t> got_ids;
  for (Melody& m : extra) {
    auto id = sharded.Insert(m);
    ASSERT_TRUE(id.ok());
    got_ids.push_back(id.value());
  }
  EXPECT_EQ(got_ids, (std::vector<std::int64_t>{13, 14, 16, 17}));

  // Rejoin shard 0: its frontier must be padded past the burned ids so the
  // next insert routed to it gets the right global id, not an id-skew
  // quarantine.
  ASSERT_TRUE(sharded.RepairShard(0).ok());
  Melody next = Corpus(1, 92)[0];
  auto id = sharded.Insert(next);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 18);  // 18 % 3 == 0: shard 0 took it
  EXPECT_EQ(sharded.shard_status(0).health, ShardHealth::kHealthy);
}

TEST(ShardedDurabilityTest, ReseedRestoresADestroyedShardBitExact) {
  auto corpus = Corpus(15);
  const std::string dir = FreshDir("serve_reseed");
  QbhSystem oracle = SingleEngine(corpus);
  ShardedOptions opts;
  opts.num_shards = 3;
  auto r = ShardedEngine::Create(corpus, opts);
  ASSERT_TRUE(r.ok());
  auto& sharded = *r.value();
  ASSERT_TRUE(sharded.AttachAll(dir).ok());

  // Destroy shard 2's storage beyond salvage and quarantine it.
  Env* env = Env::Default();
  ASSERT_TRUE(
      env->AtomicWriteFile(ShardedEngine::ShardPath(dir, 2), "garbage").ok());
  sharded.QuarantineShard(2);
  EXPECT_FALSE(sharded.RepairShard(2).ok());

  // Reseed from the authoritative corpus (the replica-copy path).
  std::vector<std::pair<std::int64_t, Melody>> rows;
  for (std::size_t g = 2; g < corpus.size(); g += 3) {
    rows.emplace_back(static_cast<std::int64_t>(g), corpus[g]);
  }
  ASSERT_TRUE(sharded.ReseedShard(2, std::move(rows)).ok());
  EXPECT_EQ(sharded.shard_status(2).health, ShardHealth::kHealthy);

  for (const Series& hum : HumPanel(corpus, 4)) {
    QueryStats stats;
    auto got = sharded.Query(hum, 5, QueryOptions(), &stats);
    EXPECT_FALSE(stats.partial);
    ExpectSameMatches(got, oracle.Query(hum, 5));
  }
}

TEST(ShardedEngineTest, HealthNamesAreStable) {
  EXPECT_STREQ(ShardHealthName(ShardHealth::kHealthy), "healthy");
  EXPECT_STREQ(ShardHealthName(ShardHealth::kDegraded), "degraded");
  EXPECT_STREQ(ShardHealthName(ShardHealth::kQuarantined), "quarantined");
}

TEST(ShardedEngineTest, CreateRejectsImpossibleShapes) {
  EXPECT_FALSE(ShardedEngine::Create({}, ShardedOptions()).ok());
  ShardedOptions opts;
  opts.num_shards = 10;
  EXPECT_FALSE(ShardedEngine::Create(Corpus(5), opts).ok());
}

}  // namespace
}  // namespace serve
}  // namespace humdex
