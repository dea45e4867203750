#include "serve/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>

#include "music/pitch_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbh/storage.h"
#include "ts/normal_form.h"

namespace humdex {
namespace serve {

namespace {

obs::Counter& QueriesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.queries");
  return c;
}

obs::Counter& PartialCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.queries_partial");
  return c;
}

obs::Counter& ShardsFailedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.shards_failed");
  return c;
}

obs::Counter& HedgeCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.hedged_attempts");
  return c;
}

obs::Counter& FailoverCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.failovers");
  return c;
}

obs::Counter& ShedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.queries_shed");
  return c;
}

obs::Counter& QuarantineCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.quarantines");
  return c;
}

obs::Counter& DivergedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.replica_diverged");
  return c;
}

obs::Counter& ShipCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.snapshot_ships");
  return c;
}

obs::Counter& RepairCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.repairs");
  return c;
}

obs::Counter& KnnRadiusFallbackCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Default().GetCounter(
      "sharded.knn_radius_fallbacks");
  return c;
}

obs::Counter& RejectedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.queries_rejected");
  return c;
}

void MarkRejected(QueryStats* stats) {
  RejectedCounter().Increment();
  if (stats != nullptr) {
    *stats = QueryStats();
    stats->rejected = true;
  }
}

/// Merge order: (distance, global id) — the same total order a single
/// engine's Neighbor uses, applied to translated ids.
bool MatchLess(const QbhMatch& a, const QbhMatch& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// The request-wide kNN radius: the kth smallest seed distance over every
/// shard (the largest when fewer than k seeds came back). Any k exact
/// distances bound the true kth distance from above.
double KthSeedDistance(const std::vector<std::vector<Neighbor>>& seeds,
                       std::size_t k) {
  std::vector<double> d;
  for (const std::vector<Neighbor>& shard : seeds) {
    for (const Neighbor& s : shard) d.push_back(s.distance);
  }
  if (d.empty() || k == 0) return 0.0;
  const std::size_t kth = std::min(k, d.size()) - 1;
  std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(kth),
                   d.end());
  return d[kth];
}

/// Failover rank: healthy before degraded, complete before lossy. Lower is
/// preferred; ties break toward the lower replica index (with rotation for
/// load spread applied by Snapshot).
int ReplicaRank(ShardHealth health, bool lossy) {
  return (health == ShardHealth::kHealthy ? 0 : 2) + (lossy ? 1 : 0);
}

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

ShardedEngine::ShardedEngine(ShardedOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.query_threads == 0 ? ThreadPool::DefaultThreadCount()
                                     : opts_.query_threads) {
  HUMDEX_CHECK(opts_.num_shards >= 1);
  HUMDEX_CHECK(opts_.replication >= 1);
  groups_.reserve(opts_.num_shards);
  for (std::size_t s = 0; s < opts_.num_shards; ++s) {
    auto group = std::make_unique<Group>();
    group->replicas.reserve(opts_.replication);
    for (std::size_t r = 0; r < opts_.replication; ++r) {
      group->replicas.push_back(std::make_unique<Replica>());
    }
    groups_.push_back(std::move(group));
  }
}

ShardedEngine::~ShardedEngine() { StopBackgroundRepair(); }

std::string ShardedEngine::ShardPath(const std::string& dir,
                                     std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".humdex";
}

std::string ShardedEngine::ReplicaPath(const std::string& dir,
                                       std::size_t shard,
                                       std::size_t replica) {
  // Replica 0 keeps the unreplicated file name, so an R=1 layout written by
  // an older engine reopens byte-for-byte and vice versa.
  if (replica == 0) return ShardPath(dir, shard);
  return dir + "/shard-" + std::to_string(shard) + ".r" +
         std::to_string(replica) + ".humdex";
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    std::vector<Melody> corpus, ShardedOptions opts) {
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (opts.replication < 1) {
    return Status::InvalidArgument("replication must be at least 1");
  }
  if (corpus.size() < opts.num_shards) {
    return Status::InvalidArgument(
        "need at least one melody per shard (" +
        std::to_string(corpus.size()) + " melodies, " +
        std::to_string(opts.num_shards) + " shards)");
  }
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(std::move(opts)));
  const std::size_t n = engine->groups_.size();
  const std::size_t rep = engine->opts_.replication;
  // Round robin: global id g -> shard g % n, local id g / n. AddMelody
  // allocates local ids densely in call order, which matches g / n exactly.
  std::vector<std::vector<Melody>> per_shard(n);
  for (std::size_t g = 0; g < corpus.size(); ++g) {
    per_shard[g % n].push_back(std::move(corpus[g]));
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t r = 0; r < rep; ++r) {
      QbhSystem system(engine->opts_.qbh);
      for (Melody& m : per_shard[s]) {
        // The last replica may consume the rows; earlier ones copy.
        if (r + 1 == rep) {
          system.AddMelody(std::move(m));
        } else {
          system.AddMelody(m);
        }
      }
      system.Build();
      engine->groups_[s]->replicas[r]->system =
          std::make_shared<QbhSystem>(std::move(system));
    }
  }
  engine->global_next_id_ = static_cast<std::int64_t>(corpus.size());
  return engine;
}

Status ShardedEngine::AttachAll(const std::string& dir, Env* env) {
  if (env == nullptr) env = Env::Default();
  env_ = env;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    for (std::size_t r = 0; r < groups_[s]->replicas.size(); ++r) {
      Replica& rep = *groups_[s]->replicas[r];
      std::lock_guard<std::mutex> lock(rep.mu);
      rep.path = ReplicaPath(dir, s, r);
      if (rep.system == nullptr) continue;
      HUMDEX_RETURN_IF_ERROR(rep.system->Attach(rep.path, env));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& dir, ShardedOptions opts, Env* env,
    std::vector<RecoveryStats>* recovery) {
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (opts.replication < 1) {
    return Status::InvalidArgument("replication must be at least 1");
  }
  if (env == nullptr) env = Env::Default();
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(std::move(opts)));
  engine->env_ = env;
  const std::size_t n = engine->groups_.size();
  if (recovery != nullptr) {
    recovery->assign(n, RecoveryStats());
  }
  std::size_t serving_groups = 0;
  std::int64_t frontier = 0;
  for (std::size_t s = 0; s < n; ++s) {
    bool group_serving = false;
    bool group_recovery_reported = false;
    for (std::size_t r = 0; r < engine->groups_[s]->replicas.size(); ++r) {
      Replica& rep = *engine->groups_[s]->replicas[r];
      rep.path = ReplicaPath(dir, s, r);
      RecoveryStats rs;
      Result<QbhSystem> opened = QbhSystem::Open(rep.path, env, &rs);
      if (opened.ok()) {
        rep.system = std::make_shared<QbhSystem>(std::move(opened).value());
        // A torn tail means the disk lost a (possibly empty) log suffix: the
        // replica serves exactly what recovery produced, but stays degraded
        // until the next successful checkpoint re-establishes durability.
        rep.health =
            rs.torn_tail ? ShardHealth::kDegraded : ShardHealth::kHealthy;
      } else {
        Result<QbhSystem> salvaged = QbhSystem::OpenSalvage(rep.path, env, &rs);
        if (salvaged.ok() && rs.ids_stable) {
          rep.system = std::make_shared<QbhSystem>(std::move(salvaged).value());
          rep.health = ShardHealth::kDegraded;
          rep.lossy = rs.melodies_dropped > 0;
        } else {
          // Unrecoverable here (or the ids cannot be trusted): quarantine
          // this replica and keep serving from its peers. The background
          // loop ships it a fresh snapshot later.
          rep.system = nullptr;
          rep.health = ShardHealth::kQuarantined;
          QuarantineCounter().Increment();
          rs = RecoveryStats();
        }
      }
      if (rep.system != nullptr) {
        group_serving = true;
        if (recovery != nullptr && !group_recovery_reported) {
          (*recovery)[s] = rs;
          group_recovery_reported = true;
        }
        const std::int64_t local_next = rep.system->next_id();
        if (local_next > 0) {
          frontier = std::max(
              frontier, (local_next - 1) * static_cast<std::int64_t>(n) +
                            static_cast<std::int64_t>(s) + 1);
        }
      }
    }
    if (group_serving) ++serving_groups;
  }
  if (serving_groups == 0) {
    return Status::Corruption("no shard in '" + dir + "' is recoverable");
  }
  engine->global_next_id_ = frontier;
  return engine;
}

Series ShardedEngine::HumToNormalForm(const Series& hum_pitch) const {
  // Same pipeline as QbhSystem::HumToNormalForm, run once per query instead
  // of once per shard (it depends only on the options, not on any corpus).
  Series voiced = RemoveSilence(hum_pitch);
  if (voiced.empty()) return Series();
  for (double v : voiced) {
    if (!std::isfinite(v)) return Series();
  }
  return NormalForm(voiced, opts_.qbh.normal_len);
}

std::vector<ShardedEngine::GroupSnapshot> ShardedEngine::Snapshot(
    QueryStats* stats) const {
  std::vector<GroupSnapshot> snaps(groups_.size());
  std::size_t failed = 0;
  bool lossy = false;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    Group& g = *groups_[s];
    struct Candidate {
      int rank;
      std::size_t idx;
      std::shared_ptr<QbhSystem> system;
      bool lossy;
    };
    std::vector<Candidate> cands;
    cands.reserve(g.replicas.size());
    for (std::size_t r = 0; r < g.replicas.size(); ++r) {
      Replica& rep = *g.replicas[r];
      std::lock_guard<std::mutex> lock(rep.mu);
      if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
        continue;
      }
      cands.push_back(
          {ReplicaRank(rep.health, rep.lossy), r, rep.system, rep.lossy});
    }
    if (cands.empty()) {
      // The whole group is down: the one case the answer cannot cover.
      ++failed;
      continue;
    }
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.idx < b.idx;
              });
    // Rotate equal-rank preferred replicas so read load spreads across the
    // group instead of pinning replica 0. Serving replicas are
    // bit-identical, so rotation cannot change any answer.
    std::size_t best = 1;
    while (best < cands.size() && cands[best].rank == cands[0].rank) ++best;
    if (best > 1) {
      const std::size_t start = static_cast<std::size_t>(
          g.read_rr.fetch_add(1, std::memory_order_relaxed) % best);
      std::rotate(cands.begin(), cands.begin() + start, cands.begin() + best);
    }
    snaps[s].systems.reserve(cands.size());
    for (Candidate& c : cands) snaps[s].systems.push_back(std::move(c.system));
    snaps[s].lossy = cands[0].lossy;
    lossy = lossy || cands[0].lossy;
  }
  if (stats != nullptr) {
    stats->shards_failed += failed;
    if (failed > 0 || lossy) stats->partial = true;
  }
  return snaps;
}

std::vector<QbhMatch> ShardedEngine::ShardQuery(
    std::size_t shard, const GroupSnapshot& snap, const ShardCall& call,
    const QueryOptions& qopts, QueryStats* stats, bool* ok) const {
  const int attempts = std::max(1, opts_.attempts_per_shard);
  for (int a = 0; a < attempts; ++a) {
    QueryOptions per = qopts;
    per.max_queue_depth = 0;  // admission control is engine-level
    per.queue_depth_probe = nullptr;
    if (!qopts.deadline.infinite()) {
      // Budget splitting: attempt a gets an equal slice of what is left, so
      // one slow attempt cannot eat the budget of the retries behind it.
      const std::uint64_t remaining = qopts.deadline.remaining_ns();
      per.deadline = Deadline::FromNowNs(
          remaining / static_cast<std::uint64_t>(attempts - a));
    }
    if (opts_.fail_attempt_hook && opts_.fail_attempt_hook(shard, a)) {
      HedgeCounter().Increment();
      continue;  // simulated slow/failed attempt
    }
    // Failover routing: attempt a is served by the group's a-th ranked
    // replica (mod serving count), so a retry after a slow or dead preferred
    // replica lands on a different copy of the same data.
    const std::size_t pick =
        static_cast<std::size_t>(a) % snap.systems.size();
    QueryStats attempt_stats;
    std::vector<QbhMatch> out =
        call(shard, *snap.systems[pick], per, &attempt_stats);
    // Hedge: an attempt that blew its slice (truncated) is retried with the
    // next slice, unless the overall deadline is spent — then the truncated
    // answer (exact for everything it examined) is the best we can return.
    if (attempt_stats.truncated && a + 1 < attempts && !qopts.ShouldStop()) {
      HedgeCounter().Increment();
      continue;
    }
    if (pick != 0) {
      attempt_stats.failovers += 1;
      FailoverCounter().Increment();
    }
    if (stats != nullptr) *stats += attempt_stats;
    // Translate local -> global ids; order is preserved (l1 < l2 implies
    // l1*N+s < l2*N+s), so each shard's answer stays sorted.
    const std::int64_t n = static_cast<std::int64_t>(groups_.size());
    for (QbhMatch& m : out) {
      m.id = m.id * n + static_cast<std::int64_t>(shard);
    }
    *ok = true;
    return out;
  }
  *ok = false;
  return {};
}

std::vector<QbhMatch> ShardedEngine::ScatterGather(
    const Series& normal, bool knn, std::size_t top_k, double epsilon,
    const QueryOptions& qopts, QueryStats* stats, bool parallel) const {
  QueriesCounter().Increment();
  if (normal.empty()) {
    MarkRejected(stats);
    return {};
  }
  QueryStats local;
  const std::vector<GroupSnapshot> snaps = Snapshot(&local);
  const std::size_t n = snaps.size();

  // Groups with no serving replica were counted failed by Snapshot.
  std::vector<char> serving(n, 0);
  for (std::size_t s = 0; s < n; ++s) serving[s] = !snaps[s].systems.empty();

  // Runs fn(s) for every group selected in `groups`: on the pool when
  // `parallel`, inline otherwise.
  auto scatter = [&](const std::vector<char>& groups,
                     const std::function<void(std::size_t)>& fn) {
    if (parallel && pool_.size() > 1 && n > 1) {
      std::vector<std::future<void>> futures;
      futures.reserve(n);
      for (std::size_t s = 0; s < n; ++s) {
        if (groups[s]) futures.push_back(pool_.Submit([&fn, s] { fn(s); }));
      }
      // Every task borrows this frame: let all finish before get() rethrows.
      for (std::future<void>& f : futures) f.wait();
      for (std::future<void>& f : futures) f.get();
    } else {
      for (std::size_t s = 0; s < n; ++s) {
        if (groups[s]) fn(s);
      }
    }
  };

  // One hedged scatter of `call` over the groups selected by `run`. Groups
  // whose every attempt failed leave the answer (flagged partial); the
  // others' stats are tallied.
  std::vector<std::vector<QbhMatch>> per_shard(n);
  std::vector<char> served(n, 0);
  auto run_phase = [&](const ShardCall& call, const std::vector<char>& run) {
    std::vector<QueryStats> shard_stats(n);
    scatter(run, [&](std::size_t s) {
      bool ok = false;
      per_shard[s] = ShardQuery(s, snaps[s], call, qopts, &shard_stats[s], &ok);
      served[s] = ok ? 1 : 0;
    });
    for (std::size_t s = 0; s < n; ++s) {
      if (!run[s]) continue;
      if (!served[s]) {
        // Every attempt failed at query time: the group stays in the engine
        // (its state is fine) but this answer does not cover it.
        ++local.shards_failed;
        local.partial = true;
        continue;
      }
      local += shard_stats[s];
    }
  };
  auto merge = [&] {
    std::vector<QbhMatch> merged;
    for (std::size_t s = 0; s < n; ++s) {
      if (!served[s]) continue;
      merged.insert(merged.end(), per_shard[s].begin(), per_shard[s].end());
    }
    std::sort(merged.begin(), merged.end(), MatchLess);
    if (knn && merged.size() > top_k) merged.resize(top_k);
    return merged;
  };

  std::vector<QbhMatch> merged;
  if (!knn) {
    run_phase(
        [&](std::size_t, const QbhSystem& sys, const QueryOptions& per,
            QueryStats* st) {
          return sys.RangeQueryNormal(normal, epsilon, per, st);
        },
        serving);
    merged = merge();
  } else {
    // Phase 1: every group's preferred replica returns its k feature-nearest
    // ids with exact distances. The kth smallest of all of them bounds the
    // request's true kth distance, and is never looser than one shard's own
    // two-step radius.
    std::vector<std::vector<Neighbor>> seeds(n);
    double radius = 0.0;
    {
      HUMDEX_SPAN(span, "sharded.knn_seed");
      std::vector<QueryStats> seed_stats(n);
      scatter(serving, [&](std::size_t s) {
        seeds[s] = snaps[s].systems[0]->KnnSeedsNormal(normal, top_k, qopts,
                                                       &seed_stats[s]);
      });
      for (const QueryStats& st : seed_stats) local += st;
      radius = KthSeedDistance(seeds, top_k);
      HUMDEX_SPAN_ATTR(span, "radius", radius);
    }

    // Phase 2: every group range-scans at that one radius, skipping the
    // seeds it already holds, and returns its local top-k.
    std::vector<std::size_t> live(n, 0);
    run_phase(
        [&](std::size_t s, const QbhSystem& sys, const QueryOptions& per,
            QueryStats* st) {
          return sys.KnnFinishNormal(normal, top_k, radius, seeds[s], per, st,
                                     &live[s]);
        },
        serving);
    merged = merge();

    // Certification: the radius may rest on seeds of a group that then
    // failed phase 2. With min(k, live) answers within the radius, every
    // true top-k member over the groups that served lies within it, so its
    // own group found and kept it. Otherwise re-run those groups with their
    // own two-step kNN. A truncated answer is best-effort already.
    std::size_t live_total = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (served[s]) live_total += live[s];
    }
    const std::size_t within = static_cast<std::size_t>(std::count_if(
        merged.begin(), merged.end(),
        [radius](const QbhMatch& m) { return m.distance <= radius; }));
    if (!local.truncated && within < std::min(top_k, live_total)) {
      KnnRadiusFallbackCounter().Increment();
      const std::vector<char> rerun = served;  // run_phase rewrites served
      run_phase(
          [&](std::size_t, const QbhSystem& sys, const QueryOptions& per,
              QueryStats* st) {
            return sys.QueryNormal(normal, top_k, per, st);
          },
          rerun);
      merged = merge();
    }
  }

  if (local.partial) PartialCounter().Increment();
  if (local.shards_failed > 0) {
    ShardsFailedCounter().Increment(local.shards_failed);
  }
  if (stats != nullptr) *stats = local;
  return merged;
}

std::vector<QbhMatch> ShardedEngine::Query(const Series& hum_pitch,
                                           std::size_t top_k,
                                           const QueryOptions& qopts,
                                           QueryStats* stats) const {
  return ScatterGather(HumToNormalForm(hum_pitch), /*knn=*/true, top_k, 0.0,
                       qopts, stats, /*parallel=*/true);
}

std::vector<QbhMatch> ShardedEngine::RangeQuery(const Series& hum_pitch,
                                                double epsilon,
                                                const QueryOptions& qopts,
                                                QueryStats* stats) const {
  return ScatterGather(HumToNormalForm(hum_pitch), /*knn=*/false, 0, epsilon,
                       qopts, stats, /*parallel=*/true);
}

std::vector<std::vector<QbhMatch>> ShardedEngine::QueryBatch(
    const std::vector<Series>& hum_pitches, std::size_t top_k,
    const QueryOptions& qopts, QueryStats* aggregate) const {
  std::vector<std::vector<QbhMatch>> results(hum_pitches.size());
  std::vector<QueryStats> stats(hum_pitches.size());
  std::vector<std::future<void>> futures;
  futures.reserve(hum_pitches.size());
  for (std::size_t i = 0; i < hum_pitches.size(); ++i) {
    // Admission control: refuse queries the pool is too far behind on
    // instead of queueing them to miss their deadline anyway.
    if (qopts.max_queue_depth > 0 &&
        (qopts.queue_depth_probe ? qopts.queue_depth_probe()
                                 : pool_.queue_depth()) >=
            qopts.max_queue_depth) {
      stats[i].truncated = true;
      ShedCounter().Increment();
      continue;
    }
    futures.push_back(pool_.Submit([this, &hum_pitches, &results, &stats,
                                    &qopts, top_k, i] {
      // Inline scatter: this task already runs on the pool, so fanning the
      // shards back into the same pool could deadlock a full pool of tasks
      // all waiting for sub-tasks no worker is free to run.
      results[i] = ScatterGather(HumToNormalForm(hum_pitches[i]),
                                 /*knn=*/true, top_k, 0.0, qopts, &stats[i],
                                 /*parallel=*/false);
    }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  if (aggregate != nullptr) {
    QueryStats total;
    for (const QueryStats& s : stats) total += s;
    *aggregate = total;
  }
  return results;
}

// --- Mutation ----------------------------------------------------------------

std::int64_t ShardedEngine::LocalNextFor(std::int64_t global_next,
                                         std::size_t shard) const {
  // Number of global ids < global_next that map to `shard`:
  // ceil((global_next - shard) / n) for global_next > shard, else 0.
  const std::int64_t n = static_cast<std::int64_t>(groups_.size());
  const std::int64_t s = static_cast<std::int64_t>(shard);
  if (global_next <= s) return 0;
  return (global_next - s + n - 1) / n;
}

void ShardedEngine::NoteIoErrorLocked(Replica& replica) {
  ++replica.io_errors;
  replica.read_only = true;
  if (replica.health == ShardHealth::kHealthy) {
    replica.health = ShardHealth::kDegraded;
  }
  if (replica.health != ShardHealth::kQuarantined &&
      replica.io_errors >= opts_.quarantine_after_io_errors) {
    replica.health = ShardHealth::kQuarantined;
    QuarantineCounter().Increment();
  }
}

void ShardedEngine::QuarantineReplicaLocked(Replica& replica) {
  if (replica.health != ShardHealth::kQuarantined) {
    replica.health = ShardHealth::kQuarantined;
    QuarantineCounter().Increment();
  }
}

Result<std::int64_t> ShardedEngine::Insert(Melody melody) {
  // alloc_mu_ serializes every mutation besides guarding the id allocator:
  // snapshot shipping's catch-up phase holds it to freeze writes.
  std::lock_guard<std::mutex> alloc(alloc_mu_);
  Status last = Status::FailedPrecondition("no shard can take writes");
  for (std::size_t tries = 0; tries < groups_.size(); ++tries) {
    const std::int64_t g = global_next_id_;
    const std::size_t s =
        static_cast<std::size_t>(g % static_cast<std::int64_t>(groups_.size()));
    Group& group = *groups_[s];
    const std::int64_t expected = LocalNextFor(g, s);

    // Fan the write out to every serving replica of the group. A serving
    // replica that does not apply a write its peers applied is diverged —
    // it must leave the fan-out, or reads that fail over to it would
    // silently miss data.
    std::size_t applied = 0;
    bool any_writable = false;
    Status first_error = Status::OK();
    std::vector<Replica*> missed;  // serving replicas without the write
    for (std::size_t r = 0; r < group.replicas.size(); ++r) {
      Replica& rep = *group.replicas[r];
      std::lock_guard<std::mutex> lock(rep.mu);
      if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
        continue;
      }
      if (rep.read_only) {
        missed.push_back(&rep);
        continue;
      }
      any_writable = true;
      Result<std::int64_t> local = rep.system->Insert(Melody(melody));
      if (!local.ok()) {
        NoteIoErrorLocked(rep);
        if (first_error.ok()) first_error = local.status();
        missed.push_back(&rep);
        continue;
      }
      if (local.value() != expected) {
        // Id skew: this replica's frontier no longer matches the global
        // allocator — a bug or an unrepaired rejoin. Serving wrong global
        // ids is the one thing the engine must never do.
        if (first_error.ok()) {
          first_error = Status::Internal(
              "shard " + std::to_string(s) + " replica " + std::to_string(r) +
              " allocated local id " + std::to_string(local.value()) +
              ", expected " + std::to_string(expected));
        }
        missed.push_back(&rep);
        continue;
      }
      rep.io_errors = 0;
      ++applied;
    }

    if (applied == 0) {
      if (!any_writable) {
        // The whole group is unwritable: burn this frontier id (ids are
        // never reused) and let the next writable group take the melody.
        // The group is re-aligned by PadIdSpace when a replica rejoins.
        ++global_next_id_;
        continue;
      }
      // Writable replicas existed but none applied: the write failed and no
      // replica state diverged from its peers (they all still lack the
      // melody), so report the error without burning the id.
      return first_error.ok() ? last : first_error;
    }

    // The group took the write. Any serving replica that missed it —
    // read-only, failed append, id skew — is now behind its peers:
    // quarantine it so it never serves, and let re-replication bring it
    // back digest-identical.
    for (Replica* rep : missed) {
      std::lock_guard<std::mutex> lock(rep->mu);
      DivergedCounter().Increment();
      QuarantineReplicaLocked(*rep);
    }
    ++global_next_id_;
    return g;
  }
  return last;
}

Status ShardedEngine::Remove(std::int64_t global_id) {
  if (global_id < 0) {
    return Status::InvalidArgument("negative melody id");
  }
  std::lock_guard<std::mutex> alloc(alloc_mu_);
  const std::int64_t n = static_cast<std::int64_t>(groups_.size());
  const std::size_t s = static_cast<std::size_t>(global_id % n);
  const std::int64_t local = global_id / n;
  Group& group = *groups_[s];

  std::size_t serving = 0;
  std::size_t writable = 0;
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    Replica& rep = *group.replicas[r];
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      continue;
    }
    ++serving;
    if (!rep.read_only) ++writable;
  }
  if (serving == 0) {
    return Status::FailedPrecondition("shard " + std::to_string(s) +
                                      " is quarantined");
  }
  if (writable == 0) {
    return Status::FailedPrecondition("shard " + std::to_string(s) +
                                      " is read-only");
  }

  std::size_t applied = 0;
  Status first_error = Status::OK();
  std::vector<Replica*> missed;
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    Replica& rep = *group.replicas[r];
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      continue;
    }
    if (rep.read_only) {
      missed.push_back(&rep);
      continue;
    }
    Status st = rep.system->Remove(local);
    if (!st.ok()) {
      if (st.code() == Status::Code::kIoError) NoteIoErrorLocked(rep);
      if (first_error.ok()) first_error = st;
      missed.push_back(&rep);
      continue;
    }
    rep.io_errors = 0;
    ++applied;
  }
  if (applied == 0) {
    // Uniform refusal (bad id, last-live-melody guard, every append failing):
    // no replica changed state, so nothing diverged.
    return first_error;
  }
  // Same divergence rule as Insert: a serving replica that still holds a
  // melody its peers removed must leave the fan-out.
  for (Replica* rep : missed) {
    std::lock_guard<std::mutex> lock(rep->mu);
    DivergedCounter().Increment();
    QuarantineReplicaLocked(*rep);
  }
  return Status::OK();
}

Status ShardedEngine::CheckpointAll() {
  Status first = Status::OK();
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    for (std::size_t r = 0; r < groups_[s]->replicas.size(); ++r) {
      Replica& rep = *groups_[s]->replicas[r];
      std::lock_guard<std::mutex> lock(rep.mu);
      if (rep.system == nullptr || rep.health == ShardHealth::kQuarantined ||
          !rep.system->durable()) {
        continue;
      }
      Status st = rep.system->Checkpoint();
      if (!st.ok()) {
        NoteIoErrorLocked(rep);
        if (first.ok()) first = st;
        continue;
      }
      rep.io_errors = 0;
      rep.read_only = false;
      // A durable checkpoint clears durability suspicion; data lost to a
      // salvage (lossy) is still lost, so those replicas stay degraded until
      // re-shipped.
      if (rep.health == ShardHealth::kDegraded && !rep.lossy) {
        rep.health = ShardHealth::kHealthy;
      }
    }
  }
  return first;
}

// --- Introspection -----------------------------------------------------------

std::size_t ShardedEngine::size() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Group>& group : groups_) {
    // Count from the group's preferred serving replica; serving replicas are
    // bit-identical, so any of them reports the same size.
    std::shared_ptr<QbhSystem> best;
    int best_rank = 0;
    for (const std::unique_ptr<Replica>& repp : group->replicas) {
      Replica& rep = *repp;
      std::lock_guard<std::mutex> lock(rep.mu);
      if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
        continue;
      }
      const int rank = ReplicaRank(rep.health, rep.lossy);
      if (best == nullptr || rank < best_rank) {
        best = rep.system;
        best_rank = rank;
      }
    }
    if (best != nullptr) total += best->size();
  }
  return total;
}

std::int64_t ShardedEngine::next_id() const {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  return global_next_id_;
}

std::size_t ShardedEngine::serving_shards() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Group>& group : groups_) {
    for (const std::unique_ptr<Replica>& repp : group->replicas) {
      std::lock_guard<std::mutex> lock(repp->mu);
      if (repp->health != ShardHealth::kQuarantined &&
          repp->system != nullptr) {
        ++n;
        break;
      }
    }
  }
  return n;
}

ShardStatus ShardedEngine::shard_status(std::size_t shard) const {
  HUMDEX_CHECK(shard < groups_.size());
  const Group& group = *groups_[shard];
  ShardStatus out;
  out.replicas = group.replicas.size();
  out.serving_replicas = 0;
  out.health = ShardHealth::kQuarantined;
  out.io_errors = 0;
  out.repairs = 0;
  bool all_read_only = true;
  std::shared_ptr<QbhSystem> best;
  int best_rank = 0;
  bool best_lossy = false;
  for (const std::unique_ptr<Replica>& repp : group.replicas) {
    Replica& rep = *repp;
    std::lock_guard<std::mutex> lock(rep.mu);
    out.io_errors += rep.io_errors;
    out.repairs += rep.repairs;
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      continue;
    }
    ++out.serving_replicas;
    all_read_only = all_read_only && rep.read_only;
    // Group health is the best replica's: one healthy replica means the
    // group serves complete, durable answers.
    if (rep.health == ShardHealth::kHealthy) out.health = ShardHealth::kHealthy;
    else if (out.health == ShardHealth::kQuarantined) {
      out.health = ShardHealth::kDegraded;
    }
    const int rank = ReplicaRank(rep.health, rep.lossy);
    if (best == nullptr || rank < best_rank) {
      best = rep.system;
      best_rank = rank;
      best_lossy = rep.lossy;
    }
  }
  out.read_only = out.serving_replicas > 0 && all_read_only;
  out.lossy = best_lossy;
  if (best != nullptr) out.live_melodies = best->size();
  return out;
}

ShardStatus ShardedEngine::replica_status(std::size_t shard,
                                          std::size_t replica) const {
  HUMDEX_CHECK(shard < groups_.size());
  HUMDEX_CHECK(replica < groups_[shard]->replicas.size());
  Replica& rep = *groups_[shard]->replicas[replica];
  ShardStatus out;
  out.replicas = groups_[shard]->replicas.size();
  std::shared_ptr<QbhSystem> sys;
  {
    std::lock_guard<std::mutex> lock(rep.mu);
    out.health = rep.health;
    out.read_only = rep.read_only;
    out.lossy = rep.lossy;
    out.io_errors = rep.io_errors;
    out.repairs = rep.repairs;
    sys = rep.system;
  }
  out.serving_replicas =
      (out.health != ShardHealth::kQuarantined && sys != nullptr) ? 1 : 0;
  if (sys != nullptr) out.live_melodies = sys->size();
  return out;
}

std::optional<Melody> ShardedEngine::melody(std::int64_t global_id) const {
  if (global_id < 0) return std::nullopt;
  const std::int64_t n = static_cast<std::int64_t>(groups_.size());
  const Group& group = *groups_[static_cast<std::size_t>(global_id % n)];
  std::shared_ptr<QbhSystem> sys;
  int best_rank = 0;
  for (const std::unique_ptr<Replica>& repp : group.replicas) {
    Replica& rep = *repp;
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      continue;
    }
    const int rank = ReplicaRank(rep.health, rep.lossy);
    if (sys == nullptr || rank < best_rank) {
      sys = rep.system;
      best_rank = rank;
    }
  }
  if (sys == nullptr) return std::nullopt;
  return sys->melody(global_id / n);
}

// --- Fault handling ----------------------------------------------------------

void ShardedEngine::QuarantineShard(std::size_t shard) {
  HUMDEX_CHECK(shard < groups_.size());
  for (const std::unique_ptr<Replica>& repp : groups_[shard]->replicas) {
    std::lock_guard<std::mutex> lock(repp->mu);
    QuarantineReplicaLocked(*repp);
  }
}

void ShardedEngine::QuarantineReplica(std::size_t shard, std::size_t replica) {
  HUMDEX_CHECK(shard < groups_.size());
  HUMDEX_CHECK(replica < groups_[shard]->replicas.size());
  Replica& rep = *groups_[shard]->replicas[replica];
  std::lock_guard<std::mutex> lock(rep.mu);
  QuarantineReplicaLocked(rep);
}

Result<std::uint32_t> ShardedEngine::ReplicaDigest(std::size_t shard,
                                                   std::size_t replica) const {
  HUMDEX_CHECK(shard < groups_.size());
  HUMDEX_CHECK(replica < groups_[shard]->replicas.size());
  Replica& rep = *groups_[shard]->replicas[replica];
  std::shared_ptr<QbhSystem> sys;
  {
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) + " replica " +
          std::to_string(replica) + " is not serving");
    }
    sys = rep.system;
  }
  return sys->Digest();
}

std::size_t ShardedEngine::CheckGroupDivergence(std::size_t shard) {
  HUMDEX_CHECK(shard < groups_.size());
  Group& group = *groups_[shard];
  struct Entry {
    std::size_t idx;
    std::shared_ptr<QbhSystem> system;
    std::uint32_t digest = 0;
  };
  std::vector<Entry> entries;
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    Replica& rep = *group.replicas[r];
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      continue;
    }
    entries.push_back({r, rep.system, 0});
  }
  if (entries.size() < 2) return 0;
  // Digests are computed outside the replica locks (each QbhSystem has its
  // own reader lock); the write path serializes on alloc_mu_, so two
  // replicas that are in sync cannot be caught mid-divergence here —
  // a mismatch is a real one.
  for (Entry& e : entries) e.digest = e.system->Digest();

  // Authority: the digest held by most serving replicas wins; ties break
  // toward the set containing the lowest replica index.
  std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> votes;
  for (const Entry& e : entries) {
    auto it = votes.find(e.digest);
    if (it == votes.end()) {
      votes.emplace(e.digest, std::make_pair(std::size_t{1}, e.idx));
    } else {
      ++it->second.first;
    }
  }
  std::uint32_t winner = entries[0].digest;
  std::size_t winner_count = 0;
  std::size_t winner_low = 0;
  for (const auto& [digest, count_low] : votes) {
    const auto& [count, low] = count_low;
    if (count > winner_count ||
        (count == winner_count && low < winner_low)) {
      winner = digest;
      winner_count = count;
      winner_low = low;
    }
  }
  std::size_t quarantined = 0;
  for (const Entry& e : entries) {
    if (e.digest == winner) continue;
    Replica& rep = *group.replicas[e.idx];
    std::lock_guard<std::mutex> lock(rep.mu);
    // Only quarantine if it still serves the instance we digested; a
    // concurrent repair swap means our verdict is stale.
    if (rep.system == e.system &&
        rep.health != ShardHealth::kQuarantined) {
      DivergedCounter().Increment();
      QuarantineReplicaLocked(rep);
      ++quarantined;
    }
  }
  return quarantined;
}

std::size_t ShardedEngine::AntiEntropySweep() {
  std::size_t total = 0;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    total += CheckGroupDivergence(s);
  }
  return total;
}

std::vector<std::size_t> ShardedEngine::RankedPeers(std::size_t shard,
                                                    std::size_t except) const {
  struct Peer {
    int rank;
    std::size_t idx;
  };
  std::vector<Peer> peers;
  const Group& group = *groups_[shard];
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    if (r == except) continue;
    Replica& rep = *group.replicas[r];
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health == ShardHealth::kQuarantined || rep.system == nullptr) {
      continue;
    }
    peers.push_back({ReplicaRank(rep.health, rep.lossy), r});
  }
  std::sort(peers.begin(), peers.end(), [](const Peer& a, const Peer& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.idx < b.idx;
  });
  std::vector<std::size_t> out;
  out.reserve(peers.size());
  for (const Peer& p : peers) out.push_back(p.idx);
  return out;
}

void ShardedEngine::InstallReplica(Replica& replica, QbhSystem system,
                                   ShardHealth health, bool read_only,
                                   bool lossy) {
  std::lock_guard<std::mutex> lock(replica.mu);
  replica.system = std::make_shared<QbhSystem>(std::move(system));
  replica.health = health;
  replica.read_only = read_only;
  replica.lossy = lossy;
  replica.io_errors = 0;
  ++replica.repairs;
}

Status ShardedEngine::ShipSnapshot(std::size_t shard, std::size_t from,
                                   std::size_t to) {
  std::lock_guard<std::mutex> repair_lock(repair_mu_);
  return ShipSnapshotLocked(shard, from, to);
}

Status ShardedEngine::ShipSnapshotLocked(std::size_t shard, std::size_t from,
                                         std::size_t to) {
  HUMDEX_CHECK(shard < groups_.size());
  HUMDEX_CHECK(from < groups_[shard]->replicas.size());
  HUMDEX_CHECK(to < groups_[shard]->replicas.size());
  if (from == to) {
    return Status::InvalidArgument("cannot ship a replica to itself");
  }
  Group& group = *groups_[shard];
  Replica& src = *group.replicas[from];
  Replica& dst = *group.replicas[to];

  std::shared_ptr<QbhSystem> src_sys;
  std::string src_path;
  bool src_lossy = false;
  {
    std::lock_guard<std::mutex> lock(src.mu);
    if (src.health == ShardHealth::kQuarantined || src.system == nullptr) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) + " replica " +
          std::to_string(from) + " is not serving; cannot be a ship source");
    }
    src_sys = src.system;
    src_path = src.path;
    src_lossy = src.lossy;
  }
  std::string dst_path;
  {
    std::lock_guard<std::mutex> lock(dst.mu);
    if (dst.health != ShardHealth::kQuarantined) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) + " replica " + std::to_string(to) +
          " is serving; quarantine it before shipping over it");
    }
    dst_path = dst.path;
  }
  ShipCounter().Increment();

  const bool durable = src_sys->durable() && !src_path.empty() &&
                       !dst_path.empty() && env_ != nullptr;
  if (durable) {
    // Phase A — writes keep flowing. Checkpoint the source (its WAL
    // truncates: everything up to now is in the checkpoint file) and copy
    // the checkpoint bytes through Env, where FaultInjectingEnv can fail the
    // read or crash the write at any step. Any failure leaves the
    // destination quarantined and its in-memory state untouched.
    HUMDEX_RETURN_IF_ERROR(src_sys->Checkpoint());
    std::string bytes;
    HUMDEX_RETURN_IF_ERROR(env_->ReadFile(src_path, &bytes));
    HUMDEX_RETURN_IF_ERROR(env_->AtomicWriteFile(dst_path, bytes));

    // Phase B — freeze writes (every mutation holds alloc_mu_) and catch
    // up: writes that landed between phase A and here are exactly the
    // source's WAL tail (WAL-before-apply), so copying that tail and
    // replaying it on open reproduces the source bit-for-bit.
    std::lock_guard<std::mutex> freeze(alloc_mu_);
    const std::string src_wal = QbhSystem::WalPathFor(src_path);
    const std::string dst_wal = QbhSystem::WalPathFor(dst_path);
    if (env_->Exists(src_wal)) {
      std::string wal_bytes;
      HUMDEX_RETURN_IF_ERROR(env_->ReadFile(src_wal, &wal_bytes));
      HUMDEX_RETURN_IF_ERROR(env_->AtomicWriteFile(dst_wal, wal_bytes));
    } else {
      // No tail — but a stale log from the destination's previous life
      // would replay garbage over the shipped checkpoint.
      Status st = env_->Delete(dst_wal);
      if (!st.ok() && st.code() != Status::Code::kNotFound) return st;
    }
    RecoveryStats rs;
    Result<QbhSystem> opened = QbhSystem::Open(dst_path, env_, &rs);
    HUMDEX_RETURN_IF_ERROR(opened.status());
    QbhSystem system = std::move(opened).value();

    // Prove the rebuild before it serves: checkpoint + replayed tail must
    // reproduce the source bit-for-bit — including its id frontier, so no
    // re-padding is needed (or allowed: it could only introduce skew). A
    // shipped replica re-enters the fan-out digest-identical or not at all.
    if (system.Digest() != src_sys->Digest()) {
      return Status::Internal(
          "snapshot ship of shard " + std::to_string(shard) + " replica " +
          std::to_string(from) + " -> " + std::to_string(to) +
          " diverged from its source; destination stays quarantined");
    }
    InstallReplica(dst, std::move(system),
                   src_lossy ? ShardHealth::kDegraded : ShardHealth::kHealthy,
                   /*read_only=*/false, src_lossy);
  } else {
    // In-memory ship (no storage attached): freeze writes for the whole
    // export + rebuild, so the serialized bytes are the source's final word.
    std::lock_guard<std::mutex> freeze(alloc_mu_);
    Result<QbhSystem> parsed = ParseQbhDatabase(src_sys->ExportSnapshot());
    HUMDEX_RETURN_IF_ERROR(parsed.status());
    QbhSystem system = std::move(parsed).value();
    if (system.Digest() != src_sys->Digest()) {
      return Status::Internal(
          "snapshot ship of shard " + std::to_string(shard) + " replica " +
          std::to_string(from) + " -> " + std::to_string(to) +
          " diverged from its source; destination stays quarantined");
    }
    InstallReplica(dst, std::move(system),
                   src_lossy ? ShardHealth::kDegraded : ShardHealth::kHealthy,
                   /*read_only=*/false, src_lossy);
  }
  RepairCounter().Increment();
  return Status::OK();
}

Status ShardedEngine::RepairFromOwnStorage(std::size_t shard,
                                           std::size_t replica) {
  Replica& rep = *groups_[shard]->replicas[replica];
  std::string path;
  {
    std::lock_guard<std::mutex> lock(rep.mu);
    path = rep.path;
  }
  if (path.empty()) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) + " replica " +
        std::to_string(replica) +
        " has no storage to repair from (not durable)");
  }

  // Build the replacement entirely offline; readers keep draining the other
  // replicas (and whatever snapshot pointers they already copied).
  RecoveryStats rs;
  ShardHealth health;
  bool lossy = false;
  Result<QbhSystem> opened = QbhSystem::Open(path, env_, &rs);
  if (opened.ok()) {
    health = rs.torn_tail ? ShardHealth::kDegraded : ShardHealth::kHealthy;
  } else {
    opened = QbhSystem::OpenSalvage(path, env_, &rs);
    if (!opened.ok()) {
      return Status::Corruption("shard " + std::to_string(shard) +
                                " replica " + std::to_string(replica) +
                                " is beyond salvage: " +
                                opened.status().message());
    }
    if (!rs.ids_stable) {
      return Status::Corruption(
          "shard " + std::to_string(shard) + " replica " +
          std::to_string(replica) +
          " salvage could not keep ids stable; ship or reseed it instead");
    }
    health = ShardHealth::kDegraded;
    lossy = rs.melodies_dropped > 0;
  }
  QbhSystem system = std::move(opened).value();

  // Re-align the replica's id frontier with the global allocator: ids this
  // replica missed while quarantined become tombstones, so its next local
  // allocation matches the next global id routed to it.
  std::int64_t global_next;
  {
    std::lock_guard<std::mutex> alloc(alloc_mu_);
    global_next = global_next_id_;
  }
  bool pad_failed = false;
  Status pad = system.PadIdSpace(LocalNextFor(global_next, shard));
  if (!pad.ok()) pad_failed = true;  // serve reads; refuse writes

  // A rejoining replica with serving peers must also match them: its own
  // storage may be a stale snapshot of the group. Peerless groups accept
  // the rebuild as-is (it is the only copy there is).
  const std::vector<std::size_t> peers = RankedPeers(shard, replica);
  if (!peers.empty()) {
    std::shared_ptr<QbhSystem> peer_sys;
    {
      Replica& peer = *groups_[shard]->replicas[peers[0]];
      std::lock_guard<std::mutex> lock(peer.mu);
      peer_sys = peer.system;
    }
    if (peer_sys != nullptr) {
      std::lock_guard<std::mutex> freeze(alloc_mu_);
      if (system.Digest() != peer_sys->Digest()) {
        return Status::Corruption(
            "shard " + std::to_string(shard) + " replica " +
            std::to_string(replica) +
            " recovered from its own storage but diverges from its group; "
            "ship a snapshot instead");
      }
    }
  }

  InstallReplica(rep, std::move(system), health, pad_failed, lossy);
  RepairCounter().Increment();
  return Status::OK();
}

Status ShardedEngine::RepairReplica(std::size_t shard, std::size_t replica) {
  HUMDEX_CHECK(shard < groups_.size());
  HUMDEX_CHECK(replica < groups_[shard]->replicas.size());
  std::lock_guard<std::mutex> repair_lock(repair_mu_);
  {
    Replica& rep = *groups_[shard]->replicas[replica];
    std::lock_guard<std::mutex> lock(rep.mu);
    if (rep.health != ShardHealth::kQuarantined) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) + " replica " +
          std::to_string(replica) + " is not quarantined");
    }
  }
  // Replica-driven reseed: prefer a fresh snapshot from a serving peer —
  // it is authoritative by construction. Fall back to this replica's own
  // storage only when the group has no peer to ship from.
  Status first_ship = Status::OK();
  for (std::size_t peer : RankedPeers(shard, replica)) {
    Status st = ShipSnapshotLocked(shard, peer, replica);
    if (st.ok()) return st;
    if (first_ship.ok()) first_ship = st;
  }
  Status own = RepairFromOwnStorage(shard, replica);
  if (own.ok()) return own;
  return first_ship.ok() ? own : first_ship;
}

Status ShardedEngine::RepairShard(std::size_t shard) {
  HUMDEX_CHECK(shard < groups_.size());
  const std::size_t rep_count = groups_[shard]->replicas.size();
  bool any_quarantined = false;
  Status first = Status::OK();
  for (std::size_t r = 0; r < rep_count; ++r) {
    {
      Replica& rep = *groups_[shard]->replicas[r];
      std::lock_guard<std::mutex> lock(rep.mu);
      if (rep.health != ShardHealth::kQuarantined) continue;
    }
    any_quarantined = true;
    Status st = RepairReplica(shard, r);
    if (!st.ok() && first.ok()) first = st;
  }
  if (!any_quarantined) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is not quarantined");
  }
  return first;
}

Status ShardedEngine::ReseedShard(
    std::size_t shard, std::vector<std::pair<std::int64_t, Melody>> rows) {
  HUMDEX_CHECK(shard < groups_.size());
  std::lock_guard<std::mutex> repair_lock(repair_mu_);
  if (rows.empty()) {
    return Status::InvalidArgument("reseed needs at least one melody");
  }
  const std::int64_t n = static_cast<std::int64_t>(groups_.size());
  Group& group = *groups_[shard];
  // Take writes away from the old instances first so a racing Insert cannot
  // land a melody in a system about to be replaced.
  QuarantineShard(shard);

  // Freeze the id allocator for the whole rebuild: every replica reserves
  // the same frontier and no id for this shard can burn mid-reseed.
  std::lock_guard<std::mutex> freeze(alloc_mu_);
  const std::int64_t local_next = LocalNextFor(global_next_id_, shard);
  std::uint32_t first_digest = 0;
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    QbhSystem system(opts_.qbh);
    for (std::pair<std::int64_t, Melody>& row : rows) {
      if (row.first < 0 || row.first % n != static_cast<std::int64_t>(shard)) {
        return Status::InvalidArgument(
            "melody id " + std::to_string(row.first) +
            " does not map to shard " + std::to_string(shard));
      }
      // Copies for every replica but the last, which may consume the rows.
      if (r + 1 == group.replicas.size()) {
        HUMDEX_RETURN_IF_ERROR(
            system.AddMelodyWithId(std::move(row.second), row.first / n));
      } else {
        HUMDEX_RETURN_IF_ERROR(
            system.AddMelodyWithId(row.second, row.first / n));
      }
    }
    system.ReserveIds(local_next);
    system.Build();
    const std::uint32_t digest = system.Digest();
    if (r == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      return Status::Internal("reseed of shard " + std::to_string(shard) +
                              " produced diverging replicas");
    }

    std::string path;
    {
      Replica& rep = *group.replicas[r];
      std::lock_guard<std::mutex> lock(rep.mu);
      path = rep.path;
    }
    if (!path.empty()) {
      // Fresh checkpoint + empty log: the reseeded state is durable before
      // it serves (env errors leave this replica quarantined, nothing
      // half-swapped; replicas already installed keep serving).
      HUMDEX_RETURN_IF_ERROR(system.Attach(path, env_));
    }
    InstallReplica(*group.replicas[r], std::move(system),
                   ShardHealth::kHealthy, /*read_only=*/false,
                   /*lossy=*/false);
  }
  RepairCounter().Increment();
  return Status::OK();
}

void ShardedEngine::RepairLoop(std::uint64_t interval_ms) {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!bg_stop_) {
    bg_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                    [this] { return bg_stop_; });
    if (bg_stop_) break;
    lock.unlock();
    // Maintenance pass: first catch silent divergence (quarantining the
    // minority side), then bring every quarantined replica back — by
    // snapshot ship from a peer when one exists, else from its own storage.
    AntiEntropySweep();
    for (std::size_t s = 0; s < groups_.size(); ++s) {
      for (std::size_t r = 0; r < groups_[s]->replicas.size(); ++r) {
        bool quarantined;
        {
          Replica& rep = *groups_[s]->replicas[r];
          std::lock_guard<std::mutex> replica_lock(rep.mu);
          quarantined = rep.health == ShardHealth::kQuarantined;
        }
        // Best effort: a replica that stays broken is retried next tick.
        if (quarantined) {
          Status st = RepairReplica(s, r);
          (void)st;
        }
      }
    }
    lock.lock();
  }
}

void ShardedEngine::StartBackgroundRepair(std::uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(bg_mu_);
  if (bg_thread_.joinable()) return;  // already running
  bg_stop_ = false;
  bg_thread_ = std::thread([this, interval_ms] { RepairLoop(interval_ms); });
}

void ShardedEngine::StopBackgroundRepair() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!bg_thread_.joinable()) return;
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  bg_thread_.join();
  std::lock_guard<std::mutex> lock(bg_mu_);
  bg_thread_ = std::thread();
}

}  // namespace serve
}  // namespace humdex
