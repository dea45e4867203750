// Sharded, replicated serving engine (DESIGN.md §12–13): the corpus
// partitioned across N logical shards, each shard served by a **replica
// group** of R members. Every replica owns a full copy of its shard — its
// own QbhSystem, WAL, and checkpoint — so the loss of any R-1 replicas of a
// group changes nothing about the answers.
//
// Id mapping is fixed round robin: global id g lives on shard g % N under
// local id g / N (g = l*N + s). Within a shard, local id order equals global
// id order, so each shard's top-k by (distance, local id) translates
// directly to (distance, global id). kNN runs as one two-step query per
// request: every group returns its k seeds with exact distances, the kth
// smallest of them all becomes the one range radius every group scans at,
// and a radius the serving groups cannot certify falls back to per-shard
// two-step kNN (DESIGN.md §12). Merging by (distance, global id) is
// therefore *bit-identical* to running the query on one unsharded engine,
// whenever every group answers. Which replica of a group answers is
// immaterial: serving replicas are kept bit-identical (see the write path
// below), so the merge proof is unchanged by failover.
//
// Fault isolation: each replica carries its own health state
//
//   kHealthy     serving reads, accepting durable writes
//   kDegraded    serving reads exactly; durability or completeness suspect
//                (read_only: mutations refused; lossy: salvage dropped data)
//   kQuarantined excluded from the fan-out entirely
//
// driven by recovery outcomes (torn WAL tail -> degraded; salvaged
// checkpoint -> degraded+lossy; unrecoverable or id-unstable -> quarantined)
// and by runtime IO errors. A *group* fails a query only when none of its
// replicas can serve it; only then does QueryStats::partial flag the answer.
//
// Write fan-out: a mutation applies to every serving replica of its group
// through each replica's WAL-before-apply path. A replica that does not
// apply a write its group applied — failed append, wrong local id, read-only
// while a peer succeeded — is immediately marked **diverged** and
// quarantined: a replica is either bit-identical to its group or out of the
// fan-out, never silently behind. The whole group being unwritable burns the
// frontier id (never reused) and routes the melody to the next group, as
// before.
//
// Read failover: the per-query snapshot ranks each group's serving replicas
// (healthy before degraded, complete before lossy), rotates equal-rank
// replicas for load spread, and hedged retries route each attempt to a
// different replica — a dead or slow replica costs one attempt slice, not
// the answer. QueryStats::failovers counts attempts served off-preferred.
//
// Recovery is self-service via **snapshot shipping**: a quarantined or
// destroyed replica is rebuilt from a serving peer — the peer checkpoints,
// its checkpoint bytes (v2 format + CRC) are copied through Env (so
// FaultInjectingEnv can crash every step), then under a brief write freeze
// the peer's WAL tail is copied, the copy is opened, its anti-entropy digest
// is compared against the source, and only a digest-identical rebuild is
// pointer-swapped in under live readers. RepairShard/the background loop
// prefer shipping from a peer and fall back to the replica's own storage
// when the group has no serving peer. ReseedShard (authoritative rows from
// the caller) remains as the last-resort path when an entire group is lost.
//
// Divergence that slips past the write path (disk bit rot, operator error)
// is caught by the **anti-entropy digest**: CRC32C over each replica's ids +
// melody bytes, compared across the group by CheckGroupDivergence /
// AntiEntropySweep; the minority side is quarantined and re-shipped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qbh/qbh_system.h"
#include "util/deadline.h"
#include "util/env.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace humdex {
namespace serve {

enum class ShardHealth { kHealthy, kDegraded, kQuarantined };

const char* ShardHealthName(ShardHealth health);

/// Point-in-time view of one shard group (or one replica, via
/// replica_status) for health endpoints and tests. For a group the health is
/// the best replica's, read_only means *no* serving replica takes writes,
/// lossy reflects the replica reads would prefer, and io_errors/repairs sum
/// over the replicas.
struct ShardStatus {
  ShardHealth health = ShardHealth::kHealthy;
  bool read_only = false;  ///< mutations refused (storage failing)
  bool lossy = false;      ///< salvage dropped melodies: answers are partial
  std::size_t live_melodies = 0;
  std::size_t io_errors = 0;  ///< consecutive mutation/checkpoint IO failures
  std::size_t repairs = 0;    ///< successful repair/reseed/ship completions
  std::size_t replicas = 1;   ///< group size R
  std::size_t serving_replicas = 1;  ///< replicas not quarantined
};

struct ShardedOptions {
  std::size_t num_shards = 4;

  /// Replicas per shard group. Every replica holds a full copy of its shard
  /// with its own WAL and checkpoint; R=1 reproduces the unreplicated PR-7
  /// engine (same disk layout, same semantics).
  std::size_t replication = 1;

  QbhOptions qbh;  ///< per-shard system options (must match on reopen)

  /// Worker threads for the scatter-gather fan-out and batch queries
  /// (0 = ThreadPool::DefaultThreadCount()).
  std::size_t query_threads = 0;

  /// Hedged retry: per-shard attempt budget. With k attempts and a query
  /// deadline, attempt i gets remaining/(k-i) of the budget; an attempt that
  /// exhausts its slice (truncated) is retried with the next slice instead
  /// of eating the whole deadline on one slow shard. With replication,
  /// attempt i is routed to the group's (i mod serving)-th ranked replica,
  /// so a retry lands on different hardware. 1 disables hedging.
  int attempts_per_shard = 1;

  /// Consecutive mutation/checkpoint IO failures before a replica is
  /// quarantined outright (the first failure already degrades it to
  /// read-only).
  std::size_t quarantine_after_io_errors = 3;

  /// Test hook: when set, called as (shard, attempt); returning true makes
  /// that attempt fail without touching the shard — a deterministic stand-in
  /// for a slow or hung replica, exercising the hedge/failover/partial paths.
  /// It governs the hedged range attempts (for kNN, the step at the
  /// request-wide radius and any fallback); the kNN seed step runs once on
  /// the preferred replica.
  std::function<bool(std::size_t, int)> fail_attempt_hook;
};

class ShardedEngine {
 public:
  /// Partition `corpus` round robin across num_shards fresh groups and build
  /// every replica of every group from its group's rows. Needs at least one
  /// melody per shard (an empty shard has no valid index). The resulting
  /// answers are bit-identical to a single QbhSystem built from the same
  /// corpus in the same order.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      std::vector<Melody> corpus, ShardedOptions opts);

  /// Make every replica durable under `dir` (shard s replica r at
  /// ReplicaPath(dir, s, r)).
  Status AttachAll(const std::string& dir, Env* env = nullptr);

  /// Recover a sharded engine from `dir`. Each replica recovers
  /// independently: strict Open first, salvage next, quarantine last — one
  /// destroyed replica never stops its peers, and one destroyed group never
  /// stops the others. Fails only when not a single replica of a single
  /// group is recoverable. Per-shard recovery stats (the first serving
  /// replica's) land in `*recovery`; fully-quarantined groups report default
  /// stats.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      const std::string& dir, ShardedOptions opts, Env* env = nullptr,
      std::vector<RecoveryStats>* recovery = nullptr);

  /// Replica 0's path equals the unreplicated ShardPath, so R=1 layouts
  /// written by older engines reopen unchanged.
  static std::string ShardPath(const std::string& dir, std::size_t shard);
  static std::string ReplicaPath(const std::string& dir, std::size_t shard,
                                 std::size_t replica);

  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Queries (scatter-gather) -------------------------------------------

  /// Top-k across all serving groups, merged by (distance, global id).
  /// Bit-identical to the unsharded answer when every group serves; with
  /// failed groups the answer is exact over the groups that answered and
  /// `stats->partial` / `stats->shards_failed` say so. The stats sum both
  /// kNN steps: exact_dtw_calls and page_accesses include every group's
  /// seed DTWs and seed probe.
  std::vector<QbhMatch> Query(const Series& hum_pitch, std::size_t top_k,
                              const QueryOptions& qopts = QueryOptions(),
                              QueryStats* stats = nullptr) const;

  /// Range query across all serving groups, ascending (distance, global id).
  std::vector<QbhMatch> RangeQuery(const Series& hum_pitch, double epsilon,
                                   const QueryOptions& qopts = QueryOptions(),
                                   QueryStats* stats = nullptr) const;

  /// Batch queries fan out across the engine's pool (one task per query;
  /// each task scatters its shards inline — no nested pool waits). With
  /// `qopts.max_queue_depth` set, queries whose submission would push the
  /// pool past that depth are shed (empty, truncated result) instead of
  /// queued to miss their deadline; `qopts.queue_depth_probe` makes the
  /// decision deterministic in tests.
  std::vector<std::vector<QbhMatch>> QueryBatch(
      const std::vector<Series>& hum_pitches, std::size_t top_k,
      const QueryOptions& qopts = QueryOptions(),
      QueryStats* aggregate = nullptr) const;

  // --- Mutation ------------------------------------------------------------

  /// Insert at the global id frontier, fanned out to every serving replica
  /// of the target group (frontier % N). The insert succeeds when at least
  /// one replica applies it; a serving replica that did not apply it is
  /// quarantined as diverged. A group with no writable replica is skipped
  /// and its frontier id is burned — ids are never reused, so the hole stays
  /// a tombstone and the next writable group takes the melody. Fails when no
  /// group can take writes.
  Result<std::int64_t> Insert(Melody melody);

  /// Remove a global id from every serving replica of its group.
  /// kFailedPrecondition when the group is quarantined or wholly read-only.
  Status Remove(std::int64_t global_id);

  /// Checkpoint every writable replica. A replica whose checkpoint succeeds
  /// and whose degradation was only durability-suspicion (torn tail, earlier
  /// IO errors — not lossy) is promoted back to healthy. Returns the first
  /// error but keeps checkpointing the rest.
  Status CheckpointAll();

  // --- Introspection -------------------------------------------------------

  std::size_t num_shards() const { return groups_.size(); }
  std::size_t replication() const { return opts_.replication; }
  std::size_t size() const;      ///< live melodies across serving groups
  std::int64_t next_id() const;  ///< global id frontier
  ShardStatus shard_status(std::size_t shard) const;  ///< group roll-up
  ShardStatus replica_status(std::size_t shard, std::size_t replica) const;
  std::size_t serving_shards() const;  ///< groups with >=1 serving replica
  std::optional<Melody> melody(std::int64_t global_id) const;
  const ShardedOptions& options() const { return opts_; }

  // --- Fault handling ------------------------------------------------------

  /// Ops/chaos hook: exclude a whole group from the fan-out immediately.
  void QuarantineShard(std::size_t shard);

  /// Ops/chaos hook: exclude one replica; its peers keep serving.
  void QuarantineReplica(std::size_t shard, std::size_t replica);

  /// Anti-entropy digest of one serving replica (CRC32C over its ids +
  /// melody bytes). kFailedPrecondition when the replica is not serving.
  Result<std::uint32_t> ReplicaDigest(std::size_t shard,
                                      std::size_t replica) const;

  /// Compare the digests of one group's serving replicas; quarantine every
  /// replica that disagrees with the majority (ties break toward the set
  /// containing the lowest replica index). Returns how many replicas were
  /// quarantined as diverged. The background loop re-ships them.
  std::size_t CheckGroupDivergence(std::size_t shard);

  /// CheckGroupDivergence over every group; returns the total quarantined.
  std::size_t AntiEntropySweep();

  /// Rebuild quarantined replica `to` of `shard` from serving replica
  /// `from`: checkpoint the source, copy its checkpoint bytes through Env,
  /// freeze writes briefly to copy the WAL tail, open + digest-verify the
  /// copy, and swap it in under live readers. Any failure — including a
  /// digest mismatch — leaves `to` quarantined and untouched in memory;
  /// nothing is ever half-swapped.
  Status ShipSnapshot(std::size_t shard, std::size_t from, std::size_t to);

  /// Bring one quarantined replica back: ship a snapshot from a serving peer
  /// when the group has one (preferring healthy, complete peers), otherwise
  /// re-open the replica's own storage (strict recovery, then salvage). The
  /// rejoined replica's id frontier is re-aligned (padded) to the global
  /// allocator.
  Status RepairReplica(std::size_t shard, std::size_t replica);

  /// Repair every quarantined replica of `shard` (kFailedPrecondition when
  /// none is quarantined). Returns the first error but keeps repairing.
  Status RepairShard(std::size_t shard);

  /// Rebuild every replica of a shard from authoritative (global id, melody)
  /// rows — the operator-driven path of last resort for a group whose every
  /// replica is beyond salvage. Every id must map to this shard
  /// (id % N == shard). The group rejoins healthy with fresh checkpoints,
  /// digest-identical replicas, and bit-exact answers.
  Status ReseedShard(std::size_t shard,
                     std::vector<std::pair<std::int64_t, Melody>> rows);

  /// Background maintenance every `interval_ms` until StopBackgroundRepair
  /// (or destruction): an anti-entropy sweep, then a repair pass over every
  /// quarantined replica (snapshot ship from a peer when one exists). Reads
  /// never stop while repairs run.
  void StartBackgroundRepair(std::uint64_t interval_ms);
  void StopBackgroundRepair();

  /// The hum -> normal-form front half of a query (shared by all shards; the
  /// sharded engine derives it once per query). Empty = unservable input.
  Series HumToNormalForm(const Series& hum_pitch) const;

 private:
  struct Replica {
    // Guards health fields and the system pointer. Readers hold it only to
    // copy the shared_ptr; repair swaps the pointer under it. Mutations hold
    // it across the (already per-replica-serialized) QbhSystem call so a
    // repair swap cannot race a write into a doomed instance. Lock order:
    // repair_mu_ before alloc_mu_ before any replica mu.
    mutable std::mutex mu;
    std::shared_ptr<QbhSystem> system;  // null while quarantined-unloadable
    ShardHealth health = ShardHealth::kHealthy;
    bool read_only = false;
    bool lossy = false;
    std::size_t io_errors = 0;
    std::size_t repairs = 0;
    std::string path;  // empty until AttachAll/Open
  };

  struct Group {
    std::vector<std::unique_ptr<Replica>> replicas;
    // Rotates which equal-rank replica serves first, spreading read load.
    mutable std::atomic<std::uint64_t> read_rr{0};
  };

  struct GroupSnapshot {
    // Serving replicas in failover order (preferred first); empty when the
    // whole group is down for this query.
    std::vector<std::shared_ptr<QbhSystem>> systems;
    bool lossy = false;  // the preferred replica is missing salvaged data
  };

  explicit ShardedEngine(ShardedOptions opts);

  /// Copy each group's serving systems under their mutexes, ranked for
  /// failover. Fills stats->shards_failed/partial for downed groups.
  std::vector<GroupSnapshot> Snapshot(QueryStats* stats) const;

  /// One attempt's work: the QbhSystem call a scatter phase makes on one
  /// replica of `shard`, under the attempt's QueryOptions.
  using ShardCall = std::function<std::vector<QbhMatch>(
      std::size_t shard, const QbhSystem& system, const QueryOptions& qopts,
      QueryStats* stats)>;

  /// One group's contribution, with hedged attempts, per-attempt deadline
  /// slices, and per-attempt replica failover. Local ids are translated to
  /// global before returning. `*ok` false = every attempt failed (the group
  /// counts as failed for this query).
  std::vector<QbhMatch> ShardQuery(std::size_t shard,
                                   const GroupSnapshot& snap,
                                   const ShardCall& call,
                                   const QueryOptions& qopts,
                                   QueryStats* stats, bool* ok) const;

  /// Scatter `normal` over the snapshots (in parallel on pool_ when
  /// `parallel`; inline when already running on a pool worker), merge by
  /// (distance, global id). kNN scatters twice — seeds, then one range
  /// radius for every shard — and certifies the radius (DESIGN.md §12).
  std::vector<QbhMatch> ScatterGather(const Series& normal, bool knn,
                                      std::size_t top_k, double epsilon,
                                      const QueryOptions& qopts,
                                      QueryStats* stats, bool parallel) const;

  /// Local ids this shard needs allocated to cover global frontier `g`.
  std::int64_t LocalNextFor(std::int64_t global_next, std::size_t shard) const;

  void NoteIoErrorLocked(Replica& replica);
  void QuarantineReplicaLocked(Replica& replica);
  /// Swap a rebuilt system into `replica` (under its mu) with fresh health.
  void InstallReplica(Replica& replica, QbhSystem system, ShardHealth health,
                      bool read_only, bool lossy);
  /// Serving peers of `shard` ranked ship-source-first; excludes `except`.
  std::vector<std::size_t> RankedPeers(std::size_t shard,
                                       std::size_t except) const;
  /// ShipSnapshot's body; repair_mu_ already held by the caller.
  Status ShipSnapshotLocked(std::size_t shard, std::size_t from,
                            std::size_t to);
  /// RepairReplica's fall-back half (repair_mu_ held): re-open `replica`
  /// from its own storage.
  Status RepairFromOwnStorage(std::size_t shard, std::size_t replica);
  void RepairLoop(std::uint64_t interval_ms);

  ShardedOptions opts_;
  std::vector<std::unique_ptr<Group>> groups_;
  mutable ThreadPool pool_;
  Env* env_ = nullptr;

  // Global id allocator: next never-used global id. Guarded by alloc_mu_,
  // which also serializes every mutation — so holding it freezes writes,
  // which is exactly what snapshot shipping's catch-up phase needs.
  mutable std::mutex alloc_mu_;
  std::int64_t global_next_id_ = 0;

  // Serializes RepairReplica/ShipSnapshot/ReseedShard (repairs are rare and
  // slow; two racing repairs of one replica would double-swap).
  std::mutex repair_mu_;

  // Background maintenance thread.
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  std::thread bg_thread_;
};

}  // namespace serve
}  // namespace humdex
