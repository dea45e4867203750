// The complete query-by-humming system (paper §3): a melody database indexed
// under DTW via envelope transforms, queried with raw pitch series.
//
// Ingest:  melody -> time series (§3.2) -> normal form (shift + UTW, §3.3)
//          -> feature vector -> R*-tree.
// Query:   pitch series -> silence removal -> normal form -> GEMINI DTW
//          search (envelope transform range/kNN with exact verification).
//
// After Build() the corpus stays mutable: Insert()/Remove() update the live
// index, and when the system is durable (Attach()/Open()) every mutation is
// write-ahead logged before it is applied, Checkpoint() persists the state
// and truncates the log, and Open() recovers checkpoint + log after a crash.
// See DESIGN.md §9 for the protocol and its invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "gemini/query_engine.h"
#include "music/melody.h"
#include "util/env.h"

namespace humdex {

class WriteAheadLog;

/// Which dimensionality-reduction scheme the system indexes with.
enum class SchemeKind { kNewPaa, kKeoghPaa, kDft, kDwt, kSvd };

/// On-disk checkpoint format (DESIGN.md §14). kV2Text is the line-oriented
/// text format with a CRC32C trailer; kV3Binary the page-aligned,
/// section-tabled binary image that Open() maps and adopts in place. Both
/// load transparently — this option only selects what Checkpoint() writes.
enum class CheckpointFormat { kV2Text, kV3Binary };

struct QbhOptions {
  std::size_t normal_len = 128;    ///< UTW normal form length
  double warping_width = 0.1;      ///< delta (Table 3 tunes this)
  std::size_t feature_dim = 8;     ///< reduced dimensionality
  SchemeKind scheme = SchemeKind::kNewPaa;
  IndexKind index = IndexKind::kRStarTree;
  double samples_per_beat = 8.0;   ///< melody rendering rate
  CascadeOptions cascade;          ///< filter-cascade stage toggles
  /// Checkpoint format. Not persisted as an option line (v2 files stay
  /// byte-stable); loading sets it to the format the file was found in, so a
  /// reopened database checkpoints back in kind.
  CheckpointFormat format = CheckpointFormat::kV2Text;
};

/// A query answer: melody id, its name, and the DTW distance to the query.
struct QbhMatch {
  std::int64_t id;
  std::string name;
  double distance;
};

/// What QbhSystem::Open / OpenSalvage had to do to bring the corpus back.
struct RecoveryStats {
  std::size_t records_replayed = 0;  ///< log mutations applied
  std::size_t records_skipped = 0;   ///< already in the checkpoint (idempotent)
  std::size_t dropped_bytes = 0;     ///< torn/corrupt log tail discarded
  bool torn_tail = false;

  // OpenSalvage only (Open leaves these at their defaults):
  bool salvaged = false;  ///< checkpoint needed best-effort parsing
  std::size_t melodies_dropped = 0;  ///< checkpoint blocks lost to salvage
  /// Salvage kept every survivor's original id (see SalvageReport). When
  /// false the ids were dense-renumbered and the log was discarded — callers
  /// that key on ids (the sharded engine) must not serve this state.
  bool ids_stable = true;

  /// Wall-clock nanoseconds Open/OpenSalvage spent bringing the corpus back
  /// (checkpoint load + WAL replay). Also fed to the `storage.open_ns`
  /// histogram; the mmap ablation and humdexd's startup log read this.
  std::uint64_t open_ns = 0;
};

/// Query-by-humming database. Add melodies, Build(), then Query(); after
/// Build() the corpus stays mutable via Insert()/Remove().
///
/// Threading model: queries are shared-state readers and may run
/// concurrently from any number of threads; Insert/Remove/Checkpoint are
/// writers serialized against them by an internal std::shared_mutex. A query
/// observes either all or none of any mutation (it holds the reader lock for
/// its whole cascade), so batch queries stay exact for the snapshot each one
/// observes. Construction (AddMelody/Build/Attach/Open) is single-threaded.
class QbhSystem {
 public:
  explicit QbhSystem(QbhOptions options = QbhOptions());
  ~QbhSystem();  // out of line: WriteAheadLog is incomplete here
  QbhSystem(QbhSystem&&) noexcept;
  QbhSystem& operator=(QbhSystem&&) noexcept;

  /// Register a melody. Returns its id. Must be called before Build().
  std::int64_t AddMelody(Melody melody);

  /// Storage/recovery plumbing: register a melody under an explicit id
  /// (gaps become tombstones). Pre-Build only; prefer AddMelody.
  Status AddMelodyWithId(Melody melody, std::int64_t id);

  /// Storage/recovery plumbing: extend the id space to `next_id`, padding
  /// with tombstones (a checkpoint whose highest ids were all removed).
  /// Pre-Build only.
  void ReserveIds(std::int64_t next_id);

  /// Fit the feature scheme (SVD needs the corpus) and build the index.
  void Build();

  /// v3 fast-open plumbing: adopt an engine the storage layer assembled from
  /// a checkpoint's prebuilt sections (AddAllPrebuilt + restored index)
  /// instead of running Build(). Valid once, on an unbuilt system whose
  /// melodies are all registered; the engine must hold exactly the system's
  /// live melodies.
  void InstallPrebuiltEngine(std::unique_ptr<DtwQueryEngine> engine);

  /// The built engine, for the persistence layer (serializing arenas and
  /// index pages straight out of it). Null before Build().
  const DtwQueryEngine* engine() const { return engine_.get(); }

  bool built() const { return engine_ != nullptr; }

  /// Number of live (non-removed) melodies.
  std::size_t size() const;

  /// One past the highest id ever allocated; ids are never reused, so
  /// next_id() - size() is the tombstone count.
  std::int64_t next_id() const;

  /// The melody stored under `id`, or nullopt when the id was never
  /// allocated or has been removed. Returns a copy: the reference would not
  /// survive a concurrent Insert.
  std::optional<Melody> melody(std::int64_t id) const;

  const QbhOptions& options() const { return options_; }

  // --- Online mutation (valid after Build()) -------------------------------

  /// Add a melody to the live index and return its id. When the system is
  /// durable the mutation is WAL-appended and fsynced first; a storage
  /// failure leaves the in-memory state untouched and returns the error.
  Result<std::int64_t> Insert(Melody melody);

  /// Remove a melody by id. kNotFound when the id is unknown or already
  /// removed. The last live melody cannot be removed (an empty corpus has no
  /// valid index or checkpoint form).
  Status Remove(std::int64_t id);

  /// Make a built system durable at `path`: writes the checkpoint
  /// atomically and opens `path`.wal for write-ahead logging. Any stale log
  /// at that path is truncated (the fresh checkpoint supersedes it).
  Status Attach(const std::string& path, Env* env = nullptr);

  /// Persist the current corpus to the attached path (temp + fsync +
  /// rename) and truncate the log. A crash anywhere inside leaves a state
  /// Open() recovers exactly: the old checkpoint plus the full log, or the
  /// new checkpoint plus an idempotently re-replayed log.
  Status Checkpoint();

  /// Recover a durable system: load the checkpoint at `path`, replay
  /// `path`.wal up to the first torn or corrupt record (dropping the tail),
  /// and reattach for further mutation.
  static Result<QbhSystem> Open(const std::string& path, Env* env = nullptr,
                                RecoveryStats* stats = nullptr);

  /// Last-resort recovery: like Open, but the checkpoint is parsed
  /// best-effort (corrupt melody blocks become tombstones, a failed checksum
  /// is tolerated). When the salvage kept the id space stable the log is
  /// replayed exactly as in Open; when it could not (`stats->ids_stable`
  /// false) the log is discarded — renumbered ids would attach its explicit
  /// ids to the wrong melodies — and the caller must treat the recovered
  /// state as lossy and id-unsafe. Fails only when nothing is recoverable.
  static Result<QbhSystem> OpenSalvage(const std::string& path,
                                       Env* env = nullptr,
                                       RecoveryStats* stats = nullptr);

  /// Extend the id space to `next_id` with tombstones after Build(): future
  /// Inserts allocate ids from `next_id` upward. No-op when the space is
  /// already that large. A durable system checkpoints immediately so the
  /// padding survives recovery (replay requires consecutively allocated
  /// ids); the sharded engine uses this to re-align a recovered shard whose
  /// lost log tail left its id frontier behind its peers'.
  Status PadIdSpace(std::int64_t next_id);

  /// True when mutations are write-ahead logged (after Attach/Open).
  bool durable() const { return wal_ != nullptr; }

  /// The log path for a database path.
  static std::string WalPathFor(const std::string& db_path) {
    return db_path + ".wal";
  }

  /// Consistent copy of the id-indexed corpus (tombstones included) — what
  /// SerializeQbhDatabase persists.
  std::vector<std::optional<Melody>> CorpusSnapshot() const;

  /// The full corpus serialized to checkpoint bytes (v2 format: options,
  /// id-stable melody blocks, CRC32C trailer) — the unit snapshot
  /// shipping moves between replicas. Consistent: serialized under the
  /// reader lock, so it observes all or none of any concurrent mutation.
  std::string ExportSnapshot() const;

  /// Anti-entropy digest: CRC32C over the id space and every live melody's
  /// bytes (id, name, notes). Two systems hold bit-identical corpora iff
  /// their digests match, regardless of how each was built (Build, WAL
  /// recovery, salvage, snapshot import) — replica groups compare digests to
  /// detect divergence without shipping any data.
  std::uint32_t Digest() const;

  // --- Queries -------------------------------------------------------------

  /// Top-k melodies for a hummed pitch series (silent frames tolerated).
  /// Unservable input (no voiced frames, non-finite values) is rejected: the
  /// result is empty, `stats->rejected` is set, and the process never
  /// aborts.
  std::vector<QbhMatch> Query(const Series& hum_pitch, std::size_t top_k,
                              QueryStats* stats = nullptr) const;

  /// Query under serving controls: `qopts.deadline` / `qopts.cancel` stop
  /// the engine's filter cascade at candidate granularity; best-effort
  /// matches (exact for every candidate examined) come back with
  /// `stats->truncated` set. See DESIGN.md §8 for the failure model.
  std::vector<QbhMatch> Query(const Series& hum_pitch, std::size_t top_k,
                              const QueryOptions& qopts,
                              QueryStats* stats = nullptr) const;

  /// Every melody within DTW distance `epsilon` of the hum, ascending by
  /// (distance, id). Exact, like Query; same rejection and serving-control
  /// semantics.
  std::vector<QbhMatch> RangeQuery(const Series& hum_pitch, double epsilon,
                                   const QueryOptions& qopts = QueryOptions(),
                                   QueryStats* stats = nullptr) const;

  /// Query with an already-derived normal form (HumToNormalForm): the
  /// sharded engine runs the hum pipeline once and fans the normal form out
  /// instead of re-deriving it per shard. An empty series is the rejection
  /// signal, exactly as for Query.
  std::vector<QbhMatch> QueryNormal(const Series& normal_query,
                                    std::size_t top_k,
                                    const QueryOptions& qopts = QueryOptions(),
                                    QueryStats* stats = nullptr) const;

  /// RangeQuery on an already-derived normal form; see QueryNormal.
  std::vector<QbhMatch> RangeQueryNormal(
      const Series& normal_query, double epsilon,
      const QueryOptions& qopts = QueryOptions(),
      QueryStats* stats = nullptr) const;

  /// QueryNormal's two halves (DtwQueryEngine::KnnSeeds / KnnFinish), each
  /// under its own reader lock, for a coordinator that picks one kNN radius
  /// for many shards (DESIGN.md §12). The seeds carry this system's ids and
  /// exact distances; KnnFinishNormal drops any seed removed since, names
  /// the answer, and stores in `*live` (when non-null) the live melody count
  /// it saw under the same lock. Empty normal forms are rejected as in
  /// QueryNormal.
  std::vector<Neighbor> KnnSeedsNormal(const Series& normal_query,
                                       std::size_t top_k,
                                       const QueryOptions& qopts,
                                       QueryStats* stats = nullptr) const;
  std::vector<QbhMatch> KnnFinishNormal(const Series& normal_query,
                                        std::size_t top_k, double radius,
                                        const std::vector<Neighbor>& seeds,
                                        const QueryOptions& qopts,
                                        QueryStats* stats = nullptr,
                                        std::size_t* live = nullptr) const;

  /// Batch form of Query: hums fan out across `pool`'s workers; the i-th
  /// result is exactly Query(hum_pitches[i], top_k) regardless of worker
  /// count. `aggregate`, when non-null, receives the per-query stats summed
  /// in query order.
  std::vector<std::vector<QbhMatch>> QueryBatch(
      const std::vector<Series>& hum_pitches, std::size_t top_k,
      ThreadPool& pool, QueryStats* aggregate = nullptr) const;

  /// Batch form under serving controls. Besides the per-query deadline and
  /// cancel token, `qopts.max_queue_depth` enables overload shedding: a
  /// query whose submission would push `pool`'s queue past the bound is not
  /// run at all — its slot returns an empty, truncated result and the
  /// `qbh.queries_shed` counter is incremented. By default the decision
  /// reads the live pool depth (load-dependent); tests pin it down by
  /// setting `qopts.queue_depth_probe`, which replaces the pool read with an
  /// injected, fully deterministic depth. Leave max_queue_depth at 0 for the
  /// exactness guarantees of the plain overload.
  std::vector<std::vector<QbhMatch>> QueryBatch(
      const std::vector<Series>& hum_pitches, std::size_t top_k,
      ThreadPool& pool, const QueryOptions& qopts,
      QueryStats* aggregate = nullptr) const;

  /// Convenience overload on a transient pool of `threads` workers
  /// (0 = ThreadPool::DefaultThreadCount()).
  std::vector<std::vector<QbhMatch>> QueryBatch(
      const std::vector<Series>& hum_pitches, std::size_t top_k,
      std::size_t threads = 0, QueryStats* aggregate = nullptr) const;

  /// Top-k melodies for raw hum *audio* (mono PCM in [-1,1] at
  /// `sample_rate`): the paper's §3.1 front end — frame-level pitch tracking
  /// feeding the time series pipeline. Malformed audio (empty, non-finite
  /// samples, unusable sample rate) is rejected, never aborted on.
  std::vector<QbhMatch> QueryAudio(const Series& pcm, double sample_rate,
                                   std::size_t top_k,
                                   QueryStats* stats = nullptr) const;

  /// Rank (1 = best) of melody `target_id` for the hummed query; the quality
  /// measure of Tables 2 and 3. Full scan, exact. Returns 0 when the hum is
  /// unservable (see Query) or the target id is not live.
  std::size_t RankOf(const Series& hum_pitch, std::int64_t target_id) const;

  /// The normal form the system derives from a hum (exposed for tests and
  /// diagnostics). Empty when the hum has no voiced frames or contains
  /// non-finite values — the signal Query turns into a rejection.
  Series HumToNormalForm(const Series& hum_pitch) const;

 private:
  /// Compute the indexable normal form of a melody, or an error for notes a
  /// corpus must not contain (non-finite pitch, non-positive duration).
  Result<Series> MelodyNormalForm(const Melody& melody) const;

  /// Engine answers with their melody names; the caller holds the reader
  /// lock under which the engine produced them.
  std::vector<QbhMatch> NamedLocked(const std::vector<Neighbor>& nn) const;

  // Mutation appliers: the caller holds the writer lock; no WAL involved.
  void ApplyInsertLocked(Melody melody, std::int64_t id, Series normal);
  void ApplyRemoveLocked(std::int64_t id);

  // Shared tail of Open/OpenSalvage: replay `path`.wal into `system` (torn
  // or corrupt tails dropped and repaired on disk) and attach it for further
  // mutation. Accumulates into `stats` without resetting fields the caller
  // already filled.
  static Status ReplayLogAndAttach(QbhSystem* system, const std::string& path,
                                   Env* env, RecoveryStats* stats);

  QbhOptions options_;
  // Slot == id; nullopt == tombstone (removed, id never reused).
  std::vector<std::optional<Melody>> melodies_;
  std::size_t live_count_ = 0;
  std::unique_ptr<DtwQueryEngine> engine_;

  // Reader/writer epoch: queries take shared, mutations take exclusive.
  // Behind a unique_ptr so the system stays movable (moving while serving is
  // undefined, as for any container).
  std::unique_ptr<std::shared_mutex> mu_;

  // Durable mode (Attach/Open).
  Env* env_ = nullptr;
  std::string db_path_;
  std::unique_ptr<WriteAheadLog> wal_;
};

}  // namespace humdex
