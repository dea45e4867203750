// The end-to-end DTW query pipeline of §4.3, run as a squared-space
// three-stage cascade (DESIGN.md §10):
//
//   1. every data series is reduced to a feature vector and indexed;
//   2. a query's k-envelope is transformed to a feature-space rectangle, and
//      an epsilon-range query on the index returns a candidate superset (no
//      false negatives by Theorem 1);
//   3. candidates pass the raw-space envelope bound LB_Keogh in both
//      directions (Lemma 2 + symmetry), against the query's envelope and
//      against each candidate's precomputed envelope;
//   4. survivors are verified with the exact banded DTW, several candidates
//      per lane-parallel kernel call, with per-lane early abandoning.
//
// Every stage compares squared distances against epsilon^2; the single sqrt
// per reported result happens at the very end. The cascade is exact: each
// stage is a true lower bound, so the result set is identical to a brute
// force scan whether or not the Keogh stage runs and whichever SIMD kernel
// variant (ts/kernels.h) runs it.
//
// kNN queries use the two-step scheme of Korn et al. [17] cited by the
// paper, exposed as two halves so a coordinator can pick one radius for many
// engines (DESIGN.md §12):
//
//   KnnSeeds   exact DTW of the k feature-nearest ids; any k exact distances
//              bound the true kth distance from above;
//   KnnFinish  one range query at a caller-chosen radius, skipping the seeds,
//              merged with them and ranked by (distance, id).
//
// KnnQuery is exactly those two halves with the radius set to the largest of
// its own seed distances. KnnFinish is exact whenever at least min(k, size())
// of its answers lie within the radius: then every true top-k member does.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gemini/candidate_arena.h"
#include "gemini/feature_index.h"
#include "ts/dtw.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace humdex {

/// Per-query instrumentation: the implementation-bias-free cost measures of
/// §5.3 plus the filter-cascade breakdown, and the wall-clock side — per-stage
/// monotonic-clock nanoseconds, always collected (a handful of clock reads per
/// query). For distributions rather than sums, the engine also feeds the
/// stage latencies into the obs metrics registry; see DESIGN.md §7. The
/// kim/triangle/refine/improved fields belong to removed cascade stages
/// (DESIGN.md §11); they stay so that stats consumers keep their schema, and
/// always read 0.
struct QueryStats {
  std::size_t index_candidates = 0;  ///< ids returned by the feature index
  std::size_t kim_pruned = 0;        ///< removed stage: always 0
  std::size_t triangle_pruned = 0;   ///< removed stage: always 0
  std::size_t refine_pruned = 0;     ///< removed stage: always 0
  std::size_t keogh_pruned = 0;      ///< ids dropped by the LB_Keogh stage
  std::size_t improved_pruned = 0;   ///< removed stage: always 0
  std::size_t lb_survivors = 0;      ///< ids entering exact DTW verification
  std::size_t results = 0;           ///< ids verified by exact DTW
  /// Index pages touched. For kNN this includes the seed step's
  /// feature-space kNN probe, not only the range probe.
  std::size_t page_accesses = 0;
  /// Banded DTW computations performed. For kNN this includes the k seed
  /// DTWs, not only the range step's verifications.
  std::size_t exact_dtw_calls = 0;

  std::uint64_t index_ns = 0;     ///< envelope build + feature-index probe time
  std::uint64_t lb_ns = 0;        ///< LB_Keogh envelope-bound filter time
  std::uint64_t triangle_ns = 0;  ///< removed stage: always 0
  std::uint64_t refine_ns = 0;    ///< removed stage: always 0
  std::uint64_t improved_ns = 0;  ///< removed stage: always 0
  std::uint64_t dtw_ns = 0;       ///< exact banded DTW verification time
  std::uint64_t total_ns = 0;     ///< whole-query wall time (>= the stage sum)

  /// True when the query stopped early (deadline expired, cancelled, or
  /// shed under overload) and the results are best-effort: exact for every
  /// candidate examined, but possibly missing candidates never reached.
  bool truncated = false;

  /// True when the serving layer refused the input outright (a hum with no
  /// voiced frames, non-finite samples, an unusable audio rate): the result
  /// is empty by construction, and the process did not abort.
  bool rejected = false;

  /// Sharded serving (src/serve): how many shards could not contribute to
  /// this answer — quarantined and excluded from the fan-out, or failed
  /// mid-query. 0 on a single engine.
  std::size_t shards_failed = 0;

  /// True when the answer is known to cover less than the full corpus: one
  /// or more shards were excluded (shards_failed > 0) or a serving shard is
  /// missing salvage-dropped data. A partial answer is still exact for every
  /// melody on the shards that did answer — degraded, never wrong. False on
  /// a single engine and on a fully healthy sharded fan-out, whose answers
  /// are bit-identical.
  bool partial = false;

  /// Replicated serving (src/serve): how many per-shard attempts were served
  /// by a replica other than the group's preferred one — read failover after
  /// a dead or slow preferred replica, or a hedged retry routed to a peer.
  /// 0 on a single engine and on an unreplicated (R=1) fan-out.
  std::size_t failovers = 0;

  /// Accumulate another query's counters and timings (batch aggregation).
  QueryStats& operator+=(const QueryStats& other) {
    index_candidates += other.index_candidates;
    kim_pruned += other.kim_pruned;
    triangle_pruned += other.triangle_pruned;
    refine_pruned += other.refine_pruned;
    keogh_pruned += other.keogh_pruned;
    improved_pruned += other.improved_pruned;
    lb_survivors += other.lb_survivors;
    results += other.results;
    page_accesses += other.page_accesses;
    exact_dtw_calls += other.exact_dtw_calls;
    index_ns += other.index_ns;
    lb_ns += other.lb_ns;
    triangle_ns += other.triangle_ns;
    refine_ns += other.refine_ns;
    improved_ns += other.improved_ns;
    dtw_ns += other.dtw_ns;
    total_ns += other.total_ns;
    truncated = truncated || other.truncated;
    rejected = rejected || other.rejected;
    shards_failed += other.shards_failed;
    partial = partial || other.partial;
    failovers += other.failovers;
    return *this;
  }
};

/// Which optional lower-bound stages the filter cascade runs. The stage is a
/// true lower bound, so disabling it never changes the result set — it only
/// shifts work onto exact DTW. Exposed for the oracle tests and the ablation
/// bench that measure its pruning power.
struct CascadeOptions {
  bool keogh = true;  ///< O(n) LB_Keogh envelope stage (both directions)
};

/// Engine options. Data and queries must be normal forms of length
/// `normal_len` (use NormalForm()); the band radius is derived from
/// `warping_width` as in §4.2.
struct QueryEngineOptions {
  std::size_t normal_len = 128;
  double warping_width = 0.1;
  FeatureIndexOptions index;
  CascadeOptions cascade;
};

/// DTW similarity search engine over a fixed corpus of normal-form series.
class DtwQueryEngine {
 public:
  DtwQueryEngine(std::shared_ptr<const FeatureScheme> scheme,
                 QueryEngineOptions options);

  /// Add a normal-form series (length must equal options.normal_len).
  void Add(Series normal_form, std::int64_t id);

  /// Bulk-build the engine from a whole corpus (ids 0..n-1). Uses STR
  /// packing on R*-tree backends, and lays the arena rows out in the
  /// index's probe order (FeatureIndex::IdsInProbeOrder), so the rows of
  /// a probe's candidates are read in ascending order. Only valid while the
  /// engine is empty.
  void AddAll(std::vector<Series> normal_forms);

  /// Bulk-build with explicit (not necessarily dense) non-negative ids, one
  /// per series — the recovery path, where removed melodies leave gaps in
  /// the id space. Same bulk-load behavior as the dense overload.
  void AddAll(std::vector<Series> normal_forms,
              const std::vector<std::int64_t>& ids);

  /// v3 fast-open bulk build (DESIGN.md §14): adopt `rows`, filled by the
  /// caller from arena().AllocatePrebuilt(ids.size()) in the order of
  /// `ids` (unique, in any order; a checkpoint writes them in probe
  /// order). Deliberately leaves the feature index alone: the caller restores
  /// it from serialized pages or stored feature vectors
  /// (mutable_feature_index()). Only valid while the engine is empty.
  void AddAllPrebuilt(CandidateArena::Prebuilt rows,
                      const std::vector<std::int64_t>& ids);

  /// Remove a stored series by id. Returns false when the id is unknown.
  /// Subsequent queries behave as if it was never added.
  bool Remove(std::int64_t id);

  std::size_t size() const { return ids_.size(); }
  std::size_t band_radius() const { return band_k_; }

  /// Read access for the persistence layer: the SoA arena (series rows are
  /// serialized straight out of it) and per-position rows.
  const CandidateArena& arena() const { return arena_; }
  /// Arena row of `id`, or SIZE_MAX when absent.
  std::size_t PosForId(std::int64_t id) const;
  /// The stored normal form at arena row `pos`: a view of the row itself
  /// (the engine keeps no other copy), valid until the next Add or Remove.
  std::span<const double> SeriesAt(std::size_t pos) const {
    return {arena_.series(pos), options_.normal_len};
  }

  /// The backing feature index — persistence hooks (page serialization on
  /// the way out, AttachRStarTree / AddBatchFeatures on a v3 open).
  const FeatureIndex& feature_index() const { return feature_index_; }
  FeatureIndex* mutable_feature_index() { return &feature_index_; }

  /// All ids with DTW_k(query, data) <= epsilon, with exact distances,
  /// ascending. Exact: no false positives, no false negatives.
  std::vector<Neighbor> RangeQuery(const Series& query, double epsilon,
                                   QueryStats* stats = nullptr) const;

  /// RangeQuery under serving controls: the deadline/cancel token in `qopts`
  /// is checked at candidate granularity through the filter cascade. When it
  /// fires, the query returns the results verified so far (each still exact)
  /// with `stats->truncated` set; an already-expired deadline returns
  /// immediately with zero exact-DTW work. With default QueryOptions the
  /// answers are bit-identical to the uncontrolled overload.
  std::vector<Neighbor> RangeQuery(const Series& query, double epsilon,
                                   const QueryOptions& qopts,
                                   QueryStats* stats = nullptr) const;

  /// The k nearest ids under DTW_k, ascending by distance. Exact.
  /// Two-step algorithm (Korn et al. [17]): KnnSeeds, then KnnFinish at the
  /// largest seed distance.
  std::vector<Neighbor> KnnQuery(const Series& query, std::size_t k,
                                 QueryStats* stats = nullptr) const;

  /// KnnQuery under serving controls (see the RangeQuery overload). On
  /// expiry the best exact matches found so far are returned, flagged
  /// truncated.
  std::vector<Neighbor> KnnQuery(const Series& query, std::size_t k,
                                 const QueryOptions& qopts,
                                 QueryStats* stats = nullptr) const;

  /// KnnQuery's first half: the min(k, size()) ids nearest in feature space,
  /// each with its exact DTW distance (never abandoned), in index order.
  /// Stats carry the seed probe's page accesses and DTW calls, with the
  /// step's wall time billed to dtw_ns. On expiry the seeds verified so far
  /// come back, flagged truncated.
  std::vector<Neighbor> KnnSeeds(const Series& query, std::size_t k,
                                 const QueryOptions& qopts,
                                 QueryStats* stats = nullptr) const;

  /// KnnQuery's second half: the top k by (distance, id) of `seeds` (exact
  /// distances, e.g. from KnnSeeds on this engine or on a replica holding
  /// the same series under the same ids) together with every id within
  /// `radius`. Seeds that are no longer stored are dropped. The answer is
  /// the exact k nearest whenever `radius` is at least the true kth
  /// distance — certified when min(k, size()) answers lie within it.
  std::vector<Neighbor> KnnFinish(const Series& query, std::size_t k,
                                  double radius, std::vector<Neighbor> seeds,
                                  const QueryOptions& qopts,
                                  QueryStats* stats = nullptr) const;

  /// Batch form of RangeQuery: queries fan out across `pool`'s workers; the
  /// i-th result is exactly RangeQuery(queries[i], epsilon) — same ids, same
  /// distances, independent of worker count. The read path is const and
  /// thread-safe after the corpus is built (see DESIGN.md, threading model).
  /// When non-null, `aggregate` receives the per-query stats summed in query
  /// order.
  std::vector<std::vector<Neighbor>> RangeQueryBatch(
      const std::vector<Series>& queries, double epsilon, ThreadPool& pool,
      QueryStats* aggregate = nullptr) const;

  /// Batch RangeQuery under serving controls; `qopts` (deadline, cancel)
  /// applies to every query in the batch.
  std::vector<std::vector<Neighbor>> RangeQueryBatch(
      const std::vector<Series>& queries, double epsilon, ThreadPool& pool,
      const QueryOptions& qopts, QueryStats* aggregate = nullptr) const;

  /// Convenience overload running on a transient pool of `threads` workers
  /// (0 = ThreadPool::DefaultThreadCount()).
  std::vector<std::vector<Neighbor>> RangeQueryBatch(
      const std::vector<Series>& queries, double epsilon,
      std::size_t threads = 0, QueryStats* aggregate = nullptr) const;

  /// Batch form of KnnQuery, with the same exactness and determinism
  /// guarantees as RangeQueryBatch.
  std::vector<std::vector<Neighbor>> KnnQueryBatch(
      const std::vector<Series>& queries, std::size_t k, ThreadPool& pool,
      QueryStats* aggregate = nullptr) const;

  std::vector<std::vector<Neighbor>> KnnQueryBatch(
      const std::vector<Series>& queries, std::size_t k, ThreadPool& pool,
      const QueryOptions& qopts, QueryStats* aggregate = nullptr) const;

  std::vector<std::vector<Neighbor>> KnnQueryBatch(
      const std::vector<Series>& queries, std::size_t k,
      std::size_t threads = 0, QueryStats* aggregate = nullptr) const;

  /// The same k nearest ids via the *optimal multi-step* algorithm of
  /// Seidl-Kriegel [26]: candidates stream in increasing DTW-lower-bound
  /// order; exact DTW is computed one candidate at a time; the search stops
  /// as soon as the next lower bound exceeds the kth best exact distance.
  /// Performs the provably minimal number of exact computations for the
  /// lower bound in use. Exact; same answers as KnnQuery, ties included:
  /// among equal distances the smaller id ranks first.
  std::vector<Neighbor> KnnQueryOptimal(const Series& query, std::size_t k,
                                        QueryStats* stats = nullptr) const;

  /// KnnQueryOptimal under serving controls: the candidate stream is checked
  /// per candidate; on expiry the current best-so-far set is returned,
  /// flagged truncated.
  std::vector<Neighbor> KnnQueryOptimal(const Series& query, std::size_t k,
                                        const QueryOptions& qopts,
                                        QueryStats* stats = nullptr) const;

  /// Rank of `target_id` in the DTW ordering for `query` (1 = best). Uses a
  /// full scan; intended for quality experiments (Tables 2 and 3).
  std::size_t RankOf(const Series& query, std::int64_t target_id) const;

  /// Exact banded DTW between the query and a stored series.
  double ExactDistance(const Series& query, std::int64_t id) const;

 private:
  /// Bulk-build bookkeeping: rows 0..n-1 hold `ids` in order (each
  /// non-negative and unique; checked).
  void AssignIds(const std::vector<std::int64_t>& ids);

  /// The shared range cascade. `skip_ids` (sorted ascending, may be null)
  /// are candidates whose exact distances the caller already holds — the kNN
  /// seed set — and are dropped before any filter work, uncounted by the
  /// pruning counters.
  std::vector<Neighbor> RangeQueryImpl(
      const Series& query, double epsilon, const QueryOptions& qopts,
      QueryStats* stats, const std::vector<std::int64_t>* skip_ids) const;

  std::shared_ptr<const FeatureScheme> scheme_;
  QueryEngineOptions options_;
  std::size_t band_k_;
  FeatureIndex feature_index_;
  std::vector<std::int64_t> ids_;       // arena row -> id
  std::vector<std::size_t> id_to_pos_;  // dense id -> arena row map
  CandidateArena arena_;  // the only store of each series and its envelope
};

}  // namespace humdex
