#include "gemini/query_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "ts/envelope.h"
#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {
namespace {

// Stage-latency histograms, resolved once per call site (registry entries
// are immortal, so the references stay valid).
obs::Histogram& RangeHistogram(const char* stage) {
  return obs::MetricsRegistry::Default().GetHistogram(
      std::string("query.range.") + stage);
}

obs::Counter& DeadlineExpiredCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("deadline.expired");
  return c;
}

obs::Counter& QueryCancelledCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("query.cancelled");
  return c;
}

// The LB filter checks the clock only every kLbCheckStride candidates: an
// LbKeogh call is a few hundred ns, so a per-candidate clock read would be
// measurable there. Exact DTW checks once per kDtwBatch candidates, one
// lane-kernel call of a few microseconds per candidate.
constexpr std::size_t kLbCheckStride = 16;
constexpr std::size_t kDtwBatch = kernels::kMaxLdtwLanes;

// The cascade compares squared bounds against epsilon^2 with a hair of
// relative slack: kernel variants may round a boundary sum a few ulps either
// way, and a candidate whose distance EQUALS epsilon must survive every
// stage. The final `sqrt(d_sq) <= epsilon` acceptance stays authoritative,
// so the slack admits no false positives.
inline double PruneThreshold(double eps_sq) { return eps_sq + eps_sq * 1e-12; }

/// Per-query stop tracker: answers "should this query keep going?" and, on
/// the first expiry, marks the stats truncated and bumps the right counter
/// exactly once. All checks short-circuit to zero work when no deadline or
/// cancel token is installed.
class StopGuard {
 public:
  explicit StopGuard(const QueryOptions& qopts) : qopts_(qopts) {}

  bool Stopped(QueryStats* local) {
    if (stopped_) return true;
    if (!qopts_.active() || !qopts_.ShouldStop()) return false;
    stopped_ = true;
    local->truncated = true;
    if (qopts_.cancel != nullptr && qopts_.cancel->cancelled()) {
      QueryCancelledCounter().Increment();
    } else {
      DeadlineExpiredCounter().Increment();
    }
    return true;
  }

  bool stopped() const { return stopped_; }

 private:
  const QueryOptions& qopts_;
  bool stopped_ = false;
};

// Exact LDTW of `query` against candidates [0, count), kDtwBatch per
// lane-kernel call: row(i) is candidate i's arena row, and done(i, d_sq)
// receives its exact squared distance, or +infinity once abandoned at
// threshold_sq. Stops between calls once `guard` trips, and counts only real
// candidates (never padding lanes) in local->exact_dtw_calls.
template <typename RowFn, typename DoneFn>
void VerifyExact(const Series& query, std::size_t count, RowFn row,
                 std::size_t band_k, double threshold_sq, StopGuard& guard,
                 QueryStats* local, DoneFn done) {
  const kernels::KernelTable& kern = kernels::ActiveKernels();
  const std::size_t n = query.size();
  std::vector<double> scratch(kernels::LdtwScratchDoubles(n));
  const double* rows[kDtwBatch];
  double d_sq[kDtwBatch];
  for (std::size_t b = 0; b < count; b += kDtwBatch) {
    if (guard.Stopped(local)) break;
    const std::size_t batch = std::min(kDtwBatch, count - b);
    for (std::size_t c = 0; c < batch; ++c) rows[c] = row(b + c);
    kern.ldtw_lanes(query.data(), n, rows, n, batch, band_k, threshold_sq,
                    scratch.data(), d_sq);
    local->exact_dtw_calls += batch;
    for (std::size_t c = 0; c < batch; ++c) done(b + c, d_sq[c]);
  }
}

}  // namespace

DtwQueryEngine::DtwQueryEngine(std::shared_ptr<const FeatureScheme> scheme,
                               QueryEngineOptions options)
    : scheme_(std::move(scheme)),
      options_(options),
      band_k_(BandRadiusForWidth(options.warping_width, options.normal_len)),
      feature_index_(scheme_, options.index),
      arena_(options.normal_len, band_k_) {
  HUMDEX_CHECK(scheme_ != nullptr);
  HUMDEX_CHECK(scheme_->input_dim() == options_.normal_len);
}

void DtwQueryEngine::Add(Series normal_form, std::int64_t id) {
  HUMDEX_CHECK(normal_form.size() == options_.normal_len);
  HUMDEX_CHECK(id >= 0);
  feature_index_.Add(normal_form, id);
  if (static_cast<std::size_t>(id) >= id_to_pos_.size()) {
    id_to_pos_.resize(static_cast<std::size_t>(id) + 1, SIZE_MAX);
  }
  HUMDEX_CHECK_MSG(id_to_pos_[static_cast<std::size_t>(id)] == SIZE_MAX,
                   "duplicate id");
  id_to_pos_[static_cast<std::size_t>(id)] = ids_.size();
  arena_.Append(normal_form);
  ids_.push_back(id);
}

void DtwQueryEngine::AddAll(std::vector<Series> normal_forms) {
  std::vector<std::int64_t> ids(normal_forms.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<std::int64_t>(i);
  AddAll(std::move(normal_forms), ids);
}

void DtwQueryEngine::AddAll(std::vector<Series> normal_forms,
                            const std::vector<std::int64_t>& ids) {
  HUMDEX_CHECK_MSG(ids_.empty(), "AddAll on a non-empty engine");
  HUMDEX_CHECK(normal_forms.size() == ids.size());
  AssignIds(ids);  // validates the ids; id_to_pos_ maps each to its input
  feature_index_.AddBatch(normal_forms, ids);
  // Rows follow the index's probe order (leaf order on an R*-tree), so a
  // probe's candidates are adjacent rows read in ascending order.
  const std::vector<std::int64_t> order = feature_index_.IdsInProbeOrder();
  arena_.Reserve(order.size());
  for (std::int64_t id : order) arena_.Append(normal_forms[PosForId(id)]);
  AssignIds(order);
}

void DtwQueryEngine::AddAllPrebuilt(CandidateArena::Prebuilt rows,
                                    const std::vector<std::int64_t>& ids) {
  HUMDEX_CHECK_MSG(ids_.empty(), "AddAllPrebuilt on a non-empty engine");
  HUMDEX_CHECK(rows.size() == ids.size());
  AssignIds(ids);
  arena_.AttachPrebuilt(std::move(rows));
}

void DtwQueryEngine::AssignIds(const std::vector<std::int64_t>& ids) {
  std::int64_t max_id = -1;
  for (std::int64_t id : ids) {
    HUMDEX_CHECK(id >= 0);
    max_id = std::max(max_id, id);
  }
  id_to_pos_.assign(static_cast<std::size_t>(max_id + 1), SIZE_MAX);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    HUMDEX_CHECK_MSG(id_to_pos_[static_cast<std::size_t>(ids[i])] == SIZE_MAX,
                     "duplicate id");
    id_to_pos_[static_cast<std::size_t>(ids[i])] = i;
  }
  ids_ = ids;
}

std::size_t DtwQueryEngine::PosForId(std::int64_t id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= id_to_pos_.size()) {
    return SIZE_MAX;
  }
  return id_to_pos_[static_cast<std::size_t>(id)];
}

bool DtwQueryEngine::Remove(std::int64_t id) {
  const std::size_t pos = PosForId(id);
  if (pos == SIZE_MAX) return false;
  // Read the row before SwapRemove moves the last row over it.
  const std::span<const double> row = SeriesAt(pos);
  bool removed = feature_index_.Remove(Series(row.begin(), row.end()), id);
  HUMDEX_CHECK_MSG(removed, "engine data and feature index out of sync");
  arena_.SwapRemove(pos);
  if (pos != ids_.size() - 1) {
    ids_[pos] = ids_.back();
    id_to_pos_[static_cast<std::size_t>(ids_[pos])] = pos;
  }
  ids_.pop_back();
  id_to_pos_[static_cast<std::size_t>(id)] = SIZE_MAX;
  return true;
}

std::vector<Neighbor> DtwQueryEngine::RangeQuery(const Series& query,
                                                 double epsilon,
                                                 QueryStats* stats) const {
  return RangeQuery(query, epsilon, QueryOptions(), stats);
}

std::vector<Neighbor> DtwQueryEngine::RangeQuery(const Series& query,
                                                 double epsilon,
                                                 const QueryOptions& qopts,
                                                 QueryStats* stats) const {
  return RangeQueryImpl(query, epsilon, qopts, stats, nullptr);
}

std::vector<Neighbor> DtwQueryEngine::RangeQueryImpl(
    const Series& query, double epsilon, const QueryOptions& qopts,
    QueryStats* stats, const std::vector<std::int64_t>* skip_ids) const {
  HUMDEX_CHECK(query.size() == options_.normal_len);
  HUMDEX_CHECK(epsilon >= 0.0);
  QueryStats local;
  HUMDEX_SPAN(query_span, "query.range");
  const std::uint64_t t_start = obs::MonotonicNowNs();
  StopGuard guard(qopts);

  const double eps_sq = epsilon * epsilon;
  const double prune_sq = PruneThreshold(eps_sq);
  const kernels::KernelTable& kern = kernels::ActiveKernels();
  const std::size_t n = options_.normal_len;

  // Step 2: transformed query envelope, feature-space range query. An
  // already-expired deadline returns before any work.
  std::vector<std::int64_t> candidates;
  Envelope env;
  if (!guard.Stopped(&local)) {
    HUMDEX_SPAN(span, "query.range.index_probe");
    env = BuildEnvelope(query, band_k_);
    IndexStats istats;
    candidates = feature_index_.CandidatesForEnvelope(env, epsilon, &istats);
    local.index_candidates = candidates.size();
    local.page_accesses = istats.page_accesses;
    HUMDEX_SPAN_ATTR(span, "candidates",
                     static_cast<double>(local.index_candidates));
    HUMDEX_SPAN_ATTR(span, "page_accesses",
                     static_cast<double>(local.page_accesses));
  }
  const std::uint64_t t_index = obs::MonotonicNowNs();
  local.index_ns = t_index - t_start;

  // Step 3: the raw-space envelope bound in both directions —
  // LbKeogh(data, Env(query)) <= DTW (Lemma 2 + symmetry) and, from the
  // arena's per-item envelopes, LbKeogh(query, Env(data)). Those are stored
  // as outward-rounded float rows containing the true envelope, so that sum
  // can only fall below the exact one and stays a lower bound. Both in
  // squared space with early abandoning at prune_sq. Skip-listed ids (the
  // kNN seed set) drop out here, uncounted by the pruning counter.
  struct Survivor {
    std::int64_t id;
    std::size_t pos;
  };
  std::vector<Survivor> survivors;
  if (!guard.Stopped(&local)) {
    HUMDEX_SPAN(span, "query.range.lb_keogh");
    survivors.reserve(candidates.size());
    const bool use_keogh = options_.cascade.keogh;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i % kLbCheckStride == 0 && guard.Stopped(&local)) break;
      const std::int64_t id = candidates[i];
      if (skip_ids != nullptr &&
          std::binary_search(skip_ids->begin(), skip_ids->end(), id)) {
        continue;
      }
      const std::size_t pos = id_to_pos_[static_cast<std::size_t>(id)];
      if (use_keogh &&
          (kern.sq_dist_to_box(arena_.series(pos), env.lower.data(),
                               env.upper.data(), n, prune_sq) > prune_sq ||
           kern.sq_dist_to_fbox(query.data(), arena_.env_lo(pos),
                                arena_.env_hi(pos), n, prune_sq) > prune_sq)) {
        ++local.keogh_pruned;
        continue;
      }
      survivors.push_back({id, pos});
    }
    HUMDEX_SPAN_ATTR(span, "pruned", static_cast<double>(local.keogh_pruned));
    HUMDEX_SPAN_ATTR(span, "survivors", static_cast<double>(survivors.size()));
  }
  local.lb_survivors = survivors.size();
  const std::uint64_t t_lb = obs::MonotonicNowNs();
  local.lb_ns = t_lb - t_index;

  // Step 4: exact banded DTW, squared with early abandoning at the same
  // slacked threshold, kDtwBatch survivors per lane-kernel call; one sqrt
  // per accepted candidate, and the plain-space `d <= epsilon` comparison
  // stays the authoritative acceptance test. Checked per batch: whatever
  // verified before expiry is returned (still exact for those ids).
  std::vector<Neighbor> out;
  if (!guard.stopped()) {
    HUMDEX_SPAN(span, "query.range.exact_dtw");
    VerifyExact(
        query, survivors.size(),
        [&](std::size_t i) { return arena_.series(survivors[i].pos); },
        band_k_, prune_sq, guard, &local, [&](std::size_t i, double d_sq) {
          if (d_sq <= prune_sq) {
            double d = std::sqrt(d_sq);
            if (d <= epsilon) out.push_back({survivors[i].id, d});
          }
        });
    std::sort(out.begin(), out.end());
    local.results = out.size();
    HUMDEX_SPAN_ATTR(span, "dtw_calls",
                     static_cast<double>(local.exact_dtw_calls));
    HUMDEX_SPAN_ATTR(span, "results", static_cast<double>(local.results));
  }
  const std::uint64_t t_end = obs::MonotonicNowNs();
  local.dtw_ns = t_end - t_lb;
  local.total_ns = t_end - t_start;
  HUMDEX_SPAN_ATTR(query_span, "truncated", local.truncated ? 1.0 : 0.0);

  static obs::Histogram& h_index = RangeHistogram("index_ns");
  static obs::Histogram& h_lb = RangeHistogram("lb_ns");
  static obs::Histogram& h_dtw = RangeHistogram("dtw_ns");
  static obs::Histogram& h_total = RangeHistogram("total_ns");
  h_index.Record(local.index_ns);
  h_lb.Record(local.lb_ns);
  h_dtw.Record(local.dtw_ns);
  h_total.Record(local.total_ns);

  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<Neighbor> DtwQueryEngine::KnnQuery(const Series& query, std::size_t k,
                                               QueryStats* stats) const {
  return KnnQuery(query, k, QueryOptions(), stats);
}

std::vector<Neighbor> DtwQueryEngine::KnnQuery(const Series& query, std::size_t k,
                                               const QueryOptions& qopts,
                                               QueryStats* stats) const {
  HUMDEX_CHECK(query.size() == options_.normal_len);
  if (ids_.empty() || k == 0) {
    if (stats != nullptr) *stats = QueryStats();
    return {};
  }
  HUMDEX_SPAN(query_span, "query.knn");
  const std::uint64_t t_start = obs::MonotonicNowNs();

  // Step 1 seeds the radius: the largest exact distance among the k
  // feature-nearest ids bounds the true kth distance from above.
  QueryStats local;
  std::vector<Neighbor> out = KnnSeeds(query, k, qopts, &local);
  double radius = 0.0;
  for (const Neighbor& s : out) radius = std::max(radius, s.distance);
  HUMDEX_SPAN_ATTR(query_span, "radius", radius);

  if (local.truncated) {
    // Expiry mid-seed: the seeds verified so far are exact; return those.
    std::sort(out.begin(), out.end());
  } else {
    QueryStats finish;
    out = KnnFinish(query, k, radius, std::move(out), qopts, &finish);
    local += finish;
  }
  local.results = out.size();
  local.total_ns = obs::MonotonicNowNs() - t_start;
  HUMDEX_SPAN_ATTR(query_span, "truncated", local.truncated ? 1.0 : 0.0);

  static obs::Histogram& h_total =
      obs::MetricsRegistry::Default().GetHistogram("query.knn.total_ns");
  h_total.Record(local.total_ns);

  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<Neighbor> DtwQueryEngine::KnnSeeds(const Series& query,
                                               std::size_t k,
                                               const QueryOptions& qopts,
                                               QueryStats* stats) const {
  HUMDEX_CHECK(query.size() == options_.normal_len);
  QueryStats local;
  StopGuard guard(qopts);
  std::vector<Neighbor> seeds;
  if (ids_.empty() || k == 0 || guard.Stopped(&local)) {
    if (stats != nullptr) *stats = local;
    return seeds;
  }
  k = std::min(k, ids_.size());
  HUMDEX_SPAN(span, "query.knn.seed");
  const std::uint64_t t_start = obs::MonotonicNowNs();
  IndexStats istats;
  const std::vector<Neighbor> nearest =
      feature_index_.NearestFeatures(query, k, &istats);
  local.page_accesses = istats.page_accesses;
  // No abandon threshold: every seed distance is exact, so an expiry
  // mid-seed still leaves exact answers behind.
  seeds.reserve(nearest.size());
  VerifyExact(
      query, nearest.size(),
      [&](std::size_t i) {
        const std::size_t pos = PosForId(nearest[i].id);
        HUMDEX_CHECK(pos != SIZE_MAX);
        return arena_.series(pos);
      },
      band_k_, kInfiniteDistance, guard, &local,
      [&](std::size_t i, double d_sq) {
        seeds.push_back({nearest[i].id, std::sqrt(d_sq)});
      });
  // The seed stage is exact-DTW-dominated; bill it to the DTW stage.
  local.dtw_ns = obs::MonotonicNowNs() - t_start;
  local.total_ns = local.dtw_ns;
  HUMDEX_SPAN_ATTR(span, "k", static_cast<double>(k));
  if (stats != nullptr) *stats = local;
  return seeds;
}

std::vector<Neighbor> DtwQueryEngine::KnnFinish(const Series& query,
                                                std::size_t k, double radius,
                                                std::vector<Neighbor> seeds,
                                                const QueryOptions& qopts,
                                                QueryStats* stats) const {
  HUMDEX_CHECK(query.size() == options_.normal_len);
  if (ids_.empty() || k == 0) {
    if (stats != nullptr) *stats = QueryStats();
    return {};
  }
  // Seeds may come from an earlier moment or a peer replica: one removed
  // since then has no row to skip and no name to report, so it drops out.
  seeds.erase(std::remove_if(seeds.begin(), seeds.end(),
                             [this](const Neighbor& s) {
                               return PosForId(s.id) == SIZE_MAX;
                             }),
              seeds.end());

  // Step 2: one range query at `radius`, then rank exactly. The seed ids
  // already have exact distances in hand, so the cascade skips them instead
  // of re-filtering and re-verifying each one; the skip list keeps the range
  // results disjoint from the seed set.
  std::vector<std::int64_t> skip;
  skip.reserve(seeds.size());
  for (const Neighbor& s : seeds) skip.push_back(s.id);
  std::sort(skip.begin(), skip.end());
  QueryStats local;
  std::vector<Neighbor> out = RangeQueryImpl(query, radius, qopts, &local, &skip);
  out.insert(out.end(), seeds.begin(), seeds.end());
  std::sort(out.begin(), out.end());
  if (out.size() > k) out.resize(k);
  local.results = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<std::vector<Neighbor>> DtwQueryEngine::RangeQueryBatch(
    const std::vector<Series>& queries, double epsilon, ThreadPool& pool,
    QueryStats* aggregate) const {
  return RangeQueryBatch(queries, epsilon, pool, QueryOptions(), aggregate);
}

std::vector<std::vector<Neighbor>> DtwQueryEngine::RangeQueryBatch(
    const std::vector<Series>& queries, double epsilon, ThreadPool& pool,
    const QueryOptions& qopts, QueryStats* aggregate) const {
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::vector<QueryStats> stats(queries.size());
  ParallelFor(pool, queries.size(), [&](std::size_t i) {
    results[i] = RangeQuery(queries[i], epsilon, qopts, &stats[i]);
  });
  // Per-query latency distribution: a summed aggregate hides the tail, so
  // every query's wall time also lands in a registry histogram.
  static obs::Histogram& h_per_query =
      obs::MetricsRegistry::Default().GetHistogram(
          "query.batch.range.per_query_ns");
  for (const QueryStats& s : stats) h_per_query.Record(s.total_ns);
  if (aggregate != nullptr) {
    QueryStats total;
    for (const QueryStats& s : stats) total += s;
    *aggregate = total;
  }
  return results;
}

std::vector<std::vector<Neighbor>> DtwQueryEngine::RangeQueryBatch(
    const std::vector<Series>& queries, double epsilon, std::size_t threads,
    QueryStats* aggregate) const {
  ThreadPool pool(threads == 0 ? ThreadPool::DefaultThreadCount() : threads);
  return RangeQueryBatch(queries, epsilon, pool, aggregate);
}

std::vector<std::vector<Neighbor>> DtwQueryEngine::KnnQueryBatch(
    const std::vector<Series>& queries, std::size_t k, ThreadPool& pool,
    QueryStats* aggregate) const {
  return KnnQueryBatch(queries, k, pool, QueryOptions(), aggregate);
}

std::vector<std::vector<Neighbor>> DtwQueryEngine::KnnQueryBatch(
    const std::vector<Series>& queries, std::size_t k, ThreadPool& pool,
    const QueryOptions& qopts, QueryStats* aggregate) const {
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::vector<QueryStats> stats(queries.size());
  ParallelFor(pool, queries.size(), [&](std::size_t i) {
    results[i] = KnnQuery(queries[i], k, qopts, &stats[i]);
  });
  static obs::Histogram& h_per_query =
      obs::MetricsRegistry::Default().GetHistogram(
          "query.batch.knn.per_query_ns");
  for (const QueryStats& s : stats) h_per_query.Record(s.total_ns);
  if (aggregate != nullptr) {
    QueryStats total;
    for (const QueryStats& s : stats) total += s;
    *aggregate = total;
  }
  return results;
}

std::vector<std::vector<Neighbor>> DtwQueryEngine::KnnQueryBatch(
    const std::vector<Series>& queries, std::size_t k, std::size_t threads,
    QueryStats* aggregate) const {
  ThreadPool pool(threads == 0 ? ThreadPool::DefaultThreadCount() : threads);
  return KnnQueryBatch(queries, k, pool, aggregate);
}

std::vector<Neighbor> DtwQueryEngine::KnnQueryOptimal(const Series& query,
                                                      std::size_t k,
                                                      QueryStats* stats) const {
  return KnnQueryOptimal(query, k, QueryOptions(), stats);
}

std::vector<Neighbor> DtwQueryEngine::KnnQueryOptimal(const Series& query,
                                                      std::size_t k,
                                                      const QueryOptions& qopts,
                                                      QueryStats* stats) const {
  HUMDEX_CHECK(query.size() == options_.normal_len);
  QueryStats local;
  StopGuard guard(qopts);
  if (ids_.empty() || k == 0 || guard.Stopped(&local)) {
    if (stats != nullptr) *stats = local;
    return {};
  }
  k = std::min(k, ids_.size());
  HUMDEX_SPAN(query_span, "query.knn_optimal");
  const std::uint64_t t_start = obs::MonotonicNowNs();
  std::uint64_t stage_mark = t_start;
  // The cascade stages interleave per candidate here, so the stage timings
  // are accumulated across the loop rather than measured as one block each.
  auto bill_stage = [&stage_mark](std::uint64_t& bucket) {
    std::uint64_t now = obs::MonotonicNowNs();
    bucket += now - stage_mark;
    stage_mark = now;
  };
  Envelope env = BuildEnvelope(query, band_k_);
  const kernels::KernelTable& kern = kernels::ActiveKernels();
  const std::size_t n = options_.normal_len;
  const bool use_keogh = options_.cascade.keogh;

  // First-pass Keogh sums by id. The doubling re-fetch can hand back an
  // already-examined candidate (tie reordering between prefixes); its sum —
  // exact, or a partial that exceeded a threshold the shrinking heap top can
  // only tighten — stays a valid lower bound, so it is never recomputed.
  std::unordered_map<std::int64_t, double> keogh_memo;
  // Every id examined so far. The stream is walked by membership rather than
  // by a prefix offset, so a backend whose top-F set is not an exact prefix
  // of its top-2F set still has every candidate examined exactly once.
  std::unordered_set<std::int64_t> examined;
  // LdtwDistance takes a Series: a candidate that reaches exact DTW is
  // copied into one reused buffer.
  Series row;
  auto load_row = [this, &row](std::size_t pos) -> const Series& {
    const std::span<const double> stored = SeriesAt(pos);
    row.assign(stored.begin(), stored.end());
    return row;
  };

  // Candidates stream in increasing feature-space lower-bound order. The
  // index is re-queried with a doubling prefix; each re-query is cheap
  // relative to the exact DTW computations it saves.
  //
  // Max-heap of the k best (distance, id) pairs, ordered like the answer:
  // among equal distances the smaller id ranks first, so the top is the
  // neighbor a better candidate evicts, exactly as KnnQuery's final sort
  // would cut it.
  std::priority_queue<Neighbor> best;
  std::size_t fetch = std::max<std::size_t>(2 * k, 16);
  bool done = false;
  while (!done) {
    if (guard.Stopped(&local)) break;
    fetch = std::min(fetch, ids_.size());
    IndexStats istats;
    std::vector<Neighbor> ranked;
    {
      HUMDEX_SPAN(span, "query.knn_optimal.index_probe");
      stage_mark = obs::MonotonicNowNs();
      ranked = feature_index_.NearestToEnvelope(env, fetch, &istats);
      bill_stage(local.index_ns);
      HUMDEX_SPAN_ATTR(span, "fetch", static_cast<double>(fetch));
    }
    local.page_accesses += istats.page_accesses;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      // Per-candidate stop check: the best-so-far heap is already exact.
      if (guard.Stopped(&local)) {
        done = true;
        break;
      }
      // The stream is ascending, so the first entry — examined before or not
      // — whose feature bound exceeds the kth best exact distance proves
      // every unexamined candidate is farther away. A bound merely equal to
      // it does not: that candidate may tie the kth distance with a smaller
      // id and so belong in the answer.
      if (best.size() == k && ranked[i].distance > best.top().distance) {
        done = true;  // optimal stopping condition
        break;
      }
      const std::int64_t id = ranked[i].id;
      if (!examined.insert(id).second) continue;
      ++local.index_candidates;
      const std::size_t pos = id_to_pos_[static_cast<std::size_t>(id)];
      if (best.size() < k) {
        // The heap is still filling: nothing to prune against yet, exact DTW
        // unconditionally.
        ++local.lb_survivors;
        ++local.exact_dtw_calls;
        stage_mark = obs::MonotonicNowNs();
        double d = LdtwDistance(query, load_row(pos), band_k_);
        bill_stage(local.dtw_ns);
        best.push({id, d});
        continue;
      }
      // Squared cap with the usual slack so kernel rounding cannot evict a
      // true neighbor — or a tie of the kth distance; the exact plain-space
      // comparison below stays authoritative. The cap only shrinks over the
      // query's lifetime (the heap top is non-increasing), so memoized
      // partial Keogh sums that exceeded an older threshold still prune
      // correctly.
      const double cap = best.top().distance;
      const double prune_sq = PruneThreshold(cap * cap);
      if (use_keogh) {
        stage_mark = obs::MonotonicNowNs();
        auto memo = keogh_memo.find(id);
        double keogh_sq;
        if (memo != keogh_memo.end()) {
          keogh_sq = memo->second;
        } else {
          keogh_sq = kern.sq_dist_to_box(arena_.series(pos), env.lower.data(),
                                         env.upper.data(), n, prune_sq);
          keogh_memo.emplace(id, keogh_sq);
        }
        const bool pruned =
            keogh_sq > prune_sq ||
            kern.sq_dist_to_fbox(query.data(), arena_.env_lo(pos),
                                 arena_.env_hi(pos), n, prune_sq) > prune_sq;
        bill_stage(local.lb_ns);
        if (pruned) {
          ++local.keogh_pruned;
          continue;
        }
      }
      ++local.lb_survivors;
      ++local.exact_dtw_calls;
      stage_mark = obs::MonotonicNowNs();
      double d_sq = SquaredLdtwDistanceEarlyAbandon(query, load_row(pos),
                                                    band_k_, prune_sq);
      bill_stage(local.dtw_ns);
      if (d_sq <= prune_sq) {
        const Neighbor candidate{id, std::sqrt(d_sq)};
        if (candidate < best.top()) {
          best.pop();
          best.push(candidate);
        }
      }
    }
    if (done) break;
    if (ranked.size() >= ids_.size()) break;  // everything consumed
    fetch = std::min(fetch * 2, ids_.size());
  }

  std::vector<Neighbor> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  local.results = out.size();
  local.total_ns = obs::MonotonicNowNs() - t_start;
  HUMDEX_SPAN_ATTR(query_span, "candidates",
                   static_cast<double>(local.index_candidates));
  HUMDEX_SPAN_ATTR(query_span, "keogh_pruned",
                   static_cast<double>(local.keogh_pruned));
  HUMDEX_SPAN_ATTR(query_span, "survivors",
                   static_cast<double>(local.lb_survivors));
  HUMDEX_SPAN_ATTR(query_span, "dtw_calls",
                   static_cast<double>(local.exact_dtw_calls));
  HUMDEX_SPAN_ATTR(query_span, "truncated", local.truncated ? 1.0 : 0.0);

  static obs::Histogram& h_total =
      obs::MetricsRegistry::Default().GetHistogram(
          "query.knn_optimal.total_ns");
  h_total.Record(local.total_ns);

  if (stats != nullptr) *stats = local;
  return out;
}

std::size_t DtwQueryEngine::RankOf(const Series& query,
                                   std::int64_t target_id) const {
  double target_dist = ExactDistance(query, target_id);
  std::size_t rank = 1;
  Series row;
  for (std::size_t pos = 0; pos < ids_.size(); ++pos) {
    if (ids_[pos] == target_id) continue;
    const std::span<const double> stored = SeriesAt(pos);
    row.assign(stored.begin(), stored.end());
    double d = LdtwDistance(query, row, band_k_);
    if (d < target_dist) ++rank;
  }
  return rank;
}

double DtwQueryEngine::ExactDistance(const Series& query, std::int64_t id) const {
  const std::size_t pos = PosForId(id);
  HUMDEX_CHECK(pos != SIZE_MAX);
  const std::span<const double> row = SeriesAt(pos);
  return LdtwDistance(query, Series(row.begin(), row.end()), band_k_);
}

}  // namespace humdex
