#include "qbh/qbh_system.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>

#include "audio/pitch_detect.h"
#include "music/pitch_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbh/storage.h"
#include "qbh/storage_v3.h"
#include "qbh/wal.h"
#include "ts/normal_form.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace humdex {

namespace {

// The PitchDetector front end needs enough samples per analysis window and
// at least one per hop; rates outside this envelope are rejected rather than
// allowed to trip its constructor CHECKs.
constexpr double kMinSampleRate = 1000.0;
constexpr double kMaxSampleRate = 1e6;

obs::Counter& RejectedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("qbh.queries_rejected");
  return c;
}

obs::Counter& InsertsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("qbh.inserts");
  return c;
}

obs::Counter& RemovesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("qbh.removes");
  return c;
}

void MarkRejected(QueryStats* stats) {
  RejectedCounter().Increment();
  if (stats != nullptr) {
    *stats = QueryStats();
    stats->rejected = true;
  }
}

/// Checkpoint bytes in the format the options select. The caller holds a
/// lock covering `slots` and `engine`.
std::string SerializeCheckpoint(const QbhOptions& opt,
                                const std::vector<std::optional<Melody>>& slots,
                                const DtwQueryEngine* engine) {
  if (opt.format == CheckpointFormat::kV3Binary && engine != nullptr) {
    return SerializeQbhCorpusV3(opt, slots, *engine);
  }
  return SerializeQbhCorpus(opt, slots);
}

}  // namespace

QbhSystem::QbhSystem(QbhOptions options)
    : options_(options), mu_(std::make_unique<std::shared_mutex>()) {
  HUMDEX_CHECK(options_.normal_len >= options_.feature_dim);
  HUMDEX_CHECK(options_.warping_width >= 0.0 && options_.warping_width <= 1.0);
}

QbhSystem::~QbhSystem() = default;
QbhSystem::QbhSystem(QbhSystem&&) noexcept = default;
QbhSystem& QbhSystem::operator=(QbhSystem&&) noexcept = default;

std::int64_t QbhSystem::AddMelody(Melody melody) {
  HUMDEX_CHECK_MSG(engine_ == nullptr, "AddMelody after Build()");
  HUMDEX_CHECK(!melody.empty());
  melodies_.emplace_back(std::move(melody));
  ++live_count_;
  return static_cast<std::int64_t>(melodies_.size()) - 1;
}

Status QbhSystem::AddMelodyWithId(Melody melody, std::int64_t id) {
  HUMDEX_CHECK_MSG(engine_ == nullptr, "AddMelodyWithId after Build()");
  if (melody.empty()) {
    return Status::InvalidArgument("melody has no notes");
  }
  if (id < 0) return Status::InvalidArgument("negative melody id");
  const std::size_t slot = static_cast<std::size_t>(id);
  if (slot < melodies_.size() && melodies_[slot].has_value()) {
    return Status::InvalidArgument("duplicate melody id " + std::to_string(id));
  }
  if (slot >= melodies_.size()) melodies_.resize(slot + 1);
  melodies_[slot] = std::move(melody);
  ++live_count_;
  return Status::OK();
}

void QbhSystem::ReserveIds(std::int64_t next_id) {
  HUMDEX_CHECK_MSG(engine_ == nullptr, "ReserveIds after Build()");
  HUMDEX_CHECK(next_id >= 0);
  if (static_cast<std::size_t>(next_id) > melodies_.size()) {
    melodies_.resize(static_cast<std::size_t>(next_id));
  }
}

std::size_t QbhSystem::size() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return live_count_;
}

std::int64_t QbhSystem::next_id() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return static_cast<std::int64_t>(melodies_.size());
}

std::optional<Melody> QbhSystem::melody(std::int64_t id) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= melodies_.size()) {
    return std::nullopt;
  }
  return melodies_[static_cast<std::size_t>(id)];
}

std::vector<std::optional<Melody>> QbhSystem::CorpusSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return melodies_;
}

std::string QbhSystem::ExportSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return SerializeCheckpoint(options_, melodies_, engine_.get());
}

namespace {

inline std::uint32_t DigestU64(std::uint32_t crc, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffu);
  }
  return Crc32cExtend(crc, reinterpret_cast<const char*>(bytes), 8);
}

inline std::uint32_t DigestDouble(std::uint32_t crc, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return DigestU64(crc, bits);
}

}  // namespace

std::uint32_t QbhSystem::Digest() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  std::uint32_t crc = 0;
  crc = DigestU64(crc, static_cast<std::uint64_t>(melodies_.size()));
  for (std::size_t i = 0; i < melodies_.size(); ++i) {
    if (!melodies_[i].has_value()) continue;
    const Melody& m = *melodies_[i];
    crc = DigestU64(crc, static_cast<std::uint64_t>(i));
    crc = DigestU64(crc, static_cast<std::uint64_t>(m.name.size()));
    crc = Crc32cExtend(crc, m.name.data(), m.name.size());
    crc = DigestU64(crc, static_cast<std::uint64_t>(m.notes.size()));
    for (const Note& n : m.notes) {
      crc = DigestDouble(crc, n.pitch);
      crc = DigestDouble(crc, n.duration);
    }
  }
  return crc;
}

void QbhSystem::Build() {
  HUMDEX_CHECK_MSG(engine_ == nullptr, "Build() called twice");
  HUMDEX_CHECK_MSG(live_count_ > 0, "empty database");

  // Normal forms of every live melody, with its id (gaps are tombstones
  // restored by recovery).
  std::vector<Series> normals;
  std::vector<std::int64_t> ids;
  normals.reserve(live_count_);
  ids.reserve(live_count_);
  for (std::size_t i = 0; i < melodies_.size(); ++i) {
    if (!melodies_[i].has_value()) continue;
    normals.push_back(NormalForm(
        MelodyToSeries(*melodies_[i], options_.samples_per_beat),
        options_.normal_len));
    ids.push_back(static_cast<std::int64_t>(i));
  }

  std::shared_ptr<FeatureScheme> scheme;
  switch (options_.scheme) {
    case SchemeKind::kNewPaa:
      scheme = MakeNewPaaScheme(options_.normal_len, options_.feature_dim);
      break;
    case SchemeKind::kKeoghPaa:
      scheme = MakeKeoghPaaScheme(options_.normal_len, options_.feature_dim);
      break;
    case SchemeKind::kDft:
      scheme = MakeDftScheme(options_.normal_len, options_.feature_dim);
      break;
    case SchemeKind::kDwt:
      scheme = MakeDwtScheme(options_.normal_len, options_.feature_dim);
      break;
    case SchemeKind::kSvd:
      scheme = MakeSvdScheme(normals, options_.feature_dim);
      break;
  }

  QueryEngineOptions eopts;
  eopts.normal_len = options_.normal_len;
  eopts.warping_width = options_.warping_width;
  eopts.index.kind = options_.index;
  eopts.cascade = options_.cascade;
  engine_ = std::make_unique<DtwQueryEngine>(std::move(scheme), eopts);
  engine_->AddAll(std::move(normals), ids);
}

void QbhSystem::InstallPrebuiltEngine(std::unique_ptr<DtwQueryEngine> engine) {
  HUMDEX_CHECK_MSG(engine_ == nullptr, "InstallPrebuiltEngine after Build()");
  HUMDEX_CHECK_MSG(live_count_ > 0, "empty database");
  HUMDEX_CHECK(engine != nullptr);
  HUMDEX_CHECK_MSG(engine->size() == live_count_,
                   "prebuilt engine does not hold exactly the live melodies");
  engine_ = std::move(engine);
}

Series QbhSystem::HumToNormalForm(const Series& hum_pitch) const {
  Series voiced = RemoveSilence(hum_pitch);
  if (voiced.empty()) return Series();
  for (double v : voiced) {
    if (!std::isfinite(v)) return Series();
  }
  return NormalForm(voiced, options_.normal_len);
}

Result<Series> QbhSystem::MelodyNormalForm(const Melody& melody) const {
  if (melody.empty()) return Status::InvalidArgument("melody has no notes");
  for (const Note& n : melody.notes) {
    if (!std::isfinite(n.pitch)) {
      return Status::InvalidArgument("melody note pitch is not finite");
    }
    if (!std::isfinite(n.duration) || n.duration <= 0.0) {
      return Status::InvalidArgument("melody note duration must be positive");
    }
  }
  return NormalForm(MelodyToSeries(melody, options_.samples_per_beat),
                    options_.normal_len);
}

std::vector<QbhMatch> QbhSystem::Query(const Series& hum_pitch, std::size_t top_k,
                                       QueryStats* stats) const {
  return Query(hum_pitch, top_k, QueryOptions(), stats);
}

std::vector<QbhMatch> QbhSystem::Query(const Series& hum_pitch, std::size_t top_k,
                                       const QueryOptions& qopts,
                                       QueryStats* stats) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "Query before Build()");
  // Top-level span over the whole pipeline: pitch track -> normal form ->
  // engine query (whose cascade spans nest underneath).
  HUMDEX_SPAN(query_span, "qbh.query");
  const std::uint64_t t_start = obs::MonotonicNowNs();
  Series q;
  {
    HUMDEX_SPAN(span, "qbh.normal_form");
    q = HumToNormalForm(hum_pitch);
  }
  std::vector<QbhMatch> out = QueryNormal(q, top_k, qopts, stats);
  HUMDEX_SPAN_ATTR(query_span, "top_k", static_cast<double>(top_k));
  HUMDEX_SPAN_ATTR(query_span, "matches", static_cast<double>(out.size()));
  static obs::Histogram& h_total =
      obs::MetricsRegistry::Default().GetHistogram("qbh.query.total_ns");
  h_total.Record(obs::MonotonicNowNs() - t_start);
  return out;
}

std::vector<QbhMatch> QbhSystem::RangeQuery(const Series& hum_pitch,
                                            double epsilon,
                                            const QueryOptions& qopts,
                                            QueryStats* stats) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "RangeQuery before Build()");
  return RangeQueryNormal(HumToNormalForm(hum_pitch), epsilon, qopts, stats);
}

std::vector<QbhMatch> QbhSystem::QueryNormal(const Series& normal_query,
                                             std::size_t top_k,
                                             const QueryOptions& qopts,
                                             QueryStats* stats) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "QueryNormal before Build()");
  if (normal_query.empty()) {
    // Unservable input (no voiced frames / non-finite samples): reject, never
    // abort the process over user data.
    MarkRejected(stats);
    return {};
  }
  // Reader epoch: the whole cascade plus the name lookup observes one
  // consistent corpus snapshot against concurrent Insert/Remove.
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return NamedLocked(engine_->KnnQuery(normal_query, top_k, qopts, stats));
}

std::vector<QbhMatch> QbhSystem::RangeQueryNormal(const Series& normal_query,
                                                  double epsilon,
                                                  const QueryOptions& qopts,
                                                  QueryStats* stats) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "RangeQueryNormal before Build()");
  if (normal_query.empty()) {
    MarkRejected(stats);
    return {};
  }
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return NamedLocked(engine_->RangeQuery(normal_query, epsilon, qopts, stats));
}

std::vector<Neighbor> QbhSystem::KnnSeedsNormal(const Series& normal_query,
                                                std::size_t top_k,
                                                const QueryOptions& qopts,
                                                QueryStats* stats) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "KnnSeedsNormal before Build()");
  if (normal_query.empty()) {
    MarkRejected(stats);
    return {};
  }
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return engine_->KnnSeeds(normal_query, top_k, qopts, stats);
}

std::vector<QbhMatch> QbhSystem::KnnFinishNormal(
    const Series& normal_query, std::size_t top_k, double radius,
    const std::vector<Neighbor>& seeds, const QueryOptions& qopts,
    QueryStats* stats, std::size_t* live) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "KnnFinishNormal before Build()");
  if (normal_query.empty()) {
    MarkRejected(stats);
    return {};
  }
  std::shared_lock<std::shared_mutex> lock(*mu_);
  if (live != nullptr) *live = live_count_;
  return NamedLocked(
      engine_->KnnFinish(normal_query, top_k, radius, seeds, qopts, stats));
}

std::vector<QbhMatch> QbhSystem::NamedLocked(
    const std::vector<Neighbor>& nn) const {
  std::vector<QbhMatch> out;
  out.reserve(nn.size());
  for (const Neighbor& n : nn) {
    const std::optional<Melody>& m = melodies_[static_cast<std::size_t>(n.id)];
    HUMDEX_CHECK(m.has_value());  // the engine only returns live ids
    out.push_back({n.id, m->name, n.distance});
  }
  return out;
}

std::vector<std::vector<QbhMatch>> QbhSystem::QueryBatch(
    const std::vector<Series>& hum_pitches, std::size_t top_k, ThreadPool& pool,
    QueryStats* aggregate) const {
  return QueryBatch(hum_pitches, top_k, pool, QueryOptions(), aggregate);
}

std::vector<std::vector<QbhMatch>> QbhSystem::QueryBatch(
    const std::vector<Series>& hum_pitches, std::size_t top_k, ThreadPool& pool,
    const QueryOptions& qopts, QueryStats* aggregate) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "QueryBatch before Build()");
  static obs::Counter& shed_counter =
      obs::MetricsRegistry::Default().GetCounter("qbh.queries_shed");
  std::vector<std::vector<QbhMatch>> results(hum_pitches.size());
  std::vector<QueryStats> stats(hum_pitches.size());
  std::vector<std::future<void>> futures;
  futures.reserve(hum_pitches.size());
  for (std::size_t i = 0; i < hum_pitches.size(); ++i) {
    // Overload shedding: refuse work the pool is too far behind on, rather
    // than queueing it to miss its deadline anyway. The depth comes from the
    // injectable probe when one is set (deterministic tests), otherwise from
    // the live pool.
    if (qopts.max_queue_depth > 0 &&
        (qopts.queue_depth_probe ? qopts.queue_depth_probe()
                                 : pool.queue_depth()) >=
            qopts.max_queue_depth) {
      stats[i].truncated = true;
      shed_counter.Increment();
      continue;
    }
    futures.push_back(pool.Submit([this, &hum_pitches, &results, &stats, &qopts,
                                   top_k, i] {
      results[i] = Query(hum_pitches[i], top_k, qopts, &stats[i]);
    }));
  }
  // Collect in submission order; the first failing query wins (matches
  // ParallelFor's exception contract).
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

std::vector<std::vector<QbhMatch>> QbhSystem::QueryBatch(
    const std::vector<Series>& hum_pitches, std::size_t top_k,
    std::size_t threads, QueryStats* aggregate) const {
  ThreadPool pool(threads == 0 ? ThreadPool::DefaultThreadCount() : threads);
  return QueryBatch(hum_pitches, top_k, pool, aggregate);
}

std::vector<QbhMatch> QbhSystem::QueryAudio(const Series& pcm, double sample_rate,
                                            std::size_t top_k,
                                            QueryStats* stats) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "QueryAudio before Build()");
  // Front-end input validation: anything a client could hand us that would
  // trip a CHECK deeper in the pipeline is rejected here instead.
  if (pcm.empty() || !std::isfinite(sample_rate) ||
      sample_rate < kMinSampleRate || sample_rate > kMaxSampleRate) {
    MarkRejected(stats);
    return {};
  }
  for (double v : pcm) {
    if (!std::isfinite(v)) {
      MarkRejected(stats);
      return {};
    }
  }
  PitchDetectorOptions dopt;
  dopt.sample_rate = sample_rate;
  PitchDetector detector(dopt);
  return Query(detector.Detect(pcm), top_k, stats);
}

std::size_t QbhSystem::RankOf(const Series& hum_pitch,
                              std::int64_t target_id) const {
  HUMDEX_CHECK_MSG(engine_ != nullptr, "RankOf before Build()");
  Series q = HumToNormalForm(hum_pitch);
  if (q.empty()) return 0;
  std::shared_lock<std::shared_mutex> lock(*mu_);
  if (target_id < 0 ||
      static_cast<std::size_t>(target_id) >= melodies_.size() ||
      !melodies_[static_cast<std::size_t>(target_id)].has_value()) {
    return 0;
  }
  return engine_->RankOf(q, target_id);
}

// --- Online mutation ---------------------------------------------------------

void QbhSystem::ApplyInsertLocked(Melody melody, std::int64_t id,
                                  Series normal) {
  HUMDEX_CHECK(static_cast<std::size_t>(id) == melodies_.size());
  engine_->Add(std::move(normal), id);
  melodies_.emplace_back(std::move(melody));
  ++live_count_;
  InsertsCounter().Increment();
}

void QbhSystem::ApplyRemoveLocked(std::int64_t id) {
  HUMDEX_CHECK(engine_->Remove(id));
  melodies_[static_cast<std::size_t>(id)].reset();
  --live_count_;
  RemovesCounter().Increment();
}

Result<std::int64_t> QbhSystem::Insert(Melody melody) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("Insert before Build()");
  }
  // Validate and compute the normal form outside the writer lock: readers
  // keep flowing while we do the O(normal_len) math.
  Result<Series> normal = MelodyNormalForm(melody);
  HUMDEX_RETURN_IF_ERROR(normal.status());
  std::unique_lock<std::shared_mutex> lock(*mu_);
  const std::int64_t id = static_cast<std::int64_t>(melodies_.size());
  if (wal_ != nullptr) {
    WalMutation mut;
    mut.kind = WalMutation::Kind::kInsert;
    mut.id = id;
    mut.melody = melody;
    // Log-before-apply: a failed (possibly torn) append leaves the
    // in-memory state untouched, so disk never runs behind memory.
    HUMDEX_RETURN_IF_ERROR(wal_->Append(EncodeWalMutation(mut)));
  }
  ApplyInsertLocked(std::move(melody), id, std::move(normal).value());
  return id;
}

Status QbhSystem::Remove(std::int64_t id) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("Remove before Build()");
  }
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= melodies_.size() ||
      !melodies_[static_cast<std::size_t>(id)].has_value()) {
    return Status::NotFound("no live melody with id " + std::to_string(id));
  }
  if (live_count_ <= 1) {
    return Status::FailedPrecondition(
        "cannot remove the last live melody (an empty corpus has no valid "
        "index or checkpoint form)");
  }
  if (wal_ != nullptr) {
    WalMutation mut;
    mut.kind = WalMutation::Kind::kRemove;
    mut.id = id;
    HUMDEX_RETURN_IF_ERROR(wal_->Append(EncodeWalMutation(mut)));
  }
  ApplyRemoveLocked(id);
  return Status::OK();
}

// --- Durability --------------------------------------------------------------

Status QbhSystem::Attach(const std::string& path, Env* env) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("Attach before Build()");
  }
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("system is already durable");
  }
  if (env == nullptr) env = Env::Default();
  std::unique_lock<std::shared_mutex> lock(*mu_);
  HUMDEX_RETURN_IF_ERROR(env->AtomicWriteFile(
      path, SerializeCheckpoint(options_, melodies_, engine_.get())));
  const std::string wal_path = WalPathFor(path);
  if (env->Exists(wal_path)) {
    // A stale log cannot belong to the checkpoint just written.
    Status st = env->Delete(wal_path);
    if (!st.ok() && st.code() != Status::Code::kNotFound) return st;
  }
  Result<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(wal_path, env);
  HUMDEX_RETURN_IF_ERROR(wal.status());
  env_ = env;
  db_path_ = path;
  wal_ = std::move(wal).value();
  return Status::OK();
}

Status QbhSystem::Checkpoint() {
  if (engine_ == nullptr || wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint needs a durable built system (Attach or Open first)");
  }
  static obs::Histogram& h_duration =
      obs::MetricsRegistry::Default().GetHistogram("checkpoint.duration_ns");
  const std::uint64_t t_start = obs::MonotonicNowNs();
  std::unique_lock<std::shared_mutex> lock(*mu_);
  // Step 1: persist the full corpus atomically (temp + fsync + rename). A
  // crash before the rename leaves the old checkpoint + full log.
  HUMDEX_RETURN_IF_ERROR(env_->AtomicWriteFile(
      db_path_, SerializeCheckpoint(options_, melodies_, engine_.get())));
  // Step 2: drop the log. A crash between the rename and here leaves the new
  // checkpoint + the full log, which replay recognizes and skips (records
  // carry explicit ids). A truncation failure is reported but not fatal to
  // the state: the checkpoint is already durable.
  Status st = wal_->Truncate();
  h_duration.Record(obs::MonotonicNowNs() - t_start);
  return st;
}

Status QbhSystem::ReplayLogAndAttach(QbhSystem* system_ptr,
                                     const std::string& path, Env* env,
                                     RecoveryStats* stats) {
  QbhSystem& system = *system_ptr;
  const std::string wal_path = WalPathFor(path);
  WalReadResult log;
  HUMDEX_RETURN_IF_ERROR(WriteAheadLog::ReadAll(wal_path, env, &log));

  // Replay. Ids in the checkpoint are already final; a record whose id the
  // checkpoint covers (crash between checkpoint rename and log truncation)
  // is skipped, one that extends the id space is applied, and anything else
  // is treated as a corrupt record: replay stops there and the tail is
  // dropped, exactly as for a torn frame.
  const std::int64_t start_next_id =
      static_cast<std::int64_t>(system.melodies_.size());
  RecoveryStats& local = *stats;
  std::size_t keep_bytes = 0;
  bool tail_corrupt = false;
  for (const std::string& payload : log.payloads) {
    WalMutation mut;
    if (!DecodeWalMutation(payload, &mut).ok()) {
      tail_corrupt = true;
      break;
    }
    const std::int64_t next_id =
        static_cast<std::int64_t>(system.melodies_.size());
    if (mut.kind == WalMutation::Kind::kInsert) {
      if (mut.id < start_next_id) {
        ++local.records_skipped;  // already in the checkpoint
      } else if (mut.id == next_id) {
        Result<Series> normal = system.MelodyNormalForm(mut.melody);
        if (!normal.ok()) {
          tail_corrupt = true;
          break;
        }
        system.ApplyInsertLocked(std::move(mut.melody), mut.id,
                                 std::move(normal).value());
        ++local.records_replayed;
      } else {
        tail_corrupt = true;  // ids are allocated consecutively
        break;
      }
    } else {
      const std::size_t slot = static_cast<std::size_t>(mut.id);
      if (mut.id >= 0 && mut.id < next_id &&
          system.melodies_[slot].has_value()) {
        if (system.live_count_ <= 1) {
          tail_corrupt = true;  // a valid writer never removes the last one
          break;
        }
        system.ApplyRemoveLocked(mut.id);
        ++local.records_replayed;
      } else if (mut.id >= 0 && mut.id < start_next_id) {
        ++local.records_skipped;  // tombstone already in the checkpoint
      } else {
        tail_corrupt = true;  // removes an id this history never created
        break;
      }
    }
    keep_bytes += WriteAheadLog::FrameRecord(payload).size();
  }

  local.torn_tail = log.torn_tail || tail_corrupt;
  local.dropped_bytes =
      log.dropped_bytes + (tail_corrupt ? log.valid_bytes - keep_bytes : 0);

  static obs::Counter& replayed_counter =
      obs::MetricsRegistry::Default().GetCounter("recovery.records_replayed");
  static obs::Counter& torn_counter =
      obs::MetricsRegistry::Default().GetCounter("recovery.torn_tail_dropped");
  replayed_counter.Increment(local.records_replayed);
  if (local.torn_tail) torn_counter.Increment();

  if (local.torn_tail) {
    // Repair: rewrite the log to its replayable prefix so future appends
    // land behind well-formed records, not behind a torn tail that would
    // make them unreachable. FrameRecord is deterministic, so re-framing
    // reproduces the original prefix bytes.
    std::string prefix;
    prefix.reserve(keep_bytes);
    std::size_t kept = 0;
    for (const std::string& payload : log.payloads) {
      std::string frame = WriteAheadLog::FrameRecord(payload);
      if (kept + frame.size() > keep_bytes) break;
      kept += frame.size();
      prefix += frame;
    }
    HUMDEX_RETURN_IF_ERROR(env->AtomicWriteFile(wal_path, prefix));
  }

  Result<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(wal_path, env);
  HUMDEX_RETURN_IF_ERROR(wal.status());
  system.env_ = env;
  system.db_path_ = path;
  system.wal_ = std::move(wal).value();
  return Status::OK();
}

namespace {

obs::Histogram& OpenHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Default().GetHistogram("storage.open_ns");
  return h;
}

}  // namespace

Result<QbhSystem> QbhSystem::Open(const std::string& path, Env* env,
                                  RecoveryStats* stats) {
  if (env == nullptr) env = Env::Default();
  const std::uint64_t t_start = obs::MonotonicNowNs();
  Result<QbhSystem> loaded = LoadQbhDatabase(path, env);
  HUMDEX_RETURN_IF_ERROR(loaded.status());
  QbhSystem system = std::move(loaded).value();
  RecoveryStats local;
  HUMDEX_RETURN_IF_ERROR(ReplayLogAndAttach(&system, path, env, &local));
  local.open_ns = obs::MonotonicNowNs() - t_start;
  OpenHistogram().Record(local.open_ns);
  if (stats != nullptr) *stats = local;
  return system;
}

Result<QbhSystem> QbhSystem::OpenSalvage(const std::string& path, Env* env,
                                         RecoveryStats* stats) {
  if (env == nullptr) env = Env::Default();
  const std::uint64_t t_start = obs::MonotonicNowNs();
  SalvageReport rep;
  Result<QbhSystem> loaded = LoadQbhDatabaseSalvage(path, &rep, env);
  HUMDEX_RETURN_IF_ERROR(loaded.status());
  QbhSystem system = std::move(loaded).value();
  RecoveryStats local;
  local.salvaged = true;
  local.melodies_dropped = rep.melodies_dropped;
  local.ids_stable = rep.ids_stable;
  if (!rep.ids_stable) {
    // The salvage renumbered the corpus; the log's explicit ids would attach
    // mutations to the wrong melodies, so it is discarded wholesale. The
    // caller sees ids_stable=false and must treat this state as id-unsafe.
    const std::string wal_path = WalPathFor(path);
    if (env->Exists(wal_path)) {
      Status st = env->Delete(wal_path);
      if (!st.ok() && st.code() != Status::Code::kNotFound) return st;
    }
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(wal_path, env);
    HUMDEX_RETURN_IF_ERROR(wal.status());
    system.env_ = env;
    system.db_path_ = path;
    system.wal_ = std::move(wal).value();
  } else {
    HUMDEX_RETURN_IF_ERROR(ReplayLogAndAttach(&system, path, env, &local));
  }
  local.open_ns = obs::MonotonicNowNs() - t_start;
  OpenHistogram().Record(local.open_ns);
  if (stats != nullptr) *stats = local;
  return system;
}

Status QbhSystem::PadIdSpace(std::int64_t next_id) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("PadIdSpace before Build()");
  }
  // Matches the storage layer's kMaxNextId bound: padding past it would
  // produce a checkpoint that refuses to load.
  if (next_id < 0 || next_id > (std::int64_t{1} << 24)) {
    return Status::InvalidArgument("next_id out of range: " +
                                   std::to_string(next_id));
  }
  {
    std::unique_lock<std::shared_mutex> lock(*mu_);
    if (static_cast<std::size_t>(next_id) <= melodies_.size()) {
      return Status::OK();  // id space already covers it
    }
    melodies_.resize(static_cast<std::size_t>(next_id));
  }
  // Durable systems persist the padding at once: replay requires
  // consecutively allocated ids, so an insert at the padded frontier must
  // never land in a log whose checkpoint still has the old, shorter space.
  if (wal_ != nullptr) return Checkpoint();
  return Status::OK();
}

}  // namespace humdex
