// The write and storage layers, measured in knn_serve's traced run: a
// durable 4-shard engine over the workload's corpus (WAL + fsync, v3
// checkpoints) in a directory inside the checkout takes a fixed number of
// inserts of fresh phrases with CheckpointAll every kCheckpointEvery, then
// its directory is opened again and again. Two oracles: the writer's answers
// equal a fresh build over the final corpus, and every opened engine's
// answers equal the writer's.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using humdex::serve::ShardedEngine;

namespace {

constexpr std::size_t kInserts = 300;
constexpr std::size_t kCheckpointEvery = 100;
constexpr std::size_t kOpens = 5;

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

}  // namespace

void RunDurableLayers(Report* report, SpanRecorder* spans,
                      const std::vector<Melody>& corpus,
                      const std::vector<Series>& hums, const RunOptions& run) {
  const std::size_t inserts = run.tiny ? 30 : kInserts;
  const std::size_t checkpoint_every = run.tiny ? 10 : kCheckpointEvery;
  const std::vector<Melody> fresh =
      MakeCorpus(run.seed ^ 0x9e3779b97f4a7c15ULL, inserts);
  const std::string dir =
      run.out_dir + "/durable-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  report->Note("durable phase: " + std::to_string(corpus.size()) +
               " phrases, " + std::to_string(kShards) +
               " shards, WAL+fsync, " + std::to_string(inserts) +
               " inserts with v3 CheckpointAll every " +
               std::to_string(checkpoint_every) + ", then " +
               std::to_string(kOpens) + " opens of the directory");

  auto created = ShardedEngine::Create(corpus, ServingShardedOptions());
  HUMDEX_CHECK(created.ok());
  std::unique_ptr<ShardedEngine> writer = std::move(created).value();
  HUMDEX_CHECK(writer->AttachAll(dir).ok());

  // Writes: qbh.insert_us, qbh.checkpoint_ms, wal.bytes_per_insert.
  humdex::obs::Counter& wal_bytes =
      humdex::obs::MetricsRegistry::Default().GetCounter("wal.bytes");
  const std::uint64_t wal0 = wal_bytes.value();
  std::vector<double> insert_us, checkpoint_ms;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const std::uint64_t id = (std::uint64_t{3} << 62) | i;
    const std::uint64_t t0 = NowNs();
    std::optional<humdex::Result<std::int64_t>> inserted;
    {
      ScopedSpan s(spans, "qbh.insert", id);
      inserted.emplace(writer->Insert(fresh[i]));
    }
    insert_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!inserted->ok() ||
        inserted->value() != static_cast<std::int64_t>(corpus.size() + i)) {
      ++failed;
      break;  // the final corpus is no longer known
    }
    if ((i + 1) % checkpoint_every == 0) {
      const std::uint64_t c0 = NowNs();
      humdex::Status st;
      {
        ScopedSpan s(spans, "qbh.checkpoint", id);
        st = writer->CheckpointAll();
      }
      checkpoint_ms.push_back(Ms(c0, NowNs()));
      if (!st.ok()) ++failed;
    }
  }
  double insert_sum = 0.0;
  for (double us : insert_us) insert_sum += us;
  report->Metric("qbh.insert_us",
                 insert_sum / static_cast<double>(insert_us.size()), "us");
  report->Metric("qbh.checkpoint_ms", Median(checkpoint_ms), "ms");
  report->Metric("wal.bytes_per_insert",
                 static_cast<double>(wal_bytes.value() - wal0) /
                     static_cast<double>(fresh.size()),
                 "bytes");
  report->Ops(fresh.size(), failed);

  // Write oracle: the writer's answers equal a fresh build over the final
  // corpus (the initial rows, then every inserted phrase in id order), for
  // corpus hums and hums of inserted phrases.
  std::vector<Melody> final_corpus = corpus;
  final_corpus.insert(final_corpus.end(), fresh.begin(), fresh.end());
  std::vector<Series> check_hums(
      hums.begin(),
      hums.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                         run.tiny ? 4 : 32, hums.size())));
  const std::vector<Series> more =
      MakeHums(fresh, run.seed + 1, run.tiny ? 4 : 16);
  check_hums.insert(check_hums.end(), more.begin(), more.end());
  const std::vector<std::vector<QbhMatch>> expected =
      writer->QueryBatch(check_hums, kTopK);
  std::size_t wrong = writer->size() == final_corpus.size() ? 0 : 1;
  {
    const QbhSystem rebuilt = BuildSystem(final_corpus);
    const auto want = rebuilt.QueryBatch(check_hums, kTopK, std::size_t{4});
    for (std::size_t i = 0; i < check_hums.size(); ++i) {
      if (!SameAnswer(expected[i], want[i])) ++wrong;
    }
  }
  report->Ops(check_hums.size(), wrong);
  report->Check(wrong == 0, std::to_string(check_hums.size()) +
                                " answers after the inserts equal a fresh "
                                "build over the final corpus of " +
                                std::to_string(final_corpus.size()) +
                                " phrases (" + std::to_string(wrong) +
                                " wrong)");

  // Storage: the checkpointed directory, closed by the writer, then opened
  // kOpens times (ShardedEngine::Open, then one query) and replica by
  // replica (QbhSystem::Open).
  HUMDEX_CHECK(writer->CheckpointAll().ok());
  const double live = static_cast<double>(writer->size());
  writer.reset();
  ::malloc_trim(0);
  const std::uint64_t file_bytes = DirBytes(dir);
  report->Metric("storage.file_bytes", static_cast<double>(file_bytes),
                 "bytes");
  report->Metric("storage.bytes_per_melody",
                 static_cast<double>(file_bytes) / live, "bytes");

  humdex::obs::Counter& bytes_read =
      humdex::obs::MetricsRegistry::Default().GetCounter("io.bytes_read");
  std::vector<double> open_ms, first_ms, io_read;
  std::size_t open_wrong = 0;
  for (std::size_t i = 0; i < kOpens; ++i) {
    const std::uint64_t id = (std::uint64_t{1} << 62) | i;
    const std::uint64_t read0 = bytes_read.value();
    const std::uint64_t t0 = NowNs();
    std::unique_ptr<ShardedEngine> engine;
    {
      ScopedSpan s(spans, "sharded.open", id);
      auto opened = ShardedEngine::Open(dir, ServingShardedOptions());
      if (opened.ok()) engine = std::move(opened).value();
    }
    const std::uint64_t t1 = NowNs();
    io_read.push_back(static_cast<double>(bytes_read.value() - read0));
    if (engine == nullptr) {
      ++open_wrong;
      continue;
    }
    const std::size_t h = i % check_hums.size();
    std::vector<QbhMatch> got;
    {
      ScopedSpan s(spans, "sharded.first_query", id);
      got = engine->Query(check_hums[h], kTopK);
    }
    const std::uint64_t t2 = NowNs();
    open_ms.push_back(Ms(t0, t1));
    first_ms.push_back(Ms(t1, t2));
    if (!SameAnswer(got, expected[h])) ++open_wrong;
    const auto all = engine->QueryBatch(check_hums, kTopK);
    for (std::size_t q = 0; q < check_hums.size(); ++q) {
      if (!SameAnswer(all[q], expected[q])) ++open_wrong;
    }
    engine.reset();
    ::malloc_trim(0);
  }
  report->Metric("sharded.open_ms", Median(open_ms), "ms");
  report->Metric("sharded.first_query_ms", Median(first_ms), "ms");
  report->Metric("storage.io_bytes_read", Median(io_read), "bytes");

  std::vector<double> replica_ms;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint64_t t0 = NowNs();
    std::optional<humdex::Result<QbhSystem>> opened;
    {
      ScopedSpan sp(spans, "storage.replica_open", s);
      opened.emplace(QbhSystem::Open(ShardedEngine::ReplicaPath(dir, s, 0)));
    }
    replica_ms.push_back(Ms(t0, NowNs()));
    if (!opened->ok()) ++open_wrong;
  }
  report->Metric("storage.replica_open_ms", Median(replica_ms), "ms");
  report->Ops(kOpens * (check_hums.size() + 1) + kShards, open_wrong);
  report->Check(open_wrong == 0,
                std::to_string(kOpens) + " opens of the checkpointed "
                "directory answer " + std::to_string(check_hums.size() + 1) +
                " queries each as the writer did, and every replica opens (" +
                std::to_string(open_wrong) + " wrong or failed)");
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
