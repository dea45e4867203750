// The two serving workloads, and the durable phase of knn_serve's traced
// run. See perfbench/README.md for why each workload exists and which
// end-to-end metric each per-layer metric should move.
#pragma once

#include <vector>

#include "common.h"
#include "serve/sharded_engine.h"
#include "spans.h"

namespace perfbench {

constexpr std::size_t kShards = 4;
constexpr std::size_t kTopK = 10;
/// Closed-loop connections, one load thread each: the host has 4 cores, and
/// at 4 connections the p99 swings by a third between runs.
constexpr std::size_t kConnections = 2;

/// knn_serve (`range` false) or range_tight (`range` true).
Report RunServeWorkload(const RunOptions& run, bool range);

humdex::serve::ShardedOptions ServingShardedOptions();

/// The write and storage layers (qbh.insert_us, qbh.checkpoint_ms,
/// wal.bytes_per_insert, storage.*, sharded.open_ms, sharded.first_query_ms)
/// on a durable engine over `corpus` in a directory under run.out_dir, with
/// their oracles; counts its operations and failures in `report`.
void RunDurableLayers(Report* report, SpanRecorder* spans,
                      const std::vector<Melody>& corpus,
                      const std::vector<Series>& hums, const RunOptions& run);

}  // namespace perfbench
