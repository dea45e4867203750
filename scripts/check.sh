#!/usr/bin/env bash
# Tier-1 verification plus the concurrency and robustness gates:
#   1. plain RelWithDebInfo build, full ctest suite, plus the exactness-gated
#      ablations (cascade stages and kernels; mapped v3 checkpoint open);
#   2. ThreadSanitizer build (-DHUMDEX_SANITIZE=thread), running the
#      parallel-read-path tests (thread pool, batch queries, buffer pool
#      stress), the TCP server's start/serve/stop tests (accept thread
#      vs Stop, connection threads) and the v3 open (envelope rows derived
#      on several threads) so the thread-safety guarantees are
#      mechanically checked —
#      once with the dispatched SIMD tier and once under
#      HUMDEX_FORCE_SCALAR=1, so both kernel paths race under TSan;
#   3. ASan+UBSan build (-DHUMDEX_SANITIZE=address+undefined), running the
#      storage (v2 and v3), corruption, fault-injection, engine-remove and
#      fuzz tests so "no corrupt input throws, aborts, or touches bad memory"
#      is mechanically checked —
#      plus the SIMD kernel property tests, the envelope builder and
#      outward-rounding tests, the cascade power-set exactness harness, the
#      LB_Triangle property/metamorphic suites, and the R*-tree, bulk-load
#      and linear-scan tests (their node blocks are raw pointer
#      arithmetic), once with
#      the dispatched tier and once under HUMDEX_FORCE_SCALAR=1, so every
#      kernel variant runs under the sanitizers;
#   4. HUMDEX_SIMD=OFF build, running the kernel, envelope, cascade and
#      index-block tests to prove
#      the scalar-only configuration stays exact and buildable;
#   5. chaos stage: the sharded serving engine's fault-injection harness
#      (including the replica-group suite: append crashes, mid-ship crashes,
#      destroyed replicas, anti-entropy) and the serving + replication
#      ablation gates (healthy-path answers bit-identical to one unsharded
#      engine; exactness with R-1 replicas of every group dead; snapshot-ship
#      reconvergence; bounded failover latency) under ASan+UBSan, plus
#      humdexd socket smoke runs with and without replication.
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== [1/5] plain build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# Cascade gate: exits non-zero if any answer differs from brute force or
# between SIMD tiers, if the Keogh stage stops paying for its wall time, or
# (on AVX2 hosts) if the Keogh filter or the lane LDTW kernel misses 2x
# against scalar.
./build/bench/ablation_cascade
# Mapped-checkpoint gate: exits non-zero unless the v3 binary open is >=10x
# faster than the v2 text rebuild at 100k melodies, the melody payload is
# >=2x smaller on disk, and range/kNN answers served from the mapped corpus
# are bit-identical to a freshly built engine's.
./build/bench/ablation_mmap

echo "== [2/5] ThreadSanitizer build + concurrency tests =="
cmake -B build-tsan -S . -DHUMDEX_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  thread_pool_test parallel_query_test buffer_pool_stress_test buffer_pool_test \
  metrics_stress_test online_update_test server_test storage_v3_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ParallelQuery|QbhQueryBatch|BufferPool|MetricsStress|ConcurrentWriter|HumdexServer|StorageV3'
# Same concurrency tests with the dispatcher demoted to the scalar
# reference, so both kernel paths race under TSan.
HUMDEX_FORCE_SCALAR=1 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ParallelQuery|QbhQueryBatch|BufferPool|MetricsStress|ConcurrentWriter|HumdexServer|StorageV3'

echo "== [3/5] ASan+UBSan build + robustness tests =="
cmake -B build-asan -S . -DHUMDEX_SANITIZE=address+undefined >/dev/null
cmake --build build-asan -j "$JOBS" --target \
  env_test corruption_test deadline_test storage_test fuzz_test melody_io_test \
  wav_io_test wal_test online_update_test kernel_test cascade_test \
  property_test metamorphic_test legacy_checkpoint_test storage_v3_test \
  delete_test envelope_test rstar_tree_test bulk_load_test linear_scan_test
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'PosixEnv|FaultInjectingEnv|Retry|Corruption|CrashSafety|Salvage|Deadline|Cancel|Shedding|Observability|Storage|Fuzz|MelodyIo|WavIo|WalTest|OnlineUpdate|Recovery|Kernel|Cascade|LbImproved|TriangleBound|Metamorphic|EngineRemove|SystemRemove|Envelope|RStar|BulkLoad|LinearScan'
# Same kernel/cascade/triangle/envelope/index-block tests with the
# dispatcher demoted to the scalar reference, so the scalar code paths also
# run under ASan+UBSan.
HUMDEX_FORCE_SCALAR=1 ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Kernel|Cascade|LbImproved|TriangleBound|Metamorphic|Envelope|RStar|BulkLoad|LinearScan'

echo "== [4/5] HUMDEX_SIMD=OFF build + kernel/cascade tests =="
cmake -B build-nosimd -S . -DHUMDEX_SIMD=OFF >/dev/null
cmake --build build-nosimd -j "$JOBS" --target kernel_test cascade_test \
  lower_bound_test query_engine_test envelope_test rstar_tree_test \
  bulk_load_test linear_scan_test
ctest --test-dir build-nosimd --output-on-failure -j "$JOBS" \
  -R 'Kernel|Cascade|LbImproved|LowerBound|QueryEngine|Envelope|RStar|BulkLoad|LinearScan'

echo "== [5/5] chaos: sharded + replicated serving under ASan+UBSan =="
cmake --build build-asan -j "$JOBS" --target \
  chaos_test serve_test protocol_test server_test replication_test \
  ablation_serving ablation_replication humdexd
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Chaos|ShardedEngine|ShardedDurability|ShardRecovery|Replication|Protocol|HumdexServer'
./build-asan/examples/humdexd --once --shards=3 --corpus=120
./build-asan/examples/humdexd --once --shards=3 --replicas=2 --corpus=120
# The two ablation gates below both run even when the first one fails, so
# one red gate never hides the other's verdict; the stage fails if either
# did.
gates_failed=0
# Serving ablation gate: exits non-zero when any healthy-path sharded answer
# diverges from the unsharded engine or the scaling check fails (the scaling
# half only arms on multi-core hosts).
./build-asan/bench/ablation_serving || gates_failed=1
# Replication ablation gate: exits non-zero when answers with R-1 replicas
# of every group dead diverge from the unsharded engine, when a snapshot
# ship fails to reconverge a destroyed replica digest-identical, or when
# forced-failover latency blows its bound.
./build-asan/bench/ablation_replication || gates_failed=1
if [ "$gates_failed" -ne 0 ]; then
  echo "Stage 5 failed: an ablation gate exited non-zero (see above)." >&2
  exit 1
fi

echo "All checks passed."
