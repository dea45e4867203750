// google-benchmark microbenchmarks of the computational kernels: banded and
// full DTW, envelope construction, transforms, the raw envelope bound (over
// double and float boxes), the block MINDIST of one index node, and
// R*-tree operations. These explain *why* the index pipeline is fast: the
// cascade replaces O(kn) DTW calls with O(N) feature-space tests.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common.h"
#include "gemini/feature_index.h"
#include "ts/codec.h"
#include "ts/dtw.h"
#include "ts/envelope.h"
#include "ts/kernels.h"
#include "ts/lower_bound.h"
#include "util/random.h"

namespace humdex::bench {
namespace {

std::vector<Series> Data(std::size_t count, std::size_t len) {
  static auto cache = RandomWalkSet(512, 1024, 5);
  std::vector<Series> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(cache[i % cache.size()].begin(),
                     cache[i % cache.size()].begin() + static_cast<long>(len));
  }
  return out;
}

void BM_FullDtw(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto d = Data(2, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(d[0], d[1]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullDtw)->Range(64, 1024)->Complexity(benchmark::oNSquared);

void BM_BandedLdtw(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto d = Data(2, n);
  std::size_t k = BandRadiusForWidth(0.1, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LdtwDistance(d[0], d[1], k));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BandedLdtw)->Range(64, 1024)->Complexity();

void BM_BuildEnvelope(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto d = Data(1, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEnvelope(d[0], n / 10));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildEnvelope)->Range(64, 4096)->Complexity(benchmark::oN);

// The candidate arena's envelope rows: the same windows over values rounded
// outward to floats, four lanes per operation.
void BM_BuildFloatEnvelope(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto d = Data(1, n);
  std::vector<float> lo(n), hi(n), scratch(FloatEnvelopeScratchFloats(n));
  for (auto _ : state) {
    BuildFloatEnvelopeInto(d[0].data(), n, n / 10, lo.data(), hi.data(),
                           scratch.data());
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildFloatEnvelope)->Range(64, 4096)->Complexity(benchmark::oN);

void BM_LbKeogh(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto d = Data(2, n);
  Envelope env = BuildEnvelope(d[1], n / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbKeogh(d[0], env));
  }
  // Three input streams (series, lower, upper) — the GB/s column shows how
  // close the active kernel tier gets to memory bandwidth.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * 3 *
                                                    sizeof(double)));
}
BENCHMARK(BM_LbKeogh)->Range(64, 1024);

// Per-tier kernel benchmarks: same work routed through an explicit
// KernelTable so scalar / SSE2 / AVX2 throughput shows up side by side
// regardless of what ActiveKernels() dispatched to. Arg 0 is the series
// length, arg 1 the SimdLevel.
void BM_SqDistToBoxKernel(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto level = static_cast<SimdLevel>(state.range(1));
  const kernels::KernelTable* table = kernels::KernelTableFor(level);
  if (table == nullptr) {
    state.SkipWithError("tier unsupported on this CPU/build");
    return;
  }
  auto d = Data(2, n);
  Envelope env = BuildEnvelope(d[1], n / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->sq_dist_to_box(
        d[0].data(), env.lower.data(), env.upper.data(), n, kInfiniteDistance));
  }
  state.SetLabel(table->name);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * 3 *
                                                    sizeof(double)));
}
BENCHMARK(BM_SqDistToBoxKernel)
    ->ArgsProduct({{128, 1024}, {0, 1, 2}});

// The same sum against a float box, the candidate arena's outward-rounded
// envelope rows, widened in registers. Bytes are the double series row plus
// the two float rows: two thirds of the double box's.
void BM_SqDistToFboxKernel(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto level = static_cast<SimdLevel>(state.range(1));
  const kernels::KernelTable* table = kernels::KernelTableFor(level);
  if (table == nullptr) {
    state.SkipWithError("tier unsupported on this CPU/build");
    return;
  }
  auto d = Data(2, n);
  std::vector<float> lo(n), hi(n), scratch(FloatEnvelopeScratchFloats(n));
  BuildFloatEnvelopeInto(d[1].data(), n, n / 10, lo.data(), hi.data(),
                         scratch.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->sq_dist_to_fbox(
        d[0].data(), lo.data(), hi.data(), n, kInfiniteDistance));
  }
  state.SetLabel(table->name);
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * n * (sizeof(double) + 2 * sizeof(float))));
}
BENCHMARK(BM_SqDistToFboxKernel)
    ->ArgsProduct({{128, 1024}, {0, 1, 2}});

// Lane-parallel banded LDTW: one query against 64 candidates per
// iteration, no abandoning, through an explicit tier (the scalar tier runs
// them one at a time). Items are candidates, so items/s compares tiers
// directly.
void BM_LdtwLanesKernel(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto level = static_cast<SimdLevel>(state.range(1));
  const kernels::KernelTable* table = kernels::KernelTableFor(level);
  if (table == nullptr) {
    state.SkipWithError("tier unsupported on this CPU/build");
    return;
  }
  constexpr std::size_t kCandidates = 64;
  auto d = Data(kCandidates + 1, n);
  std::vector<const double*> rows;
  for (std::size_t c = 1; c <= kCandidates; ++c) rows.push_back(d[c].data());
  const std::size_t k = BandRadiusForWidth(0.1, n);
  std::vector<double> scratch(kernels::LdtwScratchDoubles(n));
  std::vector<double> out(kCandidates);
  for (auto _ : state) {
    table->ldtw_lanes(d[0].data(), n, rows.data(), n, kCandidates, k,
                      kInfiniteDistance, scratch.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(table->name);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kCandidates));
}
BENCHMARK(BM_LdtwLanesKernel)
    ->ArgsProduct({{128, 1024}, {0, 1, 2}});

// Delta+bitpack series codec (ts/codec.h), the v3 checkpoint payload format.
// Encode verifies losslessness inline (it decodes what it packed), so its
// row prices the full write-side cost; decode is routed through an explicit
// kernel tier and gated on bit-identity with the scalar reference — a tier
// that drifts is a corruption bug, not a performance result.
Series PitchWalk(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Series s(n);
  double v = 60.0;
  for (double& x : s) {
    v += (static_cast<double>(rng.NextBounded(9)) - 4.0) * 0.5;
    x = v;
  }
  return s;
}

void BM_CodecEncode(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  Series s = PitchWalk(n, 17);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    benchmark::DoNotOptimize(codec::EncodeSeries(s, &buf));
  }
  state.SetLabel(buf.empty() ? "raw"
                 : buf[0] == 1 ? "packed"
                 : buf[0] == 2 ? "packed+ex"
                               : "raw");
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * n * sizeof(double)));
}
BENCHMARK(BM_CodecEncode)->Range(128, 8192);

void BM_CodecDecodeKernel(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto level = static_cast<SimdLevel>(state.range(1));
  if (kernels::KernelTableFor(level) == nullptr) {
    state.SkipWithError("tier unsupported on this CPU/build");
    return;
  }
  Series s = PitchWalk(n, 17);
  std::string buf;
  codec::EncodeSeries(s, &buf);

  // Bit-identity gate: this tier's decode must reproduce the scalar
  // reference exactly before its throughput row counts for anything.
  Series scalar_out(n), tier_out(n);
  {
    kernels::ScopedKernelOverride scalar(SimdLevel::kScalar);
    std::size_t pos = 0;
    if (!codec::DecodeSeries(buf, &pos, n, scalar_out.data()).ok()) {
      state.SkipWithError("scalar decode failed");
      return;
    }
  }
  kernels::ScopedKernelOverride with_tier(level);
  std::size_t pos = 0;
  if (!codec::DecodeSeries(buf, &pos, n, tier_out.data()).ok() ||
      std::memcmp(scalar_out.data(), tier_out.data(), n * sizeof(double)) !=
          0) {
    state.SkipWithError("tier decode is not bit-identical to scalar");
    return;
  }
  for (auto _ : state) {
    pos = 0;
    codec::DecodeSeries(buf, &pos, n, tier_out.data());
    benchmark::DoNotOptimize(tier_out.data());
  }
  state.SetLabel(kernels::KernelTableFor(level)->name);
  // Decoded output stream; the packed input is a fraction of it.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * n * sizeof(double)));
}
BENCHMARK(BM_CodecDecodeKernel)->ArgsProduct({{128, 1024, 8192}, {0, 1, 2}});

void BM_PaaFeatures(benchmark::State& state) {
  auto d = Data(1, 128);
  auto scheme = MakeNewPaaScheme(128, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->Features(d[0]));
  }
}
BENCHMARK(BM_PaaFeatures);

void BM_NewPaaEnvelopeReduce(benchmark::State& state) {
  auto d = Data(1, 128);
  auto scheme = MakeNewPaaScheme(128, 8);
  Envelope env = BuildEnvelope(d[0], 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->ReduceEnvelope(env));
  }
}
BENCHMARK(BM_NewPaaEnvelopeReduce);

void BM_DftFeatures(benchmark::State& state) {
  auto d = Data(1, 128);
  auto scheme = MakeDftScheme(128, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->Features(d[0]));
  }
}
BENCHMARK(BM_DftFeatures);

// One R*-tree node's worth of block MINDIST through the active kernel: arg
// 0 is the entry count, arg 1 the dimensionality. Items are entries scored.
void BM_MindistBlock(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const std::size_t stride = (count + 3) & ~std::size_t{3};
  Rng rng(3);
  std::vector<double> lo(dims * stride), hi(dims * stride), q_lo(dims),
      q_hi(dims), out(count);
  for (std::size_t j = 0; j < lo.size(); ++j) {
    lo[j] = rng.Uniform(-4.0, 4.0);
    hi[j] = lo[j] + rng.Uniform(0.0, 1.0);
  }
  for (std::size_t d = 0; d < dims; ++d) {
    q_lo[d] = rng.Uniform(-4.0, 4.0);
    q_hi[d] = q_lo[d] + 0.5;
  }
  const kernels::KernelTable& table = kernels::ActiveKernels();
  for (auto _ : state) {
    table.mindist_sq_block(q_lo.data(), q_hi.data(), lo.data(), hi.data(),
                           dims, count, stride, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(table.name);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_MindistBlock)->ArgsProduct({{64}, {8, 16}});

void BM_RStarInsert(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    RStarTree tree(8);
    state.ResumeTiming();
    for (std::int64_t i = 0; i < 2000; ++i) {
      Series p(8);
      for (double& v : p) v = rng.Uniform(-10, 10);
      tree.Insert(p, i);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RStarInsert);

void BM_RStarRangeQuery(benchmark::State& state) {
  Rng rng(5);
  RStarTree tree(8);
  for (std::int64_t i = 0; i < 50000; ++i) {
    Series p(8);
    for (double& v : p) v = rng.Uniform(-10, 10);
    tree.Insert(p, i);
  }
  Series q(8, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeQuery(Rect::FromPoint(q), 3.0));
  }
}
BENCHMARK(BM_RStarRangeQuery);

void BM_EndToEndIndexedRangeQuery(benchmark::State& state) {
  auto data = RandomWalkSet(10000, 128, 7);
  FeatureIndex index(MakeNewPaaScheme(128, 8));
  for (std::size_t i = 0; i < data.size(); ++i) {
    index.Add(data[i], static_cast<std::int64_t>(i));
  }
  auto queries = RandomWalkSet(16, 128, 9);
  std::size_t qi = 0;
  for (auto _ : state) {
    Envelope env = BuildEnvelope(queries[qi++ % queries.size()], 6);
    benchmark::DoNotOptimize(index.CandidatesForEnvelope(env, 5.0));
  }
}
BENCHMARK(BM_EndToEndIndexedRangeQuery);

void BM_LinearScanDtwBaseline(benchmark::State& state) {
  // The brute-force cost the index pipeline avoids (Mazzoni-style matching).
  auto data = RandomWalkSet(256, 128, 11);
  auto q = RandomWalkSet(1, 128, 13)[0];
  for (auto _ : state) {
    double best = kInfiniteDistance;
    for (const Series& s : data) {
      best = std::min(best, LdtwDistance(q, s, 6));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LinearScanDtwBaseline);

}  // namespace
}  // namespace humdex::bench
