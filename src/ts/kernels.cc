#include "ts/kernels.h"

#include <atomic>

#include "ts/kernels_detail.h"

#ifndef HUMDEX_SIMD_ENABLED
#define HUMDEX_SIMD_ENABLED 0
#endif

namespace humdex {
namespace kernels {

namespace {

// ---------------------------------------------------------------------------
// Portable scalar reference. The 4-lane blocked accumulation and the
// checkpoint cadence mirror the SIMD variants exactly (see kernels.h).
// ---------------------------------------------------------------------------

// `Box` is double, or float widened to double (exact) element by element.
template <class Box>
double SqDistToBoxScalar(const double* x, const Box* lo, const Box* hi,
                         std::size_t n, double abandon_at_sq) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  while (j < n4) {
    const std::size_t block_end =
        j + kAbandonBlock < n4 ? j + kAbandonBlock : n4;
    for (; j < block_end; j += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        double d = detail::BoxExcess(x[j + l], static_cast<double>(lo[j + l]),
                                     static_cast<double>(hi[j + l]));
        acc[l] += d * d;
      }
    }
    double peek = detail::HSum4(acc);
    if (peek > abandon_at_sq) return peek;
  }
  return detail::SqDistTail(x, lo, hi, j, n, detail::HSum4(acc));
}

void DeltaDecodeScalar(const std::int64_t* m, std::size_t n, double v0,
                       double scale, double* out) {
  detail::DeltaDecodeTail(m, 0, n, v0, scale, out);
}

constexpr KernelTable kScalarTable = {
    SqDistToBoxScalar<double>,
    SqDistToBoxScalar<float>,
    detail::MindistSqBlock<detail::ScalarLane>,
    detail::LdtwLanes<detail::ScalarLane>,
    DeltaDecodeScalar,
    "scalar",
};

std::atomic<const KernelTable*>& ActiveTableSlot() {
  static std::atomic<const KernelTable*> slot{nullptr};
  return slot;
}

const KernelTable* ResolveStartupTable() {
  const KernelTable* t = KernelTableFor(ActiveSimdLevel());
  return t != nullptr ? t : &kScalarTable;
}

}  // namespace

#if HUMDEX_SIMD_ENABLED && defined(__x86_64__)
// Defined in kernels_sse2.cc / kernels_avx2.cc (compiled with the matching
// -m flags; never called unless util/cpu.h reports the CPU supports them).
extern const KernelTable kSse2Table;
extern const KernelTable kAvx2Table;
#endif

const KernelTable& ScalarKernels() { return kScalarTable; }

const KernelTable* KernelTableFor(SimdLevel level) {
  if (!SimdLevelSupported(level)) return nullptr;
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarTable;
#if HUMDEX_SIMD_ENABLED && defined(__x86_64__)
    case SimdLevel::kSse2:
      return &kSse2Table;
    case SimdLevel::kAvx2:
      return &kAvx2Table;
#else
    case SimdLevel::kSse2:
    case SimdLevel::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelTable& ActiveKernels() {
  const KernelTable* t = ActiveTableSlot().load(std::memory_order_relaxed);
  if (t == nullptr) {
    t = ResolveStartupTable();
    ActiveTableSlot().store(t, std::memory_order_relaxed);
  }
  return *t;
}

ScopedKernelOverride::ScopedKernelOverride(SimdLevel level) {
  prev_ = &ActiveKernels();
  const KernelTable* t = KernelTableFor(level);
  ActiveTableSlot().store(t != nullptr ? t : &kScalarTable,
                          std::memory_order_relaxed);
}

ScopedKernelOverride::~ScopedKernelOverride() {
  ActiveTableSlot().store(prev_, std::memory_order_relaxed);
}

}  // namespace kernels
}  // namespace humdex
