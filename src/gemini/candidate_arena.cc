#include "gemini/candidate_arena.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "ts/envelope.h"
#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {

namespace {

// `rows` rows of `stride` Ts, 32-byte aligned; every stride is a multiple of
// 32 bytes, so the size is one std::aligned_alloc accepts. With
// `huge_pages`, a large block is its own mapping marked for transparent
// huge pages, which a reader then prefaults a chunk at a time (Prefault).
// Growth never asks: a doubled capacity's untouched tail must not become
// resident.
template <class T>
std::shared_ptr<T> AllocRows(std::size_t rows, std::size_t stride,
                             bool huge_pages) {
  const std::size_t bytes = rows * stride * sizeof(T);
  if (bytes == 0) return nullptr;
#if defined(__linux__)
  constexpr std::size_t kOwnMappingThreshold = std::size_t{8} << 20;
  if (huge_pages && bytes >= kOwnMappingThreshold) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      ::madvise(p, bytes, MADV_HUGEPAGE);  // a hint; failure is harmless
      return std::shared_ptr<T>(static_cast<T*>(p),
                                [bytes](T* q) { ::munmap(q, bytes); });
    }
  }
#else
  (void)huge_pages;
#endif
  void* p = std::aligned_alloc(kernels::kAlignment, bytes);
  HUMDEX_CHECK(p != nullptr);
  return std::shared_ptr<T>(static_cast<T*>(p), std::free);
}

// Fault in the pages under [begin, begin + bytes) now, writable. A hint:
// where the kernel cannot, the first writes fault them in instead.
void PrefaultBytes(const void* begin, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  if (bytes == 0) return;
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(begin) & ~(page - 1);
  const auto last = reinterpret_cast<std::uintptr_t>(begin) + bytes;
  ::madvise(reinterpret_cast<void*>(first), last - first,
            MADV_POPULATE_WRITE);
#else
  (void)begin;
  (void)bytes;
#endif
}

}  // namespace

CandidateArena::CandidateArena(std::size_t series_len, std::size_t band_k)
    : series_len_(series_len),
      band_k_(band_k),
      stride_(RowStride(series_len)),
      env_stride_(EnvRowStride(series_len)) {
  HUMDEX_CHECK(series_len > 0);
}

CandidateArena::CandidateArena(CandidateArena&& other) noexcept
    : series_len_(other.series_len_),
      band_k_(other.band_k_),
      stride_(other.stride_),
      env_stride_(other.env_stride_),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      series_(std::move(other.series_)),
      env_lo_(std::move(other.env_lo_)),
      env_hi_(std::move(other.env_hi_)) {}

CandidateArena& CandidateArena::operator=(CandidateArena&& other) noexcept {
  if (this == &other) return *this;
  series_len_ = other.series_len_;
  band_k_ = other.band_k_;
  stride_ = other.stride_;
  env_stride_ = other.env_stride_;
  size_ = std::exchange(other.size_, 0);
  capacity_ = std::exchange(other.capacity_, 0);
  series_ = std::move(other.series_);
  env_lo_ = std::move(other.env_lo_);
  env_hi_ = std::move(other.env_hi_);
  return *this;
}

void CandidateArena::Grow(std::size_t min_items) {
  std::size_t cap = capacity_ == 0 ? 64 : capacity_;
  while (cap < min_items) cap *= 2;
  auto regrow = [&](auto& block, std::size_t stride) {
    using T = typename std::remove_reference_t<decltype(block)>::element_type;
    auto fresh = AllocRows<T>(cap, stride, /*huge_pages=*/false);
    if (size_ > 0) {
      std::memcpy(fresh.get(), block.get(), size_ * stride * sizeof(T));
    }
    block = std::move(fresh);
  };
  regrow(series_, stride_);
  regrow(env_lo_, env_stride_);
  regrow(env_hi_, env_stride_);
  capacity_ = cap;
}

void CandidateArena::Reserve(std::size_t items) {
  if (items > capacity_) Grow(items);
}

std::size_t CandidateArena::DeriveScratchFloats() const {
  return FloatEnvelopeScratchFloats(series_len_);
}

void CandidateArena::DeriveEnvelopes(std::size_t first, std::size_t last,
                                     float* scratch) {
  const std::size_t n = series_len_;
  for (std::size_t r = first; r < last; ++r) {
    float* lo = env_lo_.get() + r * env_stride_;
    float* hi = env_hi_.get() + r * env_stride_;
    BuildFloatEnvelopeInto(series(r), n, band_k_, lo, hi, scratch);
    // Zero the pad tails so kernels reading full blocks past series_len_
    // (they never do today; n is passed exactly) would still touch
    // initialized memory.
    std::fill(lo + n, lo + env_stride_, 0.0f);
    std::fill(hi + n, hi + env_stride_, 0.0f);
  }
}

void CandidateArena::Append(const Series& s) {
  HUMDEX_CHECK(s.size() == series_len_);
  if (size_ == capacity_) Grow(size_ + 1);
  double* row = series_.get() + size_ * stride_;
  std::memcpy(row, s.data(), series_len_ * sizeof(double));
  std::fill(row + series_len_, row + stride_, 0.0);
  std::vector<float> scratch(DeriveScratchFloats());
  DeriveEnvelopes(size_, size_ + 1, scratch.data());
  ++size_;
}

void CandidateArena::SwapRemove(std::size_t pos) {
  HUMDEX_CHECK(pos < size_);
  std::size_t last = size_ - 1;
  if (pos != last) {
    std::memcpy(series_.get() + pos * stride_, series_.get() + last * stride_,
                stride_ * sizeof(double));
    std::memcpy(env_lo_.get() + pos * env_stride_,
                env_lo_.get() + last * env_stride_,
                env_stride_ * sizeof(float));
    std::memcpy(env_hi_.get() + pos * env_stride_,
                env_hi_.get() + last * env_stride_,
                env_stride_ * sizeof(float));
  }
  --size_;
}

CandidateArena::Prebuilt CandidateArena::AllocatePrebuilt(
    std::size_t n) const {
  CandidateArena rows(series_len_, band_k_);
  rows.series_ = AllocRows<double>(n, stride_, /*huge_pages=*/true);
  rows.env_lo_ = AllocRows<float>(n, env_stride_, /*huge_pages=*/true);
  rows.env_hi_ = AllocRows<float>(n, env_stride_, /*huge_pages=*/true);
  rows.size_ = rows.capacity_ = n;
  return Prebuilt(std::move(rows));
}

void CandidateArena::Prebuilt::Prefault(std::size_t first,
                                        std::size_t last) {
  const CandidateArena& a = arena_;
  PrefaultBytes(a.series_.get() + first * a.stride_,
                (last - first) * a.stride_ * sizeof(double));
  PrefaultBytes(a.env_lo_.get() + first * a.env_stride_,
                (last - first) * a.env_stride_ * sizeof(float));
  PrefaultBytes(a.env_hi_.get() + first * a.env_stride_,
                (last - first) * a.env_stride_ * sizeof(float));
}

void CandidateArena::Prebuilt::Finish(std::size_t first, std::size_t last,
                                      float* scratch) {
  for (std::size_t r = first; r < last; ++r) {
    double* row = series_row(r);
    std::fill(row + arena_.series_len_, row + arena_.stride_, 0.0);
  }
  arena_.DeriveEnvelopes(first, last, scratch);
}

void CandidateArena::AttachPrebuilt(Prebuilt rows) {
  HUMDEX_CHECK(size_ == 0 && capacity_ == 0);
  HUMDEX_CHECK(rows.arena_.series_len_ == series_len_ &&
               rows.arena_.band_k_ == band_k_);
  *this = std::move(rows.arena_);
}

}  // namespace humdex
