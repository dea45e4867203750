#include "gemini/candidate_arena.h"

#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {

namespace {

double* AllocRows(std::size_t items, std::size_t stride) {
  // stride is a multiple of 4 doubles, so every row size is a multiple of the
  // 32-byte alignment std::aligned_alloc requires.
  std::size_t bytes = items * stride * sizeof(double);
  if (bytes == 0) return nullptr;
  void* p = std::aligned_alloc(kernels::kAlignment, bytes);
  HUMDEX_CHECK(p != nullptr);
  return static_cast<double*>(p);
}

}  // namespace

// A 100k-melody reopen fills a ~100MB series-row block; demand paging that
// costs a kernel fault per 4KB page on first touch. For large blocks,
// MAP_POPULATE prefaults the whole range in one syscall — about half the
// cost of the fault-per-page path — before the decode pass writes it warm.
std::shared_ptr<double> CandidateArena::AllocateRows(std::size_t rows,
                                                     std::size_t stride) {
  const std::size_t bytes = rows * stride * sizeof(double);
  if (bytes == 0) return nullptr;
#if defined(__linux__)
  constexpr std::size_t kPopulateThreshold = std::size_t{8} << 20;
  if (bytes >= kPopulateThreshold) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p != MAP_FAILED) {
      return std::shared_ptr<double>(
          static_cast<double*>(p),
          [bytes](double* q) { ::munmap(q, bytes); });
    }
  }
#endif
  return std::shared_ptr<double>(AllocRows(rows, stride), std::free);
}

CandidateArena::CandidateArena(std::size_t series_len, std::size_t band_k)
    : series_len_(series_len), band_k_(band_k), stride_(RowStride(series_len)) {
  HUMDEX_CHECK(series_len > 0);
}

void CandidateArena::FreeAll() {
  if (!borrowed_) {
    std::free(series_);
    std::free(env_lo_);
    std::free(env_hi_);
  }
  series_ = env_lo_ = env_hi_ = nullptr;
  borrowed_ = false;
  borrow_owner_.reset();
}

CandidateArena::~CandidateArena() { FreeAll(); }

CandidateArena::CandidateArena(CandidateArena&& other) noexcept
    : series_len_(other.series_len_),
      band_k_(other.band_k_),
      stride_(other.stride_),
      size_(other.size_),
      capacity_(other.capacity_),
      series_(other.series_),
      env_lo_(other.env_lo_),
      env_hi_(other.env_hi_),
      borrowed_(other.borrowed_),
      borrow_owner_(std::move(other.borrow_owner_)) {
  other.size_ = other.capacity_ = 0;
  other.series_ = other.env_lo_ = other.env_hi_ = nullptr;
  other.borrowed_ = false;
}

CandidateArena& CandidateArena::operator=(CandidateArena&& other) noexcept {
  if (this == &other) return *this;
  FreeAll();
  series_len_ = other.series_len_;
  band_k_ = other.band_k_;
  stride_ = other.stride_;
  size_ = other.size_;
  capacity_ = other.capacity_;
  series_ = other.series_;
  env_lo_ = other.env_lo_;
  env_hi_ = other.env_hi_;
  borrowed_ = other.borrowed_;
  borrow_owner_ = std::move(other.borrow_owner_);
  other.size_ = other.capacity_ = 0;
  other.series_ = other.env_lo_ = other.env_hi_ = nullptr;
  other.borrowed_ = false;
  return *this;
}

void CandidateArena::Grow(std::size_t min_items) {
  std::size_t cap = capacity_ == 0 ? 64 : capacity_;
  while (cap < min_items) cap *= 2;
  auto regrow = [&](double*& arr) {
    double* fresh = AllocRows(cap, stride_);
    if (size_ > 0) std::memcpy(fresh, arr, size_ * stride_ * sizeof(double));
    std::free(arr);
    arr = fresh;
  };
  regrow(series_);
  regrow(env_lo_);
  regrow(env_hi_);
  capacity_ = cap;
}

void CandidateArena::Reserve(std::size_t items) {
  if (items <= capacity_) return;
  EnsureOwned();
  if (items > capacity_) Grow(items);
}

void CandidateArena::Append(const Series& s) {
  HUMDEX_CHECK(s.size() == series_len_);
  EnsureOwned();
  if (size_ == capacity_) Grow(size_ + 1);
  double* srow = series_ + size_ * stride_;
  double* lrow = env_lo_ + size_ * stride_;
  double* hrow = env_hi_ + size_ * stride_;
  std::memcpy(srow, s.data(), series_len_ * sizeof(double));
  Envelope env = BuildEnvelope(s, band_k_);
  std::memcpy(lrow, env.lower.data(), series_len_ * sizeof(double));
  std::memcpy(hrow, env.upper.data(), series_len_ * sizeof(double));
  // Zero the pad tail so kernels reading full blocks past series_len_ (they
  // never do today; n is passed exactly) would still touch initialized memory.
  for (std::size_t j = series_len_; j < stride_; ++j) {
    srow[j] = 0.0;
    lrow[j] = 0.0;
    hrow[j] = 0.0;
  }
  ++size_;
}

void CandidateArena::SwapRemove(std::size_t pos) {
  HUMDEX_CHECK(pos < size_);
  EnsureOwned();
  std::size_t last = size_ - 1;
  if (pos != last) {
    std::memcpy(series_ + pos * stride_, series_ + last * stride_,
                stride_ * sizeof(double));
    std::memcpy(env_lo_ + pos * stride_, env_lo_ + last * stride_,
                stride_ * sizeof(double));
    std::memcpy(env_hi_ + pos * stride_, env_hi_ + last * stride_,
                stride_ * sizeof(double));
  }
  --size_;
}

void CandidateArena::AttachPrebuilt(std::size_t n, const double* series,
                                    const double* env_lo, const double* env_hi,
                                    std::shared_ptr<const void> owner) {
  HUMDEX_CHECK(size_ == 0 && capacity_ == 0 && !borrowed_);
  // Nothing to borrow for n == 0; an empty arena stays an ordinary owned one.
  if (n == 0) return;
  size_ = capacity_ = n;
  // Readers only ever load through these pointers while borrowed_; the
  // const_cast is confined to storage, never to a store instruction.
  series_ = const_cast<double*>(series);
  env_lo_ = const_cast<double*>(env_lo);
  env_hi_ = const_cast<double*>(env_hi);
  borrowed_ = true;
  borrow_owner_ = std::move(owner);
}

void CandidateArena::EnsureOwned() {
  if (!borrowed_) return;
  const std::size_t n = size_;
  auto copy_rows = [&](double*& arr) {
    double* fresh = AllocRows(n, stride_);
    std::memcpy(fresh, arr, n * stride_ * sizeof(double));
    arr = fresh;
  };
  copy_rows(series_);
  copy_rows(env_lo_);
  copy_rows(env_hi_);
  capacity_ = n;
  borrowed_ = false;
  borrow_owner_.reset();
}

}  // namespace humdex
