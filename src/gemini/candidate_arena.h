// Contiguous SoA storage for the query cascade's per-candidate data
// (DESIGN.md §10), and the engine's only store of each item. Per stored item
// it packs
//
//   - the normal-form series,
//   - its precomputed k-envelope (lower and upper), used by the symmetric
//     Keogh bound without any per-candidate envelope build,
//
// into flat 32-byte-aligned arrays (row stride padded to a multiple of
// 4 doubles), so the filter streams memory in index order instead of
// pointer-chasing. Rows follow the engine's positions: Append on Add,
// SwapRemove on Remove.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>

#include "ts/envelope.h"
#include "ts/time_series.h"

namespace humdex {

class CandidateArena {
 public:
  /// `series_len` is the normal-form length; `band_k` the envelope radius
  /// (the engine's band radius, fixed for its lifetime).
  CandidateArena(std::size_t series_len, std::size_t band_k);
  ~CandidateArena();
  CandidateArena(const CandidateArena&) = delete;
  CandidateArena& operator=(const CandidateArena&) = delete;
  CandidateArena(CandidateArena&& other) noexcept;
  CandidateArena& operator=(CandidateArena&& other) noexcept;

  std::size_t size() const { return size_; }
  std::size_t series_len() const { return series_len_; }
  /// Padded row length in doubles (multiple of 4; rows are 32-byte aligned).
  std::size_t stride() const { return stride_; }

  /// The stride() of an arena over series of length `series_len`.
  static std::size_t RowStride(std::size_t series_len) {
    return (series_len + 3) & ~static_cast<std::size_t>(3);
  }

  /// An uninitialized 32-byte-aligned block of `rows` rows of `stride`
  /// doubles, for AttachPrebuilt's series rows; null when `rows` is 0.
  static std::shared_ptr<double> AllocateRows(std::size_t rows,
                                              std::size_t stride);

  void Reserve(std::size_t items);

  /// Append one item (computes its envelope). The new row index is
  /// size() - 1 afterwards.
  void Append(const Series& s);

  /// Move the last row into `pos` and drop the last row (the engine's
  /// swap-remove).
  void SwapRemove(std::size_t pos);

  /// v3 fast-open (DESIGN.md §14): adopt `n` prebuilt rows without copying.
  /// Every array is borrowed from `owner` — typically a checkpoint file
  /// mapping plus the decoded series row block — and must already use this
  /// arena's layout: series/env rows of stride() doubles with a zeroed pad
  /// tail. The arena is purely a reader of the borrowed memory: the first
  /// mutation (Append, SwapRemove, Reserve) materializes private owned
  /// copies, so a mapping-backed arena never writes through — or frees — the
  /// borrowed pointers. Valid only on an empty arena.
  void AttachPrebuilt(std::size_t n, const double* series,
                      const double* env_lo, const double* env_hi,
                      std::shared_ptr<const void> owner);

  /// True while the arrays are still borrowed from an AttachPrebuilt owner.
  bool borrowed() const { return borrowed_; }

  const double* series(std::size_t pos) const {
    return series_ + pos * stride_;
  }
  const double* env_lo(std::size_t pos) const {
    return env_lo_ + pos * stride_;
  }
  const double* env_hi(std::size_t pos) const {
    return env_hi_ + pos * stride_;
  }

 private:
  void Grow(std::size_t min_items);
  /// Copy every borrowed array into owned aligned storage and drop the
  /// owner keepalive. No-op when already owned.
  void EnsureOwned();
  void FreeAll();

  std::size_t series_len_;
  std::size_t band_k_;
  std::size_t stride_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  // While borrowed_, these point into borrow_owner_'s memory (const in
  // spirit; never written or freed until EnsureOwned replaces them).
  double* series_ = nullptr;
  double* env_lo_ = nullptr;
  double* env_hi_ = nullptr;
  bool borrowed_ = false;
  std::shared_ptr<const void> borrow_owner_;
};

}  // namespace humdex
