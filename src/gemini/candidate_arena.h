// Contiguous SoA storage for the query cascade's per-candidate data
// (DESIGN.md §10), and the engine's only store of each item. Per stored item
// it packs
//
//   - the normal-form series, as doubles (exact LDTW and the query-envelope
//     Keogh direction read it),
//   - its k-envelope (lower and upper), rounded outward to floats: the
//     stored box contains the true one, so LB_Keogh against it can only
//     fall, and it stays a lower bound of the banded DTW (Lemma 2),
//
// into flat 32-byte-aligned arrays (series rows padded to a multiple of 4
// doubles, envelope rows to a multiple of 8 floats), so the filter streams
// memory instead of pointer-chasing. Envelopes are derived from the series
// rows — on Append, and by a checkpoint reader filling a Prebuilt — and
// never stored on disk. Rows follow the engine's positions: a bulk build
// and a v3 open place them in the feature index's leaf order, so an index
// probe's candidates are read in ascending row order; Append on Add and
// SwapRemove on Remove keep them valid, in a looser order. Every block is
// owned by the arena.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "ts/time_series.h"

namespace humdex {

class CandidateArena {
 public:
  /// `series_len` is the normal-form length; `band_k` the envelope radius
  /// (the engine's band radius, fixed for its lifetime).
  CandidateArena(std::size_t series_len, std::size_t band_k);
  CandidateArena(const CandidateArena&) = delete;
  CandidateArena& operator=(const CandidateArena&) = delete;
  CandidateArena(CandidateArena&& other) noexcept;
  CandidateArena& operator=(CandidateArena&& other) noexcept;

  std::size_t size() const { return size_; }
  std::size_t series_len() const { return series_len_; }
  /// Padded series row length in doubles (multiple of 4; rows are 32-byte
  /// aligned).
  std::size_t stride() const { return stride_; }
  /// Padded envelope row length in floats (multiple of 8; rows are 32-byte
  /// aligned).
  std::size_t env_stride() const { return env_stride_; }

  /// The stride() of an arena over series of length `series_len`.
  static std::size_t RowStride(std::size_t series_len) {
    return (series_len + 3) & ~static_cast<std::size_t>(3);
  }
  /// The env_stride() of an arena over series of length `series_len`.
  static std::size_t EnvRowStride(std::size_t series_len) {
    return (series_len + 7) & ~static_cast<std::size_t>(7);
  }

  class Prebuilt;

  /// v3 fast-open (DESIGN.md §14): the row blocks of an arena shaped like
  /// this one holding `n` items, allocated whole (large blocks as their own
  /// huge-page mappings), for a reader to fill (Prebuilt) and
  /// AttachPrebuilt to adopt.
  Prebuilt AllocatePrebuilt(std::size_t n) const;

  void Reserve(std::size_t items);

  /// Append one item (derives its envelope rows). The new row index is
  /// size() - 1 afterwards.
  void Append(const Series& s);

  /// Move the last row into `pos` and drop the last row (the engine's
  /// swap-remove).
  void SwapRemove(std::size_t pos);

  /// Adopt `rows`, every row filled (Prebuilt::Finish), as this arena's
  /// contents. Valid only on an empty arena of the same shape.
  void AttachPrebuilt(Prebuilt rows);

  const double* series(std::size_t pos) const {
    return series_.get() + pos * stride_;
  }
  const float* env_lo(std::size_t pos) const {
    return env_lo_.get() + pos * env_stride_;
  }
  const float* env_hi(std::size_t pos) const {
    return env_hi_.get() + pos * env_stride_;
  }

 private:
  void Grow(std::size_t min_items);
  /// Floats of scratch DeriveEnvelopes needs.
  std::size_t DeriveScratchFloats() const;
  /// Derive the envelope rows of rows [first, last) from their series rows
  /// (BuildFloatEnvelopeInto), using `scratch` (DeriveScratchFloats()
  /// floats).
  void DeriveEnvelopes(std::size_t first, std::size_t last, float* scratch);

  std::size_t series_len_;
  std::size_t band_k_;
  std::size_t stride_;
  std::size_t env_stride_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::shared_ptr<double> series_;
  std::shared_ptr<float> env_lo_;
  std::shared_ptr<float> env_hi_;
};

/// Rows from AllocatePrebuilt, filled by the caller: write each series row
/// (series_len doubles at series_row(pos)), then Finish the rows. Distinct
/// rows may be filled and finished on different threads.
class CandidateArena::Prebuilt {
 public:
  std::size_t size() const { return arena_.size_; }
  double* series_row(std::size_t pos) {
    return arena_.series_.get() + pos * arena_.stride_;
  }
  /// Fault in the memory of rows [first, last) now, on the calling thread
  /// (a hint; without it the first writes fault it in). Lets a reader
  /// prefault the next chunk of rows while workers fill earlier ones.
  void Prefault(std::size_t first, std::size_t last);
  /// Floats of scratch Finish needs.
  std::size_t ScratchFloats() const { return arena_.DeriveScratchFloats(); }
  /// Zero the series pad tails of rows [first, last) and derive their
  /// envelope rows, using `scratch` (ScratchFloats() floats).
  void Finish(std::size_t first, std::size_t last, float* scratch);

 private:
  friend class CandidateArena;
  explicit Prebuilt(CandidateArena arena) : arena_(std::move(arena)) {}

  CandidateArena arena_;
};

}  // namespace humdex
