// Delta + bit-packed codec for the pitch-like series the v3 binary format
// persists (normal forms, melody pitch and duration tracks). These series
// are small-alphabet and near-constant — consecutive values differ by a few
// scale steps — so storing one anchor double plus bit-packed integer deltas
// shrinks the payload several-fold versus 8 bytes per value.
//
// Losslessness is verified, not assumed: the encoder quantizes each value's
// offset from the anchor to a 2^-20 grid and decodes it back. A value the
// grid cannot reproduce BIT-EXACTLY becomes an *exception*: the packed
// stream carries its predecessor's offset (delta 0) and an exception list
// patches the original 8 raw bytes over it after decode — so one
// full-precision outlier (a fermata duration, a NaN) no longer forces the
// whole series to 8 bytes/value. The encoder picks whichever of
// packed / packed+exceptions / raw is smallest; decoding is always exact,
// and — because the reconstruction is an exact int64 prefix sum followed by
// one power-of-two scaled multiply-add per element (kernels.h delta_decode)
// — bit-identical across the scalar/SSE2/AVX2 kernel tiers.
//
// Quantization is adaptive: values are gridded at 2^-20, then the largest
// common power of two is factored out of the quanta and only the coarser
// grid is stored — pitch tracks on half-semitones and duration tracks on
// quarter-beats pack into a few bits per delta instead of twenty-plus.
//
// Per-series wire form (the element count is framed by the caller):
//   u8 mode          0 = raw, 1 = packed, 2 = packed + exceptions
//   raw:    n doubles, little-endian
//   packed: u8 bit_width b (0..53), u8 scale_log2 (0..20), anchor double v0,
//           ceil((n-1) * b / 8) bytes of LSB-first bit-packed zigzag deltas
//   packed + exceptions: u8 bit_width, u8 scale_log2, u32 exception_count,
//           anchor double, packed deltas as above, then exception_count
//           strictly-ascending (u32 index, raw double) patches
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ts/time_series.h"
#include "util/status.h"

namespace humdex {
namespace codec {

/// Quantization grid: value offsets are multiples of 2^-20 when packable.
inline constexpr int kScaleLog2 = 20;

/// Append the encoded form of `s` to *out (never fails: unpackable series
/// are stored raw). Returns the number of bytes appended.
std::size_t EncodeSeries(std::span<const double> s, std::string* out);

/// Upper bound on EncodeSeries output for an n-element series.
inline std::size_t MaxEncodedSize(std::size_t n) { return 2 + 8 + n * 9; }

/// Decode exactly `n` values from `in` starting at *pos, advancing *pos past
/// the consumed bytes. `out` must hold n doubles. Malformed or truncated
/// input is kCorruption — never an abort or out-of-bounds read.
Status DecodeSeries(std::string_view in, std::size_t* pos, std::size_t n,
                    double* out);

/// Advance *pos past one encoded n-element series without decoding it,
/// checking only its framing (mode, header, and that every byte it claims
/// lies inside `in`). Lets a reader find where each series of a section
/// starts, then decode them in parallel; DecodeSeries still checks the rest.
Status SkipSeries(std::string_view in, std::size_t* pos, std::size_t n);

/// Convenience overload into a Series (resized to n).
Status DecodeSeries(std::string_view in, std::size_t* pos, std::size_t n,
                    Series* out);

}  // namespace codec
}  // namespace humdex
