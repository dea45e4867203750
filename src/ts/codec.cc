#include "ts/codec.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "ts/kernels.h"

namespace humdex {
namespace codec {

namespace {

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModePacked = 1;
constexpr std::uint8_t kModePackedEx = 2;
// Quantized offsets are bounded so the int64 -> double conversion in every
// kernel tier (including the SIMD magic-number form, exact below 2^51) is
// exact, and so delta zigzags fit in 53 bits.
constexpr std::int64_t kMaxQuantum = std::int64_t{1} << 50;
constexpr int kMaxBitWidth = 53;

inline void AppendDouble(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void AppendU32(std::string* out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t UnZigZag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

inline int BitWidth(std::uint64_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

void AppendRaw(std::span<const double> s, std::string* out) {
  out->push_back(static_cast<char>(kModeRaw));
  for (double v : s) AppendDouble(out, v);
}

/// Per-series scratch reused across calls: a million-melody open decodes a
/// series per melody and must not pay an allocation for each.
std::vector<std::int64_t>& Scratch() {
  thread_local std::vector<std::int64_t> buf;
  return buf;
}

}  // namespace

std::size_t EncodeSeries(std::span<const double> s, std::string* out) {
  const std::size_t before = out->size();
  if (s.empty()) {
    out->push_back(static_cast<char>(kModeRaw));
    return out->size() - before;
  }
  const double scale_up = std::ldexp(1.0, kScaleLog2);
  const double scale_down = std::ldexp(1.0, -kScaleLog2);
  std::vector<std::int64_t>& m = Scratch();
  m.assign(s.size(), 0);
  // Off-grid values become exceptions: the delta chain carries the previous
  // quantized offset through them (delta 0) and the raw bytes are patched
  // over the reconstruction at decode time.
  std::vector<std::uint32_t> exceptions;
  const double v0 = std::isfinite(s[0]) ? s[0] : 0.0;
  if (!std::isfinite(s[0])) exceptions.push_back(0);
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double off = (s[i] - v0) * scale_up;
    bool on_grid = std::isfinite(off) &&
                   std::fabs(off) <= static_cast<double>(kMaxQuantum);
    std::int64_t q = 0;
    if (on_grid) {
      q = std::llround(off);
      // Bit-exactness is verified, never assumed: the grid must reproduce
      // the original value through the exact decode arithmetic.
      on_grid = v0 + static_cast<double>(q) * scale_down == s[i];
    }
    if (on_grid) {
      m[i] = q;
    } else {
      m[i] = m[i - 1];
      exceptions.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Musical series rarely need the full 2^-20 grid (pitches sit on
  // half-semitones, durations on quarter-beats): factor the largest common
  // power of two out of the quanta and record the coarser grid instead.
  // (q >> t) * 2^-(20-t) == q * 2^-20 exactly, so the decode arithmetic —
  // and therefore the reconstructed bits — are unchanged.
  int shift = kScaleLog2;
  for (std::size_t i = 1; i < s.size() && shift > 0; ++i) {
    if (m[i] != 0) {
      shift = std::min(
          shift, __builtin_ctzll(static_cast<unsigned long long>(m[i])));
    }
  }
  for (std::size_t i = 1; i < s.size(); ++i) m[i] >>= shift;
  const int scale_log2 = kScaleLog2 - shift;

  int width = 0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    width = std::max(width, BitWidth(ZigZag(m[i] - m[i - 1])));
  }
  const std::size_t packed_bytes =
      (s.size() - 1) * static_cast<std::size_t>(width) / 8 +
      ((s.size() - 1) * static_cast<std::size_t>(width) % 8 != 0 ? 1 : 0);
  const std::size_t encoded_size = 1 + 1 + 1 + (exceptions.empty() ? 0 : 4) +
                                   8 + packed_bytes + exceptions.size() * 12;
  // Pick the smaller representation; a series that is mostly off-grid costs
  // less stored raw than as a wall of exceptions.
  if (width > kMaxBitWidth || encoded_size >= 1 + s.size() * 8) {
    AppendRaw(s, out);
    return out->size() - before;
  }

  out->push_back(
      static_cast<char>(exceptions.empty() ? kModePacked : kModePackedEx));
  out->push_back(static_cast<char>(width));
  out->push_back(static_cast<char>(scale_log2));
  if (!exceptions.empty()) {
    AppendU32(out, static_cast<std::uint32_t>(exceptions.size()));
  }
  AppendDouble(out, v0);
  if (width > 0) {
    std::uint64_t acc = 0;
    int bits = 0;
    for (std::size_t i = 1; i < s.size(); ++i) {
      const std::uint64_t z = ZigZag(m[i] - m[i - 1]);
      acc |= z << bits;
      bits += width;
      while (bits >= 8) {
        out->push_back(static_cast<char>(acc & 0xffu));
        acc >>= 8;
        bits -= 8;
      }
      // Refill the spill the shift above could not express (bits + width can
      // exceed 64 only transiently; width <= 53 keeps acc lossless because we
      // drain below 8 bits before the next value).
    }
    if (bits > 0) out->push_back(static_cast<char>(acc & 0xffu));
  }
  for (std::uint32_t idx : exceptions) {
    AppendU32(out, idx);
    AppendDouble(out, s[idx]);
  }
  return out->size() - before;
}

Status SkipSeries(std::string_view in, std::size_t* pos, std::size_t n) {
  std::size_t p = *pos;
  if (p >= in.size()) return Status::Corruption("series blob truncated");
  const std::uint8_t mode = static_cast<std::uint8_t>(in[p++]);
  std::size_t body = n * 8;
  if (mode == kModePacked || mode == kModePackedEx) {
    if (n == 0) return Status::Corruption("packed blob for an empty series");
    const std::size_t header_bytes = mode == kModePackedEx ? 2 + 4 + 8 : 2 + 8;
    if (in.size() - p < header_bytes) {
      return Status::Corruption("packed header truncated");
    }
    const std::size_t width = static_cast<std::uint8_t>(in[p]);
    if (width > kMaxBitWidth) {
      return Status::Corruption("packed bit width out of range");
    }
    std::uint32_t exception_count = 0;
    if (mode == kModePackedEx) {
      std::memcpy(&exception_count, in.data() + p + 2, 4);
    }
    body = header_bytes + ((n - 1) * width + 7) / 8 +
           static_cast<std::size_t>(exception_count) * 12;
  } else if (mode != kModeRaw) {
    return Status::Corruption("unknown series codec mode");
  }
  if (in.size() - p < body) return Status::Corruption("series blob truncated");
  *pos = p + body;
  return Status::OK();
}

Status DecodeSeries(std::string_view in, std::size_t* pos, std::size_t n,
                    double* out) {
  std::size_t p = *pos;
  if (p >= in.size()) return Status::Corruption("series blob truncated");
  const std::uint8_t mode = static_cast<std::uint8_t>(in[p++]);
  if (mode == kModeRaw) {
    if (in.size() - p < n * 8) {
      return Status::Corruption("raw series blob truncated");
    }
    std::memcpy(out, in.data() + p, n * 8);
    *pos = p + n * 8;
    return Status::OK();
  }
  if (mode != kModePacked && mode != kModePackedEx) {
    return Status::Corruption("unknown series codec mode");
  }
  if (n == 0) return Status::Corruption("packed blob for an empty series");
  const std::size_t header_bytes = mode == kModePackedEx ? 2 + 4 + 8 : 2 + 8;
  if (in.size() - p < header_bytes) {
    return Status::Corruption("packed header truncated");
  }
  const int width = static_cast<std::uint8_t>(in[p++]);
  if (width > kMaxBitWidth) return Status::Corruption("packed bit width out of range");
  const int scale_log2 = static_cast<std::uint8_t>(in[p++]);
  if (scale_log2 > kScaleLog2) {
    return Status::Corruption("packed scale exponent out of range");
  }
  std::uint32_t exception_count = 0;
  if (mode == kModePackedEx) {
    std::memcpy(&exception_count, in.data() + p, 4);
    p += 4;
    if (exception_count == 0 || exception_count > n) {
      return Status::Corruption("packed exception count out of range");
    }
  }
  double v0 = 0.0;
  std::memcpy(&v0, in.data() + p, 8);
  p += 8;
  if (!std::isfinite(v0)) return Status::Corruption("non-finite packed anchor");

  std::vector<std::int64_t>& m = Scratch();
  m.assign(n, 0);
  if (width > 0 && n > 1) {
    const std::size_t packed_bytes = ((n - 1) * static_cast<std::size_t>(width) + 7) / 8;
    if (in.size() - p < packed_bytes) {
      return Status::Corruption("packed series blob truncated");
    }
    const std::uint8_t* bytes =
        reinterpret_cast<const std::uint8_t*>(in.data() + p);
    std::uint64_t acc = 0;
    int bits = 0;
    std::size_t next = 0;
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    std::int64_t prev = 0;
    for (std::size_t i = 1; i < n; ++i) {
      while (bits < width) {
        acc |= static_cast<std::uint64_t>(bytes[next++]) << bits;
        bits += 8;
      }
      const std::int64_t d = UnZigZag(acc & mask);
      acc >>= width;
      bits -= width;
      prev += d;  // exact int64 prefix sum: the reconstruction backbone
      if (prev > kMaxQuantum || prev < -kMaxQuantum) {
        return Status::Corruption("packed series offset out of range");
      }
      m[i] = prev;
    }
    p += packed_bytes;
  }
  kernels::ActiveKernels().delta_decode(m.data(), n, v0,
                                        std::ldexp(1.0, -scale_log2), out);
  if (exception_count > 0) {
    if (in.size() - p < static_cast<std::size_t>(exception_count) * 12) {
      return Status::Corruption("packed exception list truncated");
    }
    std::int64_t last = -1;
    for (std::uint32_t e = 0; e < exception_count; ++e) {
      std::uint32_t idx = 0;
      std::memcpy(&idx, in.data() + p, 4);
      p += 4;
      if (idx >= n || static_cast<std::int64_t>(idx) <= last) {
        return Status::Corruption("packed exception index out of order");
      }
      last = idx;
      std::memcpy(out + idx, in.data() + p, 8);
      p += 8;
    }
  }
  *pos = p;
  return Status::OK();
}

Status DecodeSeries(std::string_view in, std::size_t* pos, std::size_t n,
                    Series* out) {
  // Decode into a reused scratch, then single-pass assign into the result:
  // sizing *out first would zero-fill storage the decode immediately
  // overwrites — a wasted 8n-byte write pass that adds up over the hundred
  // thousand series a bulk reopen decodes. The scratch stays L1-resident for
  // typical series lengths.
  thread_local std::vector<double> tmp;
  tmp.resize(n);
  HUMDEX_RETURN_IF_ERROR(DecodeSeries(in, pos, n, tmp.data()));
  out->assign(tmp.begin(), tmp.end());
  return Status::OK();
}

}  // namespace codec
}  // namespace humdex
