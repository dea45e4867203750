// humdexd wire protocol: length-prefixed frames over a byte stream, with a
// line-oriented text payload. The framing is binary (4-byte little-endian
// payload length, bounded by kMaxFrameBytes) so a slow or malicious peer can
// never make the server buffer unbounded input or mis-split requests; the
// payload is text so a captured frame is directly debuggable.
//
// Requests (first line, then an optional `pitch ...` line):
//
//   ping
//   health
//   metrics
//   query <top_k> <deadline_ms>
//   pitch <v0> <v1> ...
//   range <epsilon> <deadline_ms>
//   pitch <v0> <v1> ...
//
// Responses:
//
//   ok <matches> <partial> <truncated> <shards_failed>
//   match <id> <distance> <name>            (x matches)
//   <free-form text body>                   (health page / metrics page)
// or
//   err <message>
//
// Lines end at `\n`. Tokens are split on the C-locale whitespace set (space,
// `\t`, `\r`, `\v`, `\f`), so CRLF frames parse; tokens past a header's
// fields are ignored, and a match name is the rest of its line.
//
// Number grammar (std::from_chars over the whole token, no locale):
//
//   count    [0-9]+                  top_k, deadline_ms, match count, id,
//                                    shards_failed; must fit std::size_t
//   decimal  [-]digits[.[digits]] or [-].digits, then an optional
//            (e|E)[+|-]digits        pitch values, epsilon, distances
//
// A decimal must be finite: `inf`, `infinity` and `nan` are errors, and so is
// a literal past DBL_MAX (`1e400`) or one that rounds a nonzero mantissa to
// zero (`1e-400`); subnormals parse. A leading `+`, hex floats (`0x1p3`) and
// trailing bytes (`1_`) are errors. Encoders write the shortest decimal that
// round-trips (std::to_chars), so every finite double, signed zero and
// subnormals included, comes back bit for bit.
//
// Encode/parse run on both sides of the socket, so the unit tests round-trip
// the protocol without opening one. Parsing is Status-based and bounds every
// size field: malformed frames produce an error response, never an abort.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qbh/qbh_system.h"
#include "util/status.h"

namespace humdex {
namespace serve {

/// Upper bound on one frame's payload; a header announcing more is a
/// protocol error (the connection is dropped, nothing is allocated).
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Upper bound on the values in one `pitch` line; one more is a parse error.
constexpr std::size_t kMaxPitchValues = kMaxFrameBytes / 2;

/// 4-byte little-endian length + payload.
std::string EncodeFrame(const std::string& payload);

/// Try to pop one frame off the front of `buffer`. Sets `*complete` when a
/// full frame was available (then `*payload` holds it and `*consumed` how
/// many buffer bytes it used); an announced length past kMaxFrameBytes is an
/// error. With an incomplete frame, returns OK with `*complete` false.
Status DecodeFrame(const std::string& buffer, std::string* payload,
                   std::size_t* consumed, bool* complete);

struct Request {
  enum class Kind { kPing, kQuery, kRange, kHealth, kMetrics };
  Kind kind = Kind::kPing;
  std::size_t top_k = 10;       // kQuery
  double epsilon = 0.0;         // kRange
  std::uint64_t deadline_ms = 0;  // 0 = no deadline
  Series pitch;                 // kQuery / kRange hum
};

std::string EncodeRequest(const Request& request);
Status ParseRequest(std::string_view payload, Request* out);

struct Response {
  bool ok = false;
  std::string error;  // set when !ok
  std::vector<QbhMatch> matches;
  bool partial = false;
  bool truncated = false;
  std::size_t shards_failed = 0;
  std::string text;  // health / metrics / ping body
};

std::string EncodeResponse(const Response& response);
Status ParseResponse(std::string_view payload, Response* out);

}  // namespace serve
}  // namespace humdex
