#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

namespace humdex {
namespace serve {

namespace {

// Upper bounds on parsed request fields: a hostile frame must not be able to
// request a gigabyte top-k allocation or a year-long deadline.
constexpr std::size_t kMaxTopK = 1u << 20;
constexpr std::uint64_t kMaxDeadlineMs = 24ull * 3600 * 1000;
// The shortest well-formed match line, "match 0 0": a match count caps the
// reservation at what the rest of the payload could hold.
constexpr std::size_t kMinMatchLineBytes = 9;
// The longest shortest-round-trip double, "-2.2250738585072014e-308".
constexpr std::size_t kMaxDoubleChars = 24;

// The C-locale isspace set, which `istream >> std::string` splits on.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Pops the next line (without its '\n') off `*rest`; false once it is empty.
bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) return false;
  const std::size_t nl = rest->find('\n');
  *line = rest->substr(0, nl);
  rest->remove_prefix(nl == std::string_view::npos ? rest->size() : nl + 1);
  return true;
}

std::string_view SkipSpace(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && IsSpace(text[i])) ++i;
  return text.substr(i);
}

// Pops the next whitespace-delimited token off `*line`; empty when none is
// left.
std::string_view NextToken(std::string_view* line) {
  *line = SkipSpace(*line);
  std::size_t n = 0;
  while (n < line->size() && !IsSpace((*line)[n])) ++n;
  const std::string_view token = line->substr(0, n);
  line->remove_prefix(n);
  return token;
}

Status ParseCount(std::string_view token, std::size_t* out) {
  const char* last = token.data() + token.size();
  std::size_t v = 0;
  const auto [stop, ec] = std::from_chars(token.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("integer out of range: '" +
                                   std::string(token) + "'");
  }
  if (ec != std::errc() || stop != last) {
    return Status::InvalidArgument("not an unsigned integer: '" +
                                   std::string(token) + "'");
  }
  *out = v;
  return Status::OK();
}

// Reads the finite double that starts at `first` and must end at `last` or
// at whitespace; `*end` is where it stopped. On error `*end` is unchanged.
Status ParseDecimal(const char* first, const char* last, double* out,
                    const char** end) {
  double v = 0.0;
  const auto [stop, ec] =
      std::from_chars(first, last, v, std::chars_format::general);
  const bool whole = ec != std::errc::invalid_argument &&
                     (stop == last || IsSpace(*stop));
  if (whole && ec == std::errc() && std::isfinite(v)) {
    *out = v;
    *end = stop;
    return Status::OK();
  }
  std::string_view rest(first, static_cast<std::size_t>(last - first));
  return Status::InvalidArgument(
      (whole ? "number out of range: '" : "not a number: '") +
      std::string(NextToken(&rest)) + "'");
}

Status ParseDecimal(std::string_view token, double* out) {
  const char* end = nullptr;
  return ParseDecimal(token.data(), token.data() + token.size(), out, &end);
}

// Appends `v` as std::to_chars writes it: shortest round-trip for a double.
template <typename T>
void AppendNumber(std::string* out, T v) {
  char buf[32];  // a double or a 64-bit integer
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

}  // namespace

std::string EncodeFrame(const std::string& payload) {
  HUMDEX_CHECK(payload.size() <= kMaxFrameBytes);
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out += payload;
  return out;
}

Status DecodeFrame(const std::string& buffer, std::string* payload,
                   std::size_t* consumed, bool* complete) {
  *complete = false;
  *consumed = 0;
  if (buffer.size() < 4) return Status::OK();
  const std::uint32_t n =
      static_cast<std::uint32_t>(static_cast<unsigned char>(buffer[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buffer[3]))
       << 24);
  if (n > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(n) +
                                   " exceeds the " +
                                   std::to_string(kMaxFrameBytes) +
                                   "-byte bound");
  }
  if (buffer.size() < 4 + static_cast<std::size_t>(n)) return Status::OK();
  *payload = buffer.substr(4, n);
  *consumed = 4 + static_cast<std::size_t>(n);
  *complete = true;
  return Status::OK();
}

std::string EncodeRequest(const Request& request) {
  switch (request.kind) {
    case Request::Kind::kPing:
      return "ping\n";
    case Request::Kind::kHealth:
      return "health\n";
    case Request::Kind::kMetrics:
      return "metrics\n";
    case Request::Kind::kQuery:
    case Request::Kind::kRange:
      break;
  }
  // The header line, then a space and at most kMaxDoubleChars per value.
  std::string out;
  out.reserve(64 + (kMaxDoubleChars + 1) * request.pitch.size());
  if (request.kind == Request::Kind::kQuery) {
    out += "query ";
    AppendNumber(&out, request.top_k);
  } else {
    out += "range ";
    AppendNumber(&out, request.epsilon);
  }
  out += ' ';
  AppendNumber(&out, request.deadline_ms);
  out += "\npitch";
  for (double v : request.pitch) {
    out += ' ';
    AppendNumber(&out, v);
  }
  out += '\n';
  return out;
}

Status ParseRequest(std::string_view payload, Request* out) {
  *out = Request();
  std::string_view line;
  if (!NextLine(&payload, &line)) {
    return Status::InvalidArgument("empty request");
  }
  const std::string_view verb = NextToken(&line);
  if (verb == "ping") {
    out->kind = Request::Kind::kPing;
    return Status::OK();
  }
  if (verb == "health") {
    out->kind = Request::Kind::kHealth;
    return Status::OK();
  }
  if (verb == "metrics") {
    out->kind = Request::Kind::kMetrics;
    return Status::OK();
  }
  const std::string_view first = NextToken(&line);
  const std::string_view deadline = NextToken(&line);
  if (verb == "query") {
    out->kind = Request::Kind::kQuery;
    if (deadline.empty()) {
      return Status::InvalidArgument("query needs <top_k> <deadline_ms>");
    }
    HUMDEX_RETURN_IF_ERROR(ParseCount(first, &out->top_k));
    if (out->top_k == 0 || out->top_k > kMaxTopK) {
      return Status::InvalidArgument("top_k out of range: " +
                                     std::string(first));
    }
  } else if (verb == "range") {
    out->kind = Request::Kind::kRange;
    if (deadline.empty()) {
      return Status::InvalidArgument("range needs <epsilon> <deadline_ms>");
    }
    HUMDEX_RETURN_IF_ERROR(ParseDecimal(first, &out->epsilon));
    if (out->epsilon < 0.0) {
      return Status::InvalidArgument("epsilon out of range: " +
                                     std::string(first));
    }
  } else {
    return Status::InvalidArgument("unknown request verb '" +
                                   std::string(verb) + "'");
  }
  std::size_t ms = 0;
  HUMDEX_RETURN_IF_ERROR(ParseCount(deadline, &ms));
  if (ms > kMaxDeadlineMs) {
    return Status::InvalidArgument("deadline_ms out of range: " +
                                   std::string(deadline));
  }
  out->deadline_ms = ms;

  if (!NextLine(&payload, &line) || !line.starts_with("pitch")) {
    return Status::InvalidArgument("missing pitch line");
  }
  // One pass over the values: from_chars reads each number in place and
  // stops at the whitespace that ends it.
  const char* p = line.data() + 5;
  const char* const last = line.data() + line.size();
  for (;;) {
    while (p != last && IsSpace(*p)) ++p;
    if (p == last) break;
    if (out->pitch.size() >= kMaxPitchValues) {
      return Status::InvalidArgument("pitch series too long");
    }
    double v = 0.0;
    HUMDEX_RETURN_IF_ERROR(ParseDecimal(p, last, &v, &p));
    out->pitch.push_back(v);
  }
  // An empty pitch series is legal on the wire: the engine rejects it as
  // unservable input, which is the answer the client should see.
  return Status::OK();
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  if (!response.ok) {
    out.reserve(5 + response.error.size());
    out += "err ";
    out += response.error;
    // Errors are one line by construction.
    std::replace(out.begin() + 4, out.end(), '\n', ' ');
    out += '\n';
    return out;
  }
  std::size_t bytes = 64 + response.text.size();
  for (const QbhMatch& m : response.matches) {
    bytes += 32 + kMaxDoubleChars + m.name.size();
  }
  out.reserve(bytes);
  out += "ok ";
  AppendNumber(&out, response.matches.size());
  out += response.partial ? " 1" : " 0";
  out += response.truncated ? " 1 " : " 0 ";
  AppendNumber(&out, response.shards_failed);
  out += '\n';
  for (const QbhMatch& m : response.matches) {
    out += "match ";
    AppendNumber(&out, m.id);
    out += ' ';
    AppendNumber(&out, m.distance);
    out += ' ';
    out += m.name;
    out += '\n';
  }
  out += response.text;
  return out;
}

Status ParseResponse(std::string_view payload, Response* out) {
  *out = Response();
  std::string_view line;
  if (!NextLine(&payload, &line)) {
    return Status::InvalidArgument("empty response");
  }
  if (line.starts_with("err ")) {
    out->ok = false;
    out->error = std::string(line.substr(4));
    return Status::OK();
  }
  std::string_view fields = line;
  const std::string_view tag = NextToken(&fields);
  const std::string_view matches = NextToken(&fields);
  const std::string_view partial = NextToken(&fields);
  const std::string_view truncated = NextToken(&fields);
  const std::string_view failed = NextToken(&fields);
  if (failed.empty() || tag != "ok") {
    return Status::InvalidArgument("malformed response header: '" +
                                   std::string(line) + "'");
  }
  std::size_t n = 0;
  HUMDEX_RETURN_IF_ERROR(ParseCount(matches, &n));
  if (n > kMaxTopK) {
    return Status::InvalidArgument("match count out of range: " +
                                   std::string(matches));
  }
  out->ok = true;
  out->partial = partial == "1";
  out->truncated = truncated == "1";
  HUMDEX_RETURN_IF_ERROR(ParseCount(failed, &out->shards_failed));
  // The count is untrusted: reserve no more than the payload could hold.
  out->matches.reserve(std::min(n, payload.size() / kMinMatchLineBytes));
  for (std::size_t i = 0; i < n; ++i) {
    if (!NextLine(&payload, &line) || !line.starts_with("match ")) {
      return Status::InvalidArgument("missing match line " + std::to_string(i));
    }
    fields = line.substr(6);
    const std::string_view id = NextToken(&fields);
    const std::string_view distance = NextToken(&fields);
    if (distance.empty()) {
      return Status::InvalidArgument("malformed match line: '" +
                                     std::string(line) + "'");
    }
    QbhMatch m;
    std::size_t id_value = 0;
    HUMDEX_RETURN_IF_ERROR(ParseCount(id, &id_value));
    m.id = static_cast<std::int64_t>(id_value);
    HUMDEX_RETURN_IF_ERROR(ParseDecimal(distance, &m.distance));
    // The name is everything after the distance token (it may hold spaces).
    m.name = std::string(SkipSpace(fields));
    out->matches.push_back(std::move(m));
  }
  // Whatever follows the match lines is the free-form body, each line
  // newline-terminated.
  out->text = std::string(payload);
  if (!payload.empty() && payload.back() != '\n') out->text += '\n';
  return Status::OK();
}

}  // namespace serve
}  // namespace humdex
