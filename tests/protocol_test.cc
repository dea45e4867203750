// Wire protocol: framing and request/response round trips, plus the
// hostile-input paths — every malformed payload must come back as a Status
// error (which the server turns into an `err` response), never an abort.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/random.h"

namespace humdex {
namespace serve {
namespace {

std::string Framed(const std::string& payload) { return EncodeFrame(payload); }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Random finite bit patterns (every exponent, subnormals included) plus the
// edges of the double range: both zeros, the smallest and largest
// subnormals, DBL_MIN and DBL_MAX, each with both signs.
std::vector<double> EdgeAndRandomDoubles() {
  const double largest_subnormal = std::nextafter(DBL_MIN, 0.0);
  std::vector<double> values;
  for (double v : {0.0, std::numeric_limits<double>::denorm_min(),
                   largest_subnormal, DBL_MIN, DBL_MAX}) {
    values.push_back(v);
    values.push_back(-v);
  }
  Rng rng(20);
  while (values.size() < 3000) {
    const std::uint64_t bits =
        (static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  return values;
}

std::string PitchRequest(const std::string& pitch_line) {
  return "query 3 0\npitch" + pitch_line + "\n";
}

TEST(ProtocolFrameTest, RoundTripsPayloads) {
  for (const std::string payload : {std::string(), std::string("x"),
                                    std::string(1000, 'q')}) {
    const std::string buffer = Framed(payload);
    std::string got;
    std::size_t consumed = 0;
    bool complete = false;
    ASSERT_TRUE(DecodeFrame(buffer, &got, &consumed, &complete).ok());
    EXPECT_TRUE(complete);
    EXPECT_EQ(consumed, buffer.size());
    EXPECT_EQ(got, payload);
  }
}

TEST(ProtocolFrameTest, IncompleteFramesWaitForMoreBytes) {
  const std::string buffer = Framed("hello world");
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    std::string got;
    std::size_t consumed = 9;
    bool complete = true;
    ASSERT_TRUE(
        DecodeFrame(buffer.substr(0, cut), &got, &consumed, &complete).ok());
    EXPECT_FALSE(complete);
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(ProtocolFrameTest, TwoFramesDecodeInSequence) {
  const std::string buffer = Framed("first") + Framed("second");
  std::string got;
  std::size_t consumed = 0;
  bool complete = false;
  ASSERT_TRUE(DecodeFrame(buffer, &got, &consumed, &complete).ok());
  ASSERT_TRUE(complete);
  EXPECT_EQ(got, "first");
  ASSERT_TRUE(
      DecodeFrame(buffer.substr(consumed), &got, &consumed, &complete).ok());
  ASSERT_TRUE(complete);
  EXPECT_EQ(got, "second");
}

TEST(ProtocolFrameTest, OversizedLengthHeaderIsAnError) {
  std::string buffer = Framed("");
  buffer[3] = static_cast<char>(0xff);  // announce ~4GB
  std::string got;
  std::size_t consumed = 0;
  bool complete = false;
  EXPECT_FALSE(DecodeFrame(buffer, &got, &consumed, &complete).ok());
}

TEST(ProtocolRequestTest, QueryRoundTrips) {
  Request request;
  request.kind = Request::Kind::kQuery;
  request.top_k = 7;
  request.deadline_ms = 250;
  request.pitch = {60.0, 62.5, -1.0, 64.000000001};
  Request parsed;
  ASSERT_TRUE(ParseRequest(EncodeRequest(request), &parsed).ok());
  EXPECT_EQ(parsed.kind, Request::Kind::kQuery);
  EXPECT_EQ(parsed.top_k, 7u);
  EXPECT_EQ(parsed.deadline_ms, 250u);
  ASSERT_EQ(parsed.pitch.size(), request.pitch.size());
  for (std::size_t i = 0; i < request.pitch.size(); ++i) {
    EXPECT_EQ(parsed.pitch[i], request.pitch[i]);  // to_chars round-trips
  }
}

TEST(ProtocolRequestTest, RangeAndControlVerbsRoundTrip) {
  Request range;
  range.kind = Request::Kind::kRange;
  range.epsilon = 3.25;
  range.pitch = {1.0, 2.0};
  Request parsed;
  ASSERT_TRUE(ParseRequest(EncodeRequest(range), &parsed).ok());
  EXPECT_EQ(parsed.kind, Request::Kind::kRange);
  EXPECT_EQ(parsed.epsilon, 3.25);

  for (Request::Kind kind : {Request::Kind::kPing, Request::Kind::kHealth,
                             Request::Kind::kMetrics}) {
    Request control;
    control.kind = kind;
    ASSERT_TRUE(ParseRequest(EncodeRequest(control), &parsed).ok());
    EXPECT_EQ(parsed.kind, kind);
  }
}

TEST(ProtocolRequestTest, HostileRequestsAreStatusErrorsNotAborts) {
  Request parsed;
  for (const std::string payload : {
           std::string(),                        // empty
           std::string("launch missiles\n"),     // unknown verb
           std::string("query\n"),               // missing args
           std::string("query 0 10\npitch 1\n"),  // top_k = 0
           std::string("query 99999999999 0\npitch 1\n"),  // absurd top_k
           std::string("query 5 999999999999999\npitch 1\n"),  // absurd ms
           std::string("query 5 10\n"),          // missing pitch line
           std::string("query 5 10\npitch 1 2 nan_garbage\n"),
           std::string("range inf 0\npitch 1\n"),  // non-finite epsilon
           std::string("range -1 0\npitch 1\n"),
       }) {
    EXPECT_FALSE(ParseRequest(payload, &parsed).ok()) << payload;
  }
  // An empty pitch series parses: the engine rejects it downstream.
  EXPECT_TRUE(ParseRequest("query 5 0\npitch\n", &parsed).ok());
  EXPECT_TRUE(parsed.pitch.empty());
}

TEST(ProtocolResponseTest, MatchListRoundTrips) {
  Response response;
  response.ok = true;
  response.partial = true;
  response.truncated = false;
  response.shards_failed = 2;
  QbhMatch a;
  a.id = 41;
  a.distance = 1.25e-3;
  a.name = "song with spaces in the name";
  QbhMatch b;
  b.id = 7;
  b.distance = 2.0;
  b.name = "plain";
  response.matches = {a, b};
  Response parsed;
  ASSERT_TRUE(ParseResponse(EncodeResponse(response), &parsed).ok());
  EXPECT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.partial);
  EXPECT_FALSE(parsed.truncated);
  EXPECT_EQ(parsed.shards_failed, 2u);
  ASSERT_EQ(parsed.matches.size(), 2u);
  EXPECT_EQ(parsed.matches[0].id, 41);
  EXPECT_EQ(parsed.matches[0].distance, 1.25e-3);
  EXPECT_EQ(parsed.matches[0].name, "song with spaces in the name");
  EXPECT_EQ(parsed.matches[1].id, 7);
}

TEST(ProtocolResponseTest, ErrorAndBodyRoundTrip) {
  Response err;
  err.ok = false;
  err.error = "shard exploded\nwith a newline";
  Response parsed;
  ASSERT_TRUE(ParseResponse(EncodeResponse(err), &parsed).ok());
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.error, "shard exploded with a newline");

  Response body;
  body.ok = true;
  body.text = "shards 4 serving 3\nshard 0 healthy read_only=0 lossy=0\n";
  ASSERT_TRUE(ParseResponse(EncodeResponse(body), &parsed).ok());
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.text, body.text);
}

TEST(ProtocolResponseTest, HostileResponsesAreStatusErrors) {
  Response parsed;
  for (const std::string payload : {
           std::string(),
           std::string("yo 1 0 0 0\n"),
           std::string("ok 2 0 0 0\nmatch 1 1.0 a\n"),  // count lies
           std::string("ok 1 0 0 0\nnot_a_match\n"),
           std::string("ok 99999999999999 0 0 0\n"),  // absurd count
           std::string("ok 1000000 0 0 0\n"),  // count the payload can't hold
           std::string("ok 1000000 0 0 0\nmatch 1 1.0 a\n"),
       }) {
    EXPECT_FALSE(ParseResponse(payload, &parsed).ok()) << payload;
    // The untrusted count reserves no more matches than the bytes could
    // hold, not ~48 MB for a million QbhMatch slots.
    EXPECT_LE(parsed.matches.capacity(), payload.size()) << payload;
  }
}

TEST(ProtocolNumberTest, EveryFiniteDoubleRoundTripsBitForBit) {
  const std::vector<double> values = EdgeAndRandomDoubles();
  Request query;
  query.kind = Request::Kind::kQuery;
  query.pitch = values;
  Request parsed;
  const Status st = ParseRequest(EncodeRequest(query), &parsed);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(parsed.pitch.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameBits(parsed.pitch[i], values[i]))
        << i << ": " << values[i] << " came back " << parsed.pitch[i];
  }

  Request range;
  range.kind = Request::Kind::kRange;
  range.pitch = {1.0};
  Response response;
  response.ok = true;
  for (double v : values) {
    // Epsilon must be non-negative; -0.0 is not below zero and stays -0.0.
    range.epsilon = std::signbit(v) && v != 0.0 ? -v : v;
    ASSERT_TRUE(ParseRequest(EncodeRequest(range), &parsed).ok()) << v;
    EXPECT_TRUE(SameBits(parsed.epsilon, range.epsilon)) << range.epsilon;
    QbhMatch m;
    m.id = static_cast<std::int64_t>(response.matches.size());
    m.distance = v;
    m.name = "m";
    response.matches.push_back(m);
  }
  Response got;
  ASSERT_TRUE(ParseResponse(EncodeResponse(response), &got).ok());
  ASSERT_EQ(got.matches.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameBits(got.matches[i].distance, values[i]))
        << i << ": " << values[i] << " came back " << got.matches[i].distance;
  }
}

TEST(ProtocolNumberTest, GrammarTable) {
  struct Case {
    const char* token;
    bool parses;
    double value;
  };
  const Case cases[] = {
      {"60", true, 60.0},
      {"-1.5e-3", true, -1.5e-3},
      {"1E5", true, 1e5},
      {".5", true, 0.5},
      {"5.", true, 5.0},
      {"-0", true, -0.0},
      {"1e-310", true, 1e-310},  // subnormal
      {"+1.5", false, 0.0},      // no leading plus
      {"0x1p3", false, 0.0},     // no hex floats
      {"1e400", false, 0.0},     // overflows
      {"1e-400", false, 0.0},    // rounds a nonzero value to zero
      {"inf", false, 0.0},
      {"-inf", false, 0.0},
      {"nan", false, 0.0},
      {"infinity", false, 0.0},
      {"1_", false, 0.0},  // trailing bytes
      {"1e", false, 0.0},
      {"-", false, 0.0},
  };
  for (const Case& c : cases) {
    const std::string token = c.token;
    Request parsed;
    const Status pitch = ParseRequest(PitchRequest(" 1 " + token), &parsed);
    ASSERT_EQ(pitch.ok(), c.parses) << "pitch " << token;
    if (c.parses) {
      ASSERT_EQ(parsed.pitch.size(), 2u);
      EXPECT_TRUE(SameBits(parsed.pitch[1], c.value)) << token;
    }
    const bool negative = token[0] == '-';
    const Status eps = ParseRequest("range " + token + " 0\npitch 1\n", &parsed);
    EXPECT_EQ(eps.ok(), c.parses && (!negative || c.value == 0.0))
        << "epsilon " << token;
    Response response;
    const Status dist = ParseResponse("ok 1 0 0 0\nmatch 4 " + token + " x\n",
                                      &response);
    ASSERT_EQ(dist.ok(), c.parses) << "distance " << token;
    if (c.parses) EXPECT_TRUE(SameBits(response.matches[0].distance, c.value));
  }
  // Counts: digits only, and they must fit std::size_t.
  Request parsed;
  EXPECT_TRUE(ParseRequest("query 007 0\npitch 1\n", &parsed).ok());
  EXPECT_EQ(parsed.top_k, 7u);
  for (const char* top_k : {"+7", "-7", "7.0", "7_", "0x7",
                            "99999999999999999999999"}) {
    EXPECT_FALSE(ParseRequest("query " + std::string(top_k) +
                                  " 0\npitch 1\n",
                              &parsed)
                     .ok())
        << top_k;
  }
}

TEST(ProtocolNumberTest, SeparatorsFollowTheCLocaleWhitespaceSet) {
  Request parsed;
  for (const std::string payload : {
           std::string("query 3 0\npitch\t1\t2.5\n"),
           std::string("query\t3\t0\r\npitch 1\r2.5\r\n"),  // CRLF
           std::string("  query 3 0 extra tokens\npitch\v1\f 2.5  \n"),
           std::string("query 3 0\npitch 1 2.5"),  // no final newline
       }) {
    const Status st = ParseRequest(payload, &parsed);
    ASSERT_TRUE(st.ok()) << payload << ": " << st.message();
    EXPECT_EQ(parsed.top_k, 3u);
    EXPECT_EQ(parsed.pitch, (Series{1.0, 2.5})) << payload;
  }
  Response response;
  ASSERT_TRUE(ParseResponse("ok\t1 0 1 0\r\nmatch 4\t2.5\t two words\r\n",
                            &response)
                  .ok());
  EXPECT_TRUE(response.truncated);
  ASSERT_EQ(response.matches.size(), 1u);
  EXPECT_EQ(response.matches[0].id, 4);
  EXPECT_EQ(response.matches[0].distance, 2.5);
  EXPECT_EQ(response.matches[0].name, "two words\r");  // rest of the line
}

TEST(ProtocolNumberTest, PitchLineHoldsAtMostKMaxPitchValues) {
  std::string line;
  line.reserve(2 * kMaxPitchValues + 2);
  for (std::size_t i = 0; i < kMaxPitchValues; ++i) line += " 0";
  Request parsed;
  ASSERT_TRUE(ParseRequest(PitchRequest(line), &parsed).ok());
  EXPECT_EQ(parsed.pitch.size(), kMaxPitchValues);
  line += " 0";
  EXPECT_FALSE(ParseRequest(PitchRequest(line), &parsed).ok());
}

}  // namespace
}  // namespace serve
}  // namespace humdex
