// Loopback wire load for the serving workloads: closed-loop clients and the
// server of the traced run. Every client speaks the humdexd protocol through
// serve::EncodeRequest / EncodeFrame / DecodeFrame / ParseResponse.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/sharded_engine.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

struct LoadSpec {
  int port = 0;
  std::size_t connections = 2;
  /// kind, top_k or epsilon, deadline (0); the pitch is set per request.
  humdex::serve::Request request;
  const std::vector<Series>* hums = nullptr;
  /// Answers are kept only for the hums the oracle checks (every
  /// answer_stride-th), which keeps rss_mb nearly independent of how many
  /// requests a run completes.
  std::size_t answer_stride = 1;
  double warmup_s = 1.0;
  double seconds = 10.0;
  /// Traced run: client-side spans. Request ids are (connection + 1) << 32 |
  /// sequence, which is how TracedServer numbers the same requests.
  SpanRecorder* spans = nullptr;
};

struct WireAnswer {
  std::size_t hum = 0;
  std::vector<QbhMatch> matches;
};

struct LoadResult {
  std::vector<double> latencies_ms;  ///< measured window, completed requests
  std::vector<std::size_t> latency_hums;  ///< the hum of each latency
  std::vector<WireAnswer> answers;   ///< measured answers of checked hums
  std::size_t attempted = 0;         ///< measured window
  std::size_t failed = 0;
  double window_s = 0.0;
  std::uint64_t window_start_ns = 0;
  std::int64_t queue_depth_max = 0;  ///< thread_pool.queue_depth samples
  double request_bytes = 0.0;        ///< mean frame bytes
  double response_bytes = 0.0;
  double encode_us = 0.0;            ///< mean request encode, done up front
  std::string first_error;
};

/// `spec.connections` closed-loop clients, one thread each: after a warm-up
/// they send for `spec.seconds` and time every request from send to parsed
/// reply. Request frames are encoded once per hum before the load starts.
/// A transport error, err reply, or a partial, truncated or rejected answer
/// counts as failed.
LoadResult RunClosedLoop(const LoadSpec& spec);

/// The server of the traced run: a copy of HumdexServer's connection loop
/// with spans around its calls. HumdexServer cannot be traced from outside,
/// because its dispatch (HandlePayload) is private. Like HumdexServer with
/// default ServerOptions it runs one thread per connection, refuses
/// connections past max_connections, polls with the idle timeout before
/// each read, reads the 4-byte header and then exactly the payload, and
/// frames each reply with EncodeFrame. Its dispatch makes the same public
/// calls as HandlePayload's query/range branch — ParseRequest,
/// ShardedEngine::Query or RangeQuery, EncodeResponse — each inside a span,
/// under a server.dispatch span whose request id matches the client's.
/// It differs from HumdexServer in that it serves only query and range,
/// bumps none of the server.* registry counters, and stops by shutting its
/// sockets down rather than by a stop flag. With a null recorder it records
/// nothing, which is how the traced run measures the cost of tracing.
class TracedServer {
 public:
  TracedServer(humdex::serve::ShardedEngine* engine, SpanRecorder* spans);
  ~TracedServer();
  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  humdex::Status Start();
  void Stop();
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void Serve(int fd, std::uint64_t connection);
  std::string Dispatch(const std::string& payload, std::uint64_t request);

  humdex::serve::ShardedEngine* engine_;
  SpanRecorder* spans_;
  const humdex::serve::ServerOptions opts_;
  std::atomic<std::size_t> open_{0};
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex mu_;  // guards fds_ and threads_
  std::vector<int> fds_;
  std::vector<std::thread> threads_;
  std::thread accept_thread_;
};

}  // namespace perfbench
