// humdexd: a length-prefixed TCP front end over a ShardedEngine. One accept
// thread hands connections to detached-but-joined worker threads; each
// connection is a loop of (read frame, handle request, write response
// frame). Every failure mode — malformed frame, oversized length, parse
// error, engine rejection — produces an error response or a closed
// connection, never an abort: the serving process outlives its clients'
// bugs.
//
// Health and metrics ride the same protocol: `health` renders the per-shard
// state machine (ShardHealthName, read_only/lossy flags, live melody
// counts), `metrics` renders the process-wide registry as a Prometheus text
// page.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/sharded_engine.h"
#include "util/status.h"

namespace humdex {
namespace serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = pick an ephemeral port (read it back via port())
  int backlog = 64;
  /// Connections past this bound are accepted and immediately closed (the
  /// client sees EOF and backs off) instead of spawning unbounded threads.
  std::size_t max_connections = 64;
  /// A connection that sends no byte for this long is closed and counted in
  /// `server.idle_disconnects` — a silent client must not pin a handler
  /// thread forever. 0 disables the timeout.
  std::uint64_t idle_timeout_ms = 60000;
};

class HumdexServer {
 public:
  /// The engine must outlive the server; it is shared with any other thread
  /// mutating or repairing it (ShardedEngine is internally synchronized).
  HumdexServer(ShardedEngine* engine, ServerOptions opts);
  ~HumdexServer();
  HumdexServer(const HumdexServer&) = delete;
  HumdexServer& operator=(const HumdexServer&) = delete;

  /// Bind + listen + start the accept thread. kIoError on bind failures.
  Status Start();

  /// Close the listener and every open connection, join all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after Start; useful with port 0).
  int port() const { return port_; }

  std::size_t connections_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Request -> response payload, exposed so tests can drive the full
  /// dispatch path without a socket.
  std::string HandlePayload(const std::string& payload) const;

 private:
  /// Runs on accept_thread_; takes the listener by value because Stop()
  /// owns listen_fd_ and closes it only after joining this thread.
  void AcceptLoop(int listen_fd);
  void ServeConnection(int fd);

  ShardedEngine* engine_;
  ServerOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> open_connections_{0};

  std::mutex mu_;  // guards conn_threads_ / conn_fds_
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
};

}  // namespace serve
}  // namespace humdex
