#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/export.h"
#include "obs/metrics.h"

namespace humdex {
namespace serve {

namespace {

obs::Counter& ConnectionsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.connections");
  return c;
}

obs::Counter& BadFramesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("serve.bad_frames");
  return c;
}

obs::Counter& IdleDisconnectsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().GetCounter("server.idle_disconnects");
  return c;
}

enum class ReadOutcome { kOk, kClosed, kIdle };

/// read() until `n` bytes, EOF/error, or `idle_timeout_ms` with no byte
/// arriving (0 = wait forever). kIdle means the peer went silent — the
/// caller should drop the connection rather than pin this thread on it.
ReadOutcome ReadFull(int fd, char* buf, std::size_t n,
                     std::uint64_t idle_timeout_ms) {
  std::size_t got = 0;
  while (got < n) {
    if (idle_timeout_ms > 0) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int p = ::poll(&pfd, 1, static_cast<int>(idle_timeout_ms));
      if (p == 0) return ReadOutcome::kIdle;
      if (p < 0) {
        if (errno == EINTR) continue;
        return ReadOutcome::kClosed;
      }
    }
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) return ReadOutcome::kClosed;  // peer closed
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kClosed;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadOutcome::kOk;
}

bool WriteFull(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a client that disconnects mid-response must produce
    // EPIPE here, not a process-killing SIGPIPE (Start also ignores the
    // signal process-wide as a second line of defense).
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

/// One frame off the wire: 4-byte header, bounded payload.
ReadOutcome ReadFrame(int fd, std::string* payload,
                      std::uint64_t idle_timeout_ms) {
  char header[4];
  ReadOutcome ro = ReadFull(fd, header, 4, idle_timeout_ms);
  if (ro != ReadOutcome::kOk) return ro;
  const std::uint32_t n =
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1]))
       << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]))
       << 24);
  if (n > kMaxFrameBytes) {
    BadFramesCounter().Increment();
    return ReadOutcome::kClosed;  // drop the connection; nothing allocated
  }
  payload->resize(n);
  if (n == 0) return ReadOutcome::kOk;
  return ReadFull(fd, payload->data(), n, idle_timeout_ms);
}

bool WriteFrame(int fd, const std::string& payload) {
  const std::string frame = EncodeFrame(payload);
  return WriteFull(fd, frame.data(), frame.size());
}

}  // namespace

HumdexServer::HumdexServer(ShardedEngine* engine, ServerOptions opts)
    : engine_(engine), opts_(std::move(opts)) {
  HUMDEX_CHECK(engine_ != nullptr);
}

HumdexServer::~HumdexServer() { Stop(); }

Status HumdexServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  // A client that resets its connection mid-response must not kill the
  // daemon: without this (plus MSG_NOSIGNAL on the send path) the default
  // SIGPIPE disposition terminates the process.
  std::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + opts_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, opts_.backlog) < 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return Status::OK();
}

void HumdexServer::Stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Shutdown wakes the blocked accept(); close alone does not on all
  // platforms. The descriptor is closed only after the accept thread has
  // exited, so that thread never sees it change or get reused.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  conn_fds_.clear();
}

void HumdexServer::AcceptLoop(int listen_fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (Stop) or fatal
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        open_connections_.load(std::memory_order_relaxed) >=
            opts_.max_connections) {
      // Admission control at the socket layer: past the bound the client
      // sees an immediate EOF and backs off, and the server never spawns
      // unbounded threads.
      ::close(fd);
      continue;
    }
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void HumdexServer::ServeConnection(int fd) {
  ConnectionsCounter().Increment();
  served_.fetch_add(1, std::memory_order_relaxed);
  std::string payload;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const ReadOutcome ro = ReadFrame(fd, &payload, opts_.idle_timeout_ms);
    if (ro == ReadOutcome::kIdle) {
      IdleDisconnectsCounter().Increment();
      break;
    }
    if (ro != ReadOutcome::kOk) break;
    const std::string response = HandlePayload(payload);
    if (!WriteFrame(fd, response)) break;
  }
  ::close(fd);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

std::string HumdexServer::HandlePayload(const std::string& payload) const {
  Request request;
  Response response;
  Status st = ParseRequest(payload, &request);
  if (!st.ok()) {
    response.ok = false;
    response.error = st.message();
    return EncodeResponse(response);
  }
  switch (request.kind) {
    case Request::Kind::kPing: {
      response.ok = true;
      response.text = "pong\n";
      break;
    }
    case Request::Kind::kQuery:
    case Request::Kind::kRange: {
      QueryOptions qopts;
      if (request.deadline_ms > 0) {
        qopts.deadline = Deadline::FromNowMillis(request.deadline_ms);
      }
      QueryStats stats;
      response.matches =
          request.kind == Request::Kind::kQuery
              ? engine_->Query(request.pitch, request.top_k, qopts, &stats)
              : engine_->RangeQuery(request.pitch, request.epsilon, qopts,
                                    &stats);
      response.ok = true;
      response.partial = stats.partial;
      response.truncated = stats.truncated || stats.rejected;
      response.shards_failed = stats.shards_failed;
      break;
    }
    case Request::Kind::kHealth: {
      response.ok = true;
      std::string text = "shards " + std::to_string(engine_->num_shards()) +
                         " serving " +
                         std::to_string(engine_->serving_shards()) +
                         " replication " +
                         std::to_string(engine_->replication()) + "\n";
      for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
        const ShardStatus status = engine_->shard_status(s);
        text += "shard " + std::to_string(s) + " " +
                ShardHealthName(status.health) +
                " read_only=" + (status.read_only ? "1" : "0") +
                " lossy=" + (status.lossy ? "1" : "0") + " melodies=" +
                std::to_string(status.live_melodies) + " replicas=" +
                std::to_string(status.serving_replicas) + "/" +
                std::to_string(status.replicas) + "\n";
        for (std::size_t r = 0; r < engine_->replication(); ++r) {
          const ShardStatus rs = engine_->replica_status(s, r);
          text += " replica " + std::to_string(s) + "/" + std::to_string(r) +
                  " " + ShardHealthName(rs.health) +
                  " read_only=" + (rs.read_only ? "1" : "0") +
                  " lossy=" + (rs.lossy ? "1" : "0") + " melodies=" +
                  std::to_string(rs.live_melodies) + "\n";
        }
      }
      response.text = std::move(text);
      break;
    }
    case Request::Kind::kMetrics: {
      response.ok = true;
      response.text = obs::ExportPrometheus(obs::MetricsRegistry::Default());
      break;
    }
  }
  return EncodeResponse(response);
}

}  // namespace serve
}  // namespace humdex
