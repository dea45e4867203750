#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "obs/metrics.h"

namespace perfbench {

using humdex::serve::DecodeFrame;
using humdex::serve::EncodeFrame;
using humdex::serve::EncodeRequest;
using humdex::serve::EncodeResponse;
using humdex::serve::ParseRequest;
using humdex::serve::ParseResponse;
using humdex::serve::Request;
using humdex::serve::Response;

namespace {

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

/// Reads until one frame is complete. `*buffer` keeps bytes past it.
bool RecvFrame(int fd, std::string* buffer, std::string* payload) {
  char chunk[16384];
  while (true) {
    std::size_t consumed = 0;
    bool complete = false;
    if (!DecodeFrame(*buffer, payload, &consumed, &complete).ok()) {
      return false;
    }
    if (complete) {
      buffer->erase(0, consumed);
      return true;
    }
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    buffer->append(chunk, static_cast<std::size_t>(r));
  }
}

/// Server side, as HumdexServer::ServeConnection reads: poll with the idle
/// timeout, then read() until exactly `n` bytes have arrived.
bool ReadFull(int fd, char* buf, std::size_t n, std::uint64_t idle_timeout_ms) {
  std::size_t got = 0;
  while (got < n) {
    pollfd pfd{fd, POLLIN, 0};
    const int p = ::poll(&pfd, 1, static_cast<int>(idle_timeout_ms));
    if (p == 0) return false;
    if (p < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// One frame: the 4-byte little-endian length, then exactly that many bytes.
bool ReadServerFrame(int fd, std::string* payload,
                     std::uint64_t idle_timeout_ms) {
  unsigned char header[4];
  if (!ReadFull(fd, reinterpret_cast<char*>(header), 4, idle_timeout_ms)) {
    return false;
  }
  const std::uint32_t n = static_cast<std::uint32_t>(header[0]) |
                          static_cast<std::uint32_t>(header[1]) << 8 |
                          static_cast<std::uint32_t>(header[2]) << 16 |
                          static_cast<std::uint32_t>(header[3]) << 24;
  if (n > humdex::serve::kMaxFrameBytes) return false;
  payload->resize(n);
  return n == 0 || ReadFull(fd, payload->data(), n, idle_timeout_ms);
}

std::uint64_t RequestId(std::size_t connection, std::uint64_t sequence) {
  return (static_cast<std::uint64_t>(connection + 1) << 32) | sequence;
}

/// Checks one reply; returns the error or "" when it is a full answer.
std::string CheckReply(const std::string& payload, Response* response) {
  if (!ParseResponse(payload, response).ok()) return "unparsable reply";
  if (!response->ok) return "err reply: " + response->error;
  if (response->partial || response->shards_failed > 0) return "partial";
  if (response->truncated) return "truncated or rejected";
  return "";
}

std::vector<int> DialAll(const LoadSpec& spec) {
  // Sequential dials: the server accepts them in this order, which is how
  // TracedServer numbers connections.
  std::vector<int> fds;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    fds.push_back(Dial(spec.port));
  }
  return fds;
}

/// One request frame per hum, encoded before the load starts: a client
/// encodes its hum once, and per-request encoding would put the client's
/// CPU in contention with the server on the same cores. `*encode_us` gets
/// the mean encode time, which the traced run adds to protocol.codec_us.
std::vector<std::string> EncodeFrames(const LoadSpec& spec,
                                      double* encode_us) {
  std::vector<std::string> frames;
  Request request = spec.request;
  const std::uint64_t t0 = NowNs();
  for (const Series& hum : *spec.hums) {
    request.pitch = hum;
    frames.push_back(EncodeFrame(EncodeRequest(request)));
  }
  *encode_us = static_cast<double>(NowNs() - t0) * 1e-3 /
               static_cast<double>(std::max<std::size_t>(frames.size(), 1));
  return frames;
}

}  // namespace

LoadResult RunClosedLoop(const LoadSpec& spec) {
  humdex::obs::Gauge& depth =
      humdex::obs::MetricsRegistry::Default().GetGauge("thread_pool.queue_depth");
  double encode_us = 0.0;
  const std::vector<std::string> frames = EncodeFrames(spec, &encode_us);
  const std::vector<int> fds = DialAll(spec);
  const std::uint64_t start = NowNs();
  const std::uint64_t window_start =
      start + static_cast<std::uint64_t>(spec.warmup_s * 1e9);
  const std::uint64_t end =
      window_start + static_cast<std::uint64_t>(spec.seconds * 1e9);

  std::vector<LoadResult> per(spec.connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per[c];
      const int fd = fds[c];
      if (fd < 0) {
        out.attempted = out.failed = 1;
        out.first_error = "connect failed";
        return;
      }
      std::string buffer;
      std::string payload;
      for (std::uint64_t seq = 0;; ++seq) {
        const std::uint64_t t0 = NowNs();
        if (t0 >= end) break;
        const std::size_t hum = (c + seq * spec.connections) % frames.size();
        const std::string& frame = frames[hum];
        const std::uint64_t id = RequestId(c, seq);
        Response response;
        std::string error;
        {
          ScopedSpan whole(spec.spans, "client.request", id);
          bool sent = false;
          {
            ScopedSpan s(spec.spans, "client.wait", id, whole.id());
            sent = SendAll(fd, frame) && RecvFrame(fd, &buffer, &payload);
          }
          if (!sent) {
            error = "transport error";
          } else {
            ScopedSpan s(spec.spans, "protocol.decode_response", id,
                         whole.id());
            error = CheckReply(payload, &response);
          }
        }
        const std::uint64_t t1 = NowNs();
        if (t0 < window_start) continue;
        ++out.attempted;
        out.request_bytes += static_cast<double>(frame.size());
        out.response_bytes += static_cast<double>(payload.size() + 4);
        out.queue_depth_max = std::max(out.queue_depth_max, depth.value());
        if (!error.empty()) {
          ++out.failed;
          if (out.first_error.empty()) out.first_error = error;
          if (error == "transport error") break;
          continue;
        }
        out.latencies_ms.push_back(Ms(t0, t1));
        out.latency_hums.push_back(hum);
        if (hum % spec.answer_stride == 0) {
          out.answers.push_back({hum, std::move(response.matches)});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }

  LoadResult total;
  total.encode_us = encode_us;
  total.window_start_ns = window_start;
  total.window_s = static_cast<double>(std::max(NowNs(), end) - window_start) *
                   1e-9;
  for (LoadResult& r : per) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.queue_depth_max = std::max(total.queue_depth_max, r.queue_depth_max);
    total.request_bytes += r.request_bytes;
    total.response_bytes += r.response_bytes;
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
    total.latency_hums.insert(total.latency_hums.end(), r.latency_hums.begin(),
                              r.latency_hums.end());
    for (WireAnswer& a : r.answers) total.answers.push_back(std::move(a));
    if (total.first_error.empty()) total.first_error = r.first_error;
  }
  if (total.attempted > 0) {
    total.request_bytes /= static_cast<double>(total.attempted);
    total.response_bytes /= static_cast<double>(total.attempted);
  }
  return total;
}

TracedServer::TracedServer(humdex::serve::ShardedEngine* engine,
                           SpanRecorder* spans)
    : engine_(engine), spans_(spans) {}

TracedServer::~TracedServer() { Stop(); }

humdex::Status TracedServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return humdex::Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, opts_.backlog) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return humdex::Status::IoError(std::string("listen: ") +
                                   std::strerror(errno));
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return humdex::Status::OK();
}

void TracedServer::Stop() {
  // Shutdown wakes the blocked accept; the fd is closed (and listen_fd_
  // written) only once the accept thread has ended.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

void TracedServer::AcceptLoop() {
  for (std::uint64_t connection = 0;; ++connection) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop
    }
    if (open_.load() >= opts_.max_connections) {
      ::close(fd);  // admission control, as HumdexServer::AcceptLoop
      continue;
    }
    open_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    fds_.push_back(fd);
    threads_.emplace_back([this, fd, connection] { Serve(fd, connection); });
  }
}

void TracedServer::Serve(int fd, std::uint64_t connection) {
  std::string payload;
  for (std::uint64_t seq = 0;
       ReadServerFrame(fd, &payload, opts_.idle_timeout_ms); ++seq) {
    const std::uint64_t id = RequestId(connection, seq);
    const std::string response = Dispatch(payload, id);
    std::string frame;
    {
      ScopedSpan s(spans_, "protocol.encode_frame", id);
      frame = EncodeFrame(response);
    }
    if (!SendAll(fd, frame)) break;
  }
  open_.fetch_sub(1);
}

std::string TracedServer::Dispatch(const std::string& payload,
                                   std::uint64_t id) {
  ScopedSpan dispatch(spans_, "server.dispatch", id);
  Request request;
  Response response;
  humdex::Status st;
  {
    ScopedSpan s(spans_, "protocol.parse_request", id, dispatch.id());
    st = ParseRequest(payload, &request);
  }
  if (!st.ok()) {
    response.error = st.message();
  } else if (request.kind != Request::Kind::kQuery &&
             request.kind != Request::Kind::kRange) {
    response.error = "traced server serves query and range only";
  } else {
    ScopedSpan s(spans_, "sharded.query", id, dispatch.id());
    humdex::QueryOptions qopts;
    if (request.deadline_ms > 0) {
      qopts.deadline = humdex::Deadline::FromNowMillis(request.deadline_ms);
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
  }
  ScopedSpan s(spans_, "protocol.encode_response", id, dispatch.id());
  return EncodeResponse(response);
}

}  // namespace perfbench
