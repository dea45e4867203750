// In-memory span recorder for the benchmark's traced run.
//
// The benchmark wraps its calls into each humdex layer's public functions in
// ScopedSpans. A span is (id, parent, request id, name, start, end) on the
// process-wide steady clock, so spans recorded on different threads — the
// client's wait for a reply and the server's dispatch of that request — can
// be linked into one tree afterwards. Spans stay in memory until the run
// ends and are written out then, so recording costs a clock read and a
// vector push under a mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";      ///< string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

std::uint64_t NowNs();

class SpanRecorder {
 public:
  std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  /// Every span recorded so far, in recording order.
  std::vector<Span> Spans() const;
  /// One JSON object per line: {"id","parent","request","name","start_ns",
  /// "end_ns"}. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span. A null recorder makes
/// the scope a no-op, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t request,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

/// Self time of every span, parallel to `spans`: its duration minus the part
/// of its interval covered by the union of its direct children's intervals.
/// Children are clipped to the parent's interval, and overlapping children
/// (parallel work) are counted once, so the self times of a tree sum exactly
/// to the root's duration whenever each child lies within its parent and
/// siblings run one after another.
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
