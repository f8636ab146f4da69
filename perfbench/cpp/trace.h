// In-memory spans recorded by the benchmark around its calls into the
// library's public functions. Spans are kept in memory while the run
// measures and written out (Chrome trace-event JSON) when it ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the tracer's origin
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;   // causing span, -1 for a root
  int64_t request = -1;  // request id shared by one request's spans
  double dur_us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// Single-threaded span store; records nothing when constructed off.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  /// Opens a span and returns its id (-1 when off); end() closes it.
  int64_t begin(const char* name, Clock::time_point start, int64_t parent = -1,
                int64_t request = -1);
  void end(int64_t id, Clock::time_point end);
  /// Records a finished span and returns its id (-1 when off).
  int64_t add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent = -1, int64_t request = -1);
  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times a scope into the tracer; usable whether tracing is on or off
/// (seconds() reports the elapsed time either way).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent = -1)
      : tracer_(tracer), start_(Tracer::Clock::now()), id_(tracer.begin(name, start_, parent)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span id children name as their parent (-1 when off).
  int64_t id() const { return id_; }
  /// Ends the span (idempotent) and returns its duration in seconds.
  double close();
  double seconds() const;

 private:
  Tracer& tracer_;
  Tracer::Clock::time_point start_;
  int64_t id_;
  Tracer::Clock::time_point end_{};
  bool closed_ = false;
};

}  // namespace perfbench
