// Span recorder for the traced run. Spans are recorded from the
// benchmark's own code around its calls into each library layer, kept in
// memory, and written once at exit as Chrome trace-event JSON
// (chrome://tracing, Perfetto). A span's name is "<layer>.<call>"; its
// parent is the span open on the same tracer when it began; `id` is the
// frame index or query number it belongs to (-1 when none).
//
// One Tracer is driven by one thread: the traced run replays work
// sequentially so that self times add up to wall time.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Milliseconds between two steady-clock instants.
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return 1e3 * Seconds(a, b);
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  ///< since the tracer was created
  int64_t end_ns = 0;
  int parent = -1;       ///< index into the span list, -1 = root
  int64_t id = -1;       ///< frame or query id
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace "X" event; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
