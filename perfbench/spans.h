#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// The benchmark's own span recorder. Spans are opened by the benchmark
// around its calls into the library's public functions; the library itself
// is not instrumented. Each span has a name, a start and an end, the span
// that was open on the same thread when it started (its parent) and a
// request id shared by every span of one request. Spans stay in memory
// until the run ends, when WriteSpansJsonl writes them out (README.md shows
// how to reduce the file to per-layer self times).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

struct SpanRecord {
  const char* name = nullptr;  ///< Static string, "layer.call".
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t request = 0;  ///< 0 when the span belongs to no request.
  uint32_t thread = 0;   ///< Dense id of the recording thread.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Tracing is off unless EnableSpans(true) was called before the first
/// span; when off, Span construction and destruction read no clock.
void EnableSpans(bool enabled);
bool SpansEnabled();

/// RAII span on the calling thread. A request id of 0 inherits the
/// enclosing span's request.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent).
  void End();

 private:
  bool open_ = false;
  SpanRecord record_;
};

/// Every span recorded so far, from all threads, in no particular order.
/// Call only after the recording threads have finished.
std::vector<SpanRecord> CollectSpans();

/// Largest per-thread sum of self times, in ns. Spans of one thread nest,
/// so on a consistent trace this is at most the run's wall time.
uint64_t MaxThreadSelfNs(const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span; times are relative to `origin_ns`.
bool WriteSpansJsonl(const std::vector<SpanRecord>& spans,
                     const std::string& path, uint64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
