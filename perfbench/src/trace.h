// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a layer of the library (build, publish, load, round trip, check,
// probes). Each span has a name, start, end, the span that caused it, and
// a frame ID shared by every span of one wire frame (0 outside frames).
// Spans stay in per-thread buffers and are written out once, at exit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t frame = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Turns recording on or off for every thread; off costs one relaxed
/// load per span.
void EnableTracing(bool on);
bool TracingEnabled();

/// Writes every recorded span as JSON to `path`, with `provenance_json`
/// (a JSON object) alongside. Returns false if the file cannot be written.
bool WriteTrace(const std::string& path, const std::string& provenance_json);

/// Total spans recorded so far (all threads).
uint64_t SpanCount();

/// Records one span from construction to destruction. Its parent is the
/// innermost open span on this thread, or the thread's root (ThreadRoot).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t frame = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when tracing is off.
  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Parents the spans a worker thread records under a span opened on
/// another thread (e.g. a pass's load threads under the pass span).
class ThreadRoot {
 public:
  explicit ThreadRoot(uint64_t parent);
  ~ThreadRoot();
  ThreadRoot(const ThreadRoot&) = delete;
  ThreadRoot& operator=(const ThreadRoot&) = delete;

 private:
  uint64_t saved_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
