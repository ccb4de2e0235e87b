#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "util.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
const int64_t g_origin_ns = NowNs();

struct Buffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

// Buffers are owned here, not by their threads, so spans recorded by a
// joined load thread survive until WriteTrace.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;

thread_local Buffer* t_buffer = nullptr;
thread_local uint64_t t_current = 0;

Buffer* ThreadBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<uint32_t>(g_buffers.size());
    buffer->spans.reserve(1 << 16);
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->spans.size();
  return n;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t frame) {
  if (!TracingEnabled()) return;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current;
  span_.frame = frame;
  saved_parent_ = t_current;
  t_current = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = NowNs();
  t_current = saved_parent_;
  Buffer* buffer = ThreadBuffer();
  span_.thread = buffer->thread;
  buffer->spans.push_back(span_);
}

ThreadRoot::ThreadRoot(uint64_t parent) : saved_(t_current) {
  t_current = parent;
}

ThreadRoot::~ThreadRoot() { t_current = saved_; }

bool WriteTrace(const std::string& path, const std::string& provenance_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"provenance\": %s,\n\"spans\": [\n",
               provenance_json.c_str());
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  bool first = true;
  for (const auto& buffer : g_buffers) {
    for (const Span& s : buffer->spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"frame\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"thread\":%u}",
                   first ? "" : ",\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.frame),
                   static_cast<long long>(s.start_ns - g_origin_ns),
                   static_cast<long long>(s.end_ns - g_origin_ns), s.thread);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
