#ifndef DPGRID_OBS_TRACE_H_
#define DPGRID_OBS_TRACE_H_

#include <atomic>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dpgrid {
namespace obs {

/// Where a frame spent its time, in wire order. The server records all
/// six stages for every completed frame, so each stage histogram's sample
/// count equals the frame count. It has no queue, so kStageQueueWait
/// reads 0; the stage keeps its slot in the wire layout and in METRICS.
enum Stage : uint32_t {
  kStageRead = 0,   // first header byte arrived -> body verified
  kStageDecode,     // request body decoded (QUERY_BATCH only)
  kStageQueueWait,  // verified frame enqueued -> handler picked it up
  kStageEngine,     // catalog/engine answered (or bodyless op handled)
  kStageEncode,     // response body encoded (QUERY_BATCH only)
  kStageWrite,      // response framed -> last byte handed to the kernel
};

inline constexpr size_t kNumStages = 6;

const char* StageName(size_t stage);

/// Dataset names longer than this are truncated in traces (full names
/// still appear in the per-dataset metrics, which use std::string).
inline constexpr size_t kTraceDatasetBytes = 24;

/// One frame's timing breakdown, sized to live in a fixed-width ring
/// slot: POD only, dataset name inlined.
struct FrameTrace {
  uint64_t request_id = 0;
  uint32_t op = 0;
  uint32_t queries = 0;
  uint64_t unix_s = 0;  // wall-clock completion time (stamped if slow)
  uint64_t stage_us[kNumStages] = {};
  char dataset[kTraceDatasetBytes] = {};

  uint64_t TotalUs() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kNumStages; ++i) total += stage_us[i];
    return total;
  }
  void SetDataset(std::string_view name) {
    const size_t n = name.size() < kTraceDatasetBytes ? name.size()
                                                      : kTraceDatasetBytes - 1;
    std::memcpy(dataset, name.data(), n);
    dataset[n] = '\0';
  }
  std::string DatasetString() const {
    return std::string(dataset, ::strnlen(dataset, kTraceDatasetBytes));
  }
};

/// Lock-free ring retaining the last `capacity` slow-frame traces,
/// dumpable on demand (the METRICS op). Writers are wait-free in the
/// common case: a global ticket counter picks the slot, a per-slot
/// seqlock (odd = write in progress) protects the payload, and the
/// payload itself is stored as relaxed atomic words — so a reader racing
/// a writer sees either the old trace or the new one, never a torn one,
/// and TSan sees only atomic accesses. A writer spins on a slot only if
/// another writer laps the entire ring mid-write.
class SlowTraceRing {
 public:
  explicit SlowTraceRing(size_t capacity = 64);

  SlowTraceRing(const SlowTraceRing&) = delete;
  SlowTraceRing& operator=(const SlowTraceRing&) = delete;

  void Push(const FrameTrace& trace);

  /// Valid retained traces, newest first. Slots mid-write are skipped.
  std::vector<FrameTrace> Snapshot() const;

  size_t capacity() const { return capacity_; }
  /// Total traces ever pushed (>= retained count).
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }

 private:
  // request_id, op|queries, unix_s, 6 stages, dataset (24 bytes).
  static constexpr size_t kTraceWords = 12;
  static_assert(kTraceDatasetBytes % sizeof(uint64_t) == 0);

  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written; odd = in progress
    std::array<std::atomic<uint64_t>, kTraceWords> words{};
  };

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace obs
}  // namespace dpgrid

#endif  // DPGRID_OBS_TRACE_H_
