// Closed-loop DPGW load and the answer checks that gate it.
//
// A pass sends a fixed number of frames, drawn in a seeded order from a
// pool, over the caller's QueryClients, each of which waits for its reply
// before sending the next frame. The clients share one cursor into the
// frame sequence, so a connection the server serves more slowly completes
// fewer of the frames (see PassResult::frames_per_conn). The clients stay
// connected from one pass to the next, so a warm-up pass also warms the
// connections the timed pass uses.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "query/query_engine.h"
#include "release.h"
#include "server/client.h"

namespace perfbench {

/// A served frame whose answers could not be checked when they arrived:
/// it named a version whose in-process answers were not registered yet.
struct DeferredFrame {
  uint32_t pool_index = 0;
  uint64_t version = 0;
  std::vector<double> answers;
};

/// Checks served answers bitwise against in-process QueryEngine::AnswerAll
/// on the release of the version they name. Every published version
/// registers its release's answers to each pool frame; a frame naming a
/// version that is not registered yet waits for it, and Finish fails every
/// frame still waiting (it named a version that was never published).
/// Only the newest kKeptVersions versions' answers are kept: a frame
/// naming an older one would have been in flight across that many
/// refreshes, and fails. Thread-safe.
class AnswerChecker {
 public:
  static constexpr size_t kKeptVersions = 8;

  /// Registers `version`'s answers (one vector per pool frame) and checks
  /// the frames that were waiting for it.
  void Register(uint64_t version, std::vector<std::vector<double>> expected);

  /// False if the frame failed; true if it passed or waits for its version.
  bool Check(uint32_t pool_index, uint64_t version,
             const std::vector<double>& answers);

  /// Fails every frame still waiting.
  void Finish();

  /// Frames that failed after they arrived: in Register or Finish.
  size_t late_failures() const;
  /// Versions registered so far.
  size_t versions() const;

 private:
  using Answers = std::vector<std::vector<double>>;

  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const Answers>> expected_;
  std::vector<DeferredFrame> deferred_;
  uint64_t retired_below_ = 0;
  size_t registered_ = 0;
  size_t late_failures_ = 0;
};

struct PassConfig {
  std::string name;
  uint16_t port = 0;
  /// One closed loop per client; each (re)connects on first use.
  std::vector<dpgrid::QueryClient*> clients;
  const std::vector<Frame>* pool = nullptr;
  /// Pool index of each frame, in send order; the pass sends all of them.
  const std::vector<uint32_t>* sequence = nullptr;
  /// First frame ID of this pass (trace spans of one frame share its ID).
  uint64_t frame_id_base = 0;
  /// Self-check hook: the answers of this sequence position get one bit
  /// flipped before they are checked (SIZE_MAX disables it).
  size_t corrupt_position = SIZE_MAX;
};

/// One frame that succeeded.
struct FrameSample {
  int64_t end_ns = 0;
  double rtt_us = 0.0;
  uint64_t queries = 0;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t queries = 0;
  /// Every frame that succeeded, in completion order.
  std::vector<FrameSample> frames;
  std::vector<size_t> frames_per_conn;

  std::vector<double> RttUs() const;
};

/// Options for every benchmark client: default, except that a failed frame
/// is reported and counted, never retried, so that shedding and timeouts
/// stay visible.
dpgrid::QueryClientOptions LoadClientOptions();

/// Runs one closed-loop pass; `checker` judges every answer.
PassResult RunPass(const PassConfig& config, AnswerChecker* checker);

/// Throughput and round-trip quantiles of a whole pass: qps is every
/// query answered over the pass's wall time, so a stall anywhere in the
/// pass lowers it; p50 and p99 are taken over every round trip (a pass
/// holds at least 1,000 frames, so ten or more lie beyond the p99).
struct PassSummary {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};
PassSummary Summarize(const PassResult& pass);

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
