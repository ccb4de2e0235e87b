#include "load.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "server/client.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

using namespace dpgrid;

QueryClientOptions LoadClientOptions() {
  QueryClientOptions options;
  options.max_retries = 0;
  return options;
}

void AnswerChecker::Register(uint64_t version,
                             std::vector<std::vector<double>> expected) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = expected_.try_emplace(
      version, std::make_shared<const Answers>(std::move(expected)));
  if (!inserted) return;  // versions are registered once
  ++registered_;
  const Answers& answers = *it->second;
  std::vector<DeferredFrame> still_waiting;
  for (DeferredFrame& f : deferred_) {
    if (f.version != version) {
      still_waiting.push_back(std::move(f));
    } else if (!BitwiseEqual(f.answers, answers[f.pool_index])) {
      std::fprintf(stderr,
                   "answers differ from in-process AnswerAll on version "
                   "%llu\n",
                   static_cast<unsigned long long>(version));
      ++late_failures_;
    }
  }
  deferred_ = std::move(still_waiting);
  while (expected_.size() > kKeptVersions) {
    retired_below_ = expected_.begin()->first + 1;
    expected_.erase(expected_.begin());
  }
}

bool AnswerChecker::Check(uint32_t pool_index, uint64_t version,
                          const std::vector<double>& answers) {
  std::shared_ptr<const Answers> expected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = expected_.find(version);
    if (it == expected_.end()) {
      if (version < retired_below_) {
        std::fprintf(stderr, "frame named retired version %llu\n",
                     static_cast<unsigned long long>(version));
        return false;
      }
      deferred_.push_back(DeferredFrame{pool_index, version, answers});
      return true;
    }
    expected = it->second;
  }
  return BitwiseEqual(answers, (*expected)[pool_index]);
}

void AnswerChecker::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const DeferredFrame& f : deferred_) {
    std::fprintf(stderr, "frame named unpublished version %llu\n",
                 static_cast<unsigned long long>(f.version));
  }
  late_failures_ += deferred_.size();
  deferred_.clear();
}

size_t AnswerChecker::late_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return late_failures_;
}

size_t AnswerChecker::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registered_;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

struct ConnState {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<FrameSample> frames;
};

// Sends the frame at sequence position `pos` and checks its answers;
// false if the frame failed.
bool ServeOne(const PassConfig& config, size_t pos, QueryClient* client,
              AnswerChecker* checker, std::vector<double>* answers,
              ConnState* st) {
  const uint32_t idx = (*config.sequence)[pos];
  const Frame& frame = (*config.pool)[idx];
  const uint64_t frame_id = config.frame_id_base + pos;
  ScopedSpan frame_span("frame", frame_id);
  std::string error;
  if (!client->connected()) {
    ScopedSpan span("client.connect", frame_id);
    if (!client->Connect("127.0.0.1", config.port, &error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return false;
    }
  }
  uint64_t version = 0;
  bool ok;
  const int64_t start = NowNs();
  {
    ScopedSpan span("client.round_trip", frame_id);
    ok = QueryOverWire(client, config.name, frame, answers, &version, &error);
  }
  const int64_t end = NowNs();
  if (!ok) {
    std::fprintf(stderr, "frame %zu failed: %s\n", pos, error.c_str());
    client->Close();
    return false;
  }
  if (pos == config.corrupt_position && !answers->empty()) {
    uint64_t bits;
    std::memcpy(&bits, answers->data(), sizeof bits);
    bits ^= 1;
    std::memcpy(answers->data(), &bits, sizeof bits);
  }
  {
    ScopedSpan span("check", frame_id);
    if (!checker->Check(idx, version, *answers)) {
      std::fprintf(stderr,
                   "frame %zu: answers differ from in-process AnswerAll on "
                   "version %llu\n",
                   pos, static_cast<unsigned long long>(version));
      return false;
    }
  }
  st->frames.push_back(
      FrameSample{end, static_cast<double>(end - start) * 1e-3, frame.size()});
  return true;
}

}  // namespace

PassResult RunPass(const PassConfig& config, AnswerChecker* checker) {
  const size_t frames = config.sequence->size();
  std::vector<ConnState> states(config.clients.size());
  for (ConnState& s : states) s.frames.reserve(frames);

  std::atomic<size_t> cursor{0};
  ScopedSpan pass_span("load.pass");
  const uint64_t pass_span_id = pass_span.id();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < states.size(); ++c) {
    threads.emplace_back([&, c] {
      ThreadRoot root(pass_span_id);
      ConnState& st = states[c];
      QueryClient* client = config.clients[c];
      std::vector<double> answers;
      for (;;) {
        const size_t pos = cursor.fetch_add(1, std::memory_order_relaxed);
        if (pos >= frames) break;
        ++st.attempted;
        if (!ServeOne(config, pos, client, checker, &answers, &st)) {
          ++st.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PassResult result;
  result.wall_s = SecondsSince(t0);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  for (ConnState& st : states) {
    result.attempted += st.attempted;
    result.failed += st.failed;
    result.frames_per_conn.push_back(st.attempted);
    for (const FrameSample& f : st.frames) result.queries += f.queries;
    result.frames.insert(result.frames.end(), st.frames.begin(),
                         st.frames.end());
  }
  std::sort(result.frames.begin(), result.frames.end(),
            [](const FrameSample& a, const FrameSample& b) {
              return a.end_ns < b.end_ns;
            });
  return result;
}

std::vector<double> PassResult::RttUs() const {
  std::vector<double> rtt;
  rtt.reserve(frames.size());
  for (const FrameSample& f : frames) rtt.push_back(f.rtt_us);
  return rtt;
}

PassSummary Summarize(const PassResult& pass) {
  PassSummary summary;
  if (pass.frames.empty()) return summary;
  const std::vector<double> rtt = pass.RttUs();
  summary.qps = static_cast<double>(pass.queries) / pass.wall_s;
  summary.p50_us = Quantile(rtt, 0.50);
  summary.p99_us = Quantile(rtt, 0.99);
  return summary;
}

}  // namespace perfbench
