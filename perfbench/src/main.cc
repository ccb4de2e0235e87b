// dpgw_bench: the DPGW serving benchmark.
//
// Serves a released synopsis from an in-process QueryServer on loopback
// and drives it with the benchmark's own closed-loop DPGW clients. One
// run measures one workload:
//
//   ug-wire     UG over 4M check-in-like points, 131072-query frames of
//               shuffled paper q1-q6 boxes. Answering is O(1) per query,
//               so frame time goes to the codec, CRC, sockets and the
//               serving engine.
//   ug-refresh  ug-wire's load while a writer thread rebuilds, publishes
//               and reloads a fresh release back to back.
//   ag-serve    AG over the same points, 4096-query frames: frame time
//               goes to AdaptiveGrid::AnswerBatch and the engine's
//               queueing.
//   nd-refresh  AG-nd over 500K 3-d Gaussian-mixture points, 512-box
//               frames on one connection, while a writer thread rebuilds,
//               publishes and reloads a fresh release back to back.
//
// Every pass sends a fixed number of frames (sized from --seconds) after a
// discarded warm-up pass; every served answer is checked bitwise against
// in-process QueryEngine::AnswerAll on the version the frame names. Set-up
// and refresh are repeated within the run and reported as medians.
//
// Usage: dpgw_bench --workload NAME --seed N --seconds S --trace 0|1
//                   --scratch DIR [--trace-out PATH] [--source-id TEXT]
//                   [--size full|tiny] [--corrupt-frame K]
//
// The last line of stdout is the result object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics and
// --trace 1 the per-layer ones (see perfbench/README.md).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "index/range_count_index.h"
#include "load.h"
#include "metrics/error.h"
#include "nd/workload_nd.h"
#include "obs/metrics.h"
#include "probes.h"
#include "query/query_engine.h"
#include "query/workload.h"
#include "release.h"
#include "server/client.h"
#include "server/server.h"
#include "store/snapshot_store.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

using namespace dpgrid;
namespace fs = std::filesystem;

constexpr char kDatasetName[] = "bench";
constexpr int kQuerySizes = 6;  // the paper's q1..q6
constexpr size_t kMinFrames = 1000;
// The points are part of a workload's definition and do not change with
// --seed; the seed draws the queries, the frame order and the privacy
// noise.
constexpr uint64_t kDatasetSeed = 20130408;

struct WorkloadSpec {
  const char* name;
  ReleaseKind kind;
  int64_t points;
  uint32_t dims;
  size_t frame_queries;
  size_t pool_frames;
  /// Closed-loop connections of the load.
  int connections;
  /// Fixed-work sizing: a pass sends frames_per_second * --seconds frames
  /// (about --seconds of load on a 4-CPU x86 host).
  double frames_per_second;
  int setups;
  /// Refreshes after the pass, with no reads beside them (2-D workloads).
  int refreshes;
  /// ug-refresh and nd-refresh instead refresh back to back while the
  /// readers query.
  bool refresh_beside_reads;
  int accuracy_per_size;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ug-wire", ReleaseKind::kUniformGrid, 4'000'000, 2, 131072, 8, 2, 130.0,
     15, 15, false, 1000},
    {"ag-serve", ReleaseKind::kAdaptiveGrid, 4'000'000, 2, 4096, 16, 2, 75.0,
     7, 5, false, 1000},
    {"ug-refresh", ReleaseKind::kUniformGrid, 4'000'000, 2, 131072, 8, 2,
     130.0, 15, 0, true, 1000},
    {"nd-refresh", ReleaseKind::kAdaptiveGridNd, 500'000, 3, 512, 16, 1,
     160.0, 15, 0, true, 400},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string scratch;
  std::string trace_out;
  std::string source_id = "unknown";
  size_t corrupt_frame = SIZE_MAX;
};

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--size") {
      args->tiny = value == "tiny";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else if (key == "--corrupt-frame") {
      args->corrupt_frame = std::strtoull(value.c_str(), &end, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         !args->scratch.empty();
}

// --- generated inputs --------------------------------------------------------

struct Generated {
  Inputs inputs;
  std::vector<Frame> pool;
  std::vector<uint32_t> warmup_sequence;
  std::vector<uint32_t> sequence;
  Frame accuracy;
};

Frame MakeFrame(uint32_t dims) {
  Frame f;
  f.nd = dims != 2;
  f.dims = dims;
  return f;
}

std::vector<uint32_t> MakeSequence(size_t frames, size_t pool, Rng& rng) {
  std::vector<uint32_t> seq(frames);
  for (uint32_t& s : seq) {
    s = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(pool) - 1));
  }
  return seq;
}

Generated Generate(const WorkloadSpec& spec, uint64_t seed, size_t frames,
                   size_t warmup_frames) {
  Generated g;
  g.inputs.kind = spec.kind;
  g.inputs.epsilon = 1.0;
  const size_t per_frame_size =
      (spec.frame_queries + kQuerySizes - 1) / kQuerySizes;
  const int per_size = static_cast<int>(spec.pool_frames * per_frame_size);
  Rng data_rng(kDatasetSeed);
  Rng query_rng(Mix(seed, 2));
  Rng accuracy_rng(Mix(seed, 3));
  Frame flat = MakeFrame(spec.dims);
  g.accuracy = MakeFrame(spec.dims);
  if (spec.dims == 2) {
    g.inputs.points2d = std::make_unique<Dataset>(
        MakeCheckinLike(spec.points, data_rng));
    const Rect& d = g.inputs.points2d->domain();
    for (auto& group : GenerateWorkload(d, d.Width() / 2, d.Height() / 2,
                                        kQuerySizes, per_size, query_rng)
                           .queries) {
      flat.rects.insert(flat.rects.end(), group.begin(), group.end());
    }
    for (auto& group :
         GenerateWorkload(d, d.Width() / 2, d.Height() / 2, kQuerySizes,
                          spec.accuracy_per_size, accuracy_rng)
             .queries) {
      g.accuracy.rects.insert(g.accuracy.rects.end(), group.begin(),
                              group.end());
    }
  } else {
    const BoxNd domain(std::vector<double>(spec.dims, 0.0),
                       std::vector<double>(spec.dims, 100.0));
    const auto clusters =
        MakeRandomClustersNd(domain, 24, 0.02, 0.08, 1.0, data_rng);
    g.inputs.points_nd = std::make_unique<DatasetNd>(
        MakeGaussianMixtureNd(domain, spec.points, clusters, 0.1, data_rng));
    const std::vector<double> q_max(spec.dims, 50.0);
    for (auto& group :
         GenerateWorkloadNd(domain, q_max, kQuerySizes, per_size, query_rng)
             .queries) {
      flat.boxes.insert(flat.boxes.end(), group.begin(), group.end());
    }
    for (auto& group : GenerateWorkloadNd(domain, q_max, kQuerySizes,
                                          spec.accuracy_per_size, accuracy_rng)
                           .queries) {
      g.accuracy.boxes.insert(g.accuracy.boxes.end(), group.begin(),
                              group.end());
    }
  }
  // Every frame holds the same number of q1..q6 boxes (so frames, and
  // seeds, cost about the same), in shuffled order.
  g.pool.assign(spec.pool_frames, MakeFrame(spec.dims));
  for (size_t f = 0; f < spec.pool_frames; ++f) {
    const std::vector<size_t> order = query_rng.Permutation(spec.frame_queries);
    for (size_t j : order) {
      const size_t flat_index = (j % kQuerySizes) * static_cast<size_t>(per_size) +
                                f * per_frame_size + j / kQuerySizes;
      if (spec.dims == 2) {
        g.pool[f].rects.push_back(flat.rects[flat_index]);
      } else {
        g.pool[f].boxes.push_back(flat.boxes[flat_index]);
      }
    }
  }
  Rng sequence_rng(Mix(seed, 4));
  g.warmup_sequence = MakeSequence(warmup_frames, spec.pool_frames, sequence_rng);
  g.sequence = MakeSequence(frames, spec.pool_frames, sequence_rng);
  return g;
}

// Exact count of N-d points per box: points binned into a uniform grid
// (CSR order); bins well inside a box add their count, the rest test their
// points with the same half-open rule as BoxNd::ContainsPoint.
class ExactCounterNd {
 public:
  ExactCounterNd(const DatasetNd& data, int bins_per_axis)
      : dims_(data.dims()), bins_(bins_per_axis), domain_(data.domain()) {
    size_t total_bins = 1;
    for (size_t a = 0; a < dims_; ++a) total_bins *= static_cast<size_t>(bins_);
    std::vector<size_t> bin_of(data.points().size());
    offsets_.assign(total_bins + 1, 0);
    for (size_t i = 0; i < bin_of.size(); ++i) {
      bin_of[i] = BinOf(data.points()[i]);
      ++offsets_[bin_of[i] + 1];
    }
    for (size_t b = 0; b < total_bins; ++b) offsets_[b + 1] += offsets_[b];
    std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    coords_.resize(bin_of.size() * dims_);
    for (size_t i = 0; i < bin_of.size(); ++i) {
      const PointNd& p = data.points()[i];
      std::copy(p.begin(), p.end(), coords_.begin() + cursor[bin_of[i]]++ * dims_);
    }
  }

  int64_t Count(const BoxNd& box) const {
    std::vector<int> lo(dims_), hi(dims_), at(dims_);
    for (size_t a = 0; a < dims_; ++a) {
      lo[a] = AxisBin(a, box.lo(a));
      hi[a] = AxisBin(a, box.hi(a));
    }
    int64_t count = 0;
    at = lo;
    for (;;) {
      size_t bin = 0;
      bool inside = true;
      for (size_t a = 0; a < dims_; ++a) {
        bin = bin * static_cast<size_t>(bins_) + static_cast<size_t>(at[a]);
        const double w = domain_.Extent(a) / bins_;
        const double margin = 1e-9 * domain_.Extent(a);
        const double edge_lo = domain_.lo(a) + w * at[a];
        const double edge_hi = domain_.lo(a) + w * (at[a] + 1);
        inside = inside && edge_lo >= box.lo(a) + margin &&
                 edge_hi <= box.hi(a) - margin;
      }
      if (inside) {
        count += static_cast<int64_t>(offsets_[bin + 1] - offsets_[bin]);
      } else {
        for (size_t i = offsets_[bin]; i < offsets_[bin + 1]; ++i) {
          const double* p = &coords_[i * dims_];
          bool in = true;
          for (size_t a = 0; a < dims_ && in; ++a) {
            in = p[a] >= box.lo(a) && p[a] < box.hi(a);
          }
          count += in ? 1 : 0;
        }
      }
      size_t a = dims_;
      while (a > 0 && at[a - 1] == hi[a - 1]) {
        at[a - 1] = lo[a - 1];
        --a;
      }
      if (a == 0) break;
      ++at[a - 1];
    }
    return count;
  }

 private:
  int AxisBin(size_t a, double x) const {
    const double t = (x - domain_.lo(a)) / domain_.Extent(a) * bins_;
    return std::clamp(static_cast<int>(std::floor(t)), 0, bins_ - 1);
  }
  size_t BinOf(const PointNd& p) const {
    size_t bin = 0;
    for (size_t a = 0; a < dims_; ++a) {
      bin = bin * static_cast<size_t>(bins_) + static_cast<size_t>(AxisBin(a, p[a]));
    }
    return bin;
  }

  size_t dims_;
  int bins_;
  BoxNd domain_;
  std::vector<size_t> offsets_;
  std::vector<double> coords_;
};

// Exact counts of the accuracy queries (ground truth, not timed).
std::vector<double> ExactCounts(const Inputs& inputs, const Frame& frame) {
  std::vector<double> exact;
  if (inputs.points2d) {
    const RangeCountIndex index(*inputs.points2d);
    for (const Rect& r : frame.rects) {
      exact.push_back(static_cast<double>(index.Count(r)));
    }
  } else {
    // DatasetNd::CountInBox scans every point: 2400 boxes over 500K
    // points take 13.6 s on one core of a 4-vCPU x86 VM, so the binned
    // counter answers them and CountInBox cross-checks every 100th box.
    const DatasetNd& data = *inputs.points_nd;
    const ExactCounterNd counter(data, 32);
    for (size_t i = 0; i < frame.boxes.size(); ++i) {
      const int64_t count = counter.Count(frame.boxes[i]);
      if (i % 100 == 0 && count != data.CountInBox(frame.boxes[i])) {
        std::fprintf(stderr, "binned count of accuracy box %zu is wrong\n", i);
        return {};
      }
      exact.push_back(static_cast<double>(count));
    }
  }
  return exact;
}

// --- the serving stack --------------------------------------------------------

/// One snapshot store, catalog and server. The server borrows the
/// catalog, which borrows the store, so they are torn down in that order.
struct Stack {
  std::string dir;
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<SynopsisCatalog> catalog;
  std::unique_ptr<QueryServer> server;

  void Reset() {
    server.reset();
    catalog.reset();
    store.reset();
  }
};

/// Run-wide frame accounting (main thread only; passes report theirs).
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  void Add(size_t a, size_t f) {
    attempted += a;
    failed += f;
  }
};

/// Sends `frame` on a fresh connection and checks that it is answered by
/// `want_version`, bitwise equal to `release` in process.
bool CheckedFrame(uint16_t port, const Frame& frame, uint64_t want_version,
                  const Release& release, const QueryEngine& engine,
                  std::vector<double>* answers, Tally* tally) {
  QueryClient client(LoadClientOptions());
  std::string error;
  uint64_t version = 0;
  bool ok = client.Connect("127.0.0.1", port, &error) &&
            QueryOverWire(&client, kDatasetName, frame, answers, &version,
                          &error);
  if (ok && version != want_version) {
    error = "served version " + std::to_string(version) + ", expected " +
            std::to_string(want_version);
    ok = false;
  }
  if (ok) {
    std::vector<double> expected(frame.size());
    release.Answer(engine, frame, expected);
    if (!BitwiseEqual(*answers, expected)) {
      error = "answers differ from in-process AnswerAll";
      ok = false;
    }
  }
  if (!ok) std::fprintf(stderr, "checked frame failed: %s\n", error.c_str());
  tally->Add(1, ok ? 0 : 1);
  return ok;
}

struct SetupSample {
  double total_s = 0.0;
  double build_ms = 0.0;
  double publish_ms = 0.0;
  double load_ms = 0.0;
};

/// generated inputs -> build -> Publish -> LoadAll -> Start -> first frame
/// answered, into a fresh store directory.
bool RunSetup(const Generated& g, const std::string& dir, uint64_t noise_seed,
              const QueryEngine& engine, Stack* stack,
              std::unique_ptr<Release>* release, uint64_t* version,
              SetupSample* sample, Tally* tally) {
  fs::remove_all(dir);
  std::string error;
  std::vector<double> first_answers;
  uint64_t first_version = 0;
  bool first_ok = false;
  {
    ScopedSpan setup_span("setup");
    const int64_t t0 = NowNs();
    int64_t t = t0;
    auto lap_ms = [&t] {
      const int64_t now = NowNs();
      const double ms = static_cast<double>(now - t) * 1e-6;
      t = now;
      return ms;
    };
    {
      ScopedSpan span("release.build");
      *release = BuildRelease(g.inputs, noise_seed);
    }
    sample->build_ms = lap_ms();
    stack->dir = dir;
    stack->store = std::make_unique<SnapshotStore>(dir);
    {
      ScopedSpan span("store.publish");
      *version = (*release)->Publish(stack->store.get(), kDatasetName, &error);
    }
    sample->publish_ms = lap_ms();
    if (*version == 0) {
      std::fprintf(stderr, "publish failed: %s\n", error.c_str());
      return false;
    }
    stack->catalog = std::make_unique<SynopsisCatalog>(stack->store.get());
    size_t loaded;
    {
      ScopedSpan span("catalog.load_all");
      loaded = stack->catalog->LoadAll(&error);
    }
    sample->load_ms = lap_ms();
    if (loaded != 1) {
      std::fprintf(stderr, "LoadAll installed %zu: %s\n", loaded,
                   error.c_str());
      return false;
    }
    stack->server =
        std::make_unique<QueryServer>(stack->catalog.get(), &engine);
    {
      ScopedSpan span("server.start");
      if (!stack->server->Start(&error)) {
        std::fprintf(stderr, "server start failed: %s\n", error.c_str());
        return false;
      }
    }
    {
      ScopedSpan span("first_frame");
      QueryClient client(LoadClientOptions());
      first_ok = client.Connect("127.0.0.1", stack->server->port(), &error) &&
                 QueryOverWire(&client, kDatasetName, g.pool[0],
                               &first_answers, &first_version, &error);
    }
    sample->total_s = SecondsSince(t0);
  }
  // Check the first frame outside the timed window.
  std::vector<double> expected(g.pool[0].size());
  (*release)->Answer(engine, g.pool[0], expected);
  const bool ok = first_ok && first_version == *version &&
                  BitwiseEqual(first_answers, expected);
  if (!ok) std::fprintf(stderr, "set-up first frame failed: %s\n", error.c_str());
  tally->Add(1, ok ? 0 : 1);
  return true;
}

struct RefreshSample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double total_ms = 0.0;
  double reload_ms = 0.0;
};

/// Rebuild -> Publish -> catalog Reload, until the catalog serves the new
/// version. *version receives it.
bool RunRefresh(const Generated& g, uint64_t noise_seed, Stack* stack,
                std::unique_ptr<Release>* release, uint64_t* version,
                RefreshSample* sample) {
  std::string error;
  ScopedSpan refresh_span("refresh");
  const int64_t t0 = NowNs();
  {
    ScopedSpan span("release.build");
    *release = BuildRelease(g.inputs, noise_seed);
  }
  {
    ScopedSpan span("store.publish");
    *version = (*release)->Publish(stack->store.get(), kDatasetName, &error);
  }
  if (*version == 0) {
    std::fprintf(stderr, "refresh publish failed: %s\n", error.c_str());
    return false;
  }
  bool installed;
  const int64_t reload0 = NowNs();
  {
    ScopedSpan span("catalog.reload");
    installed = stack->catalog->Reload(kDatasetName, &error);
  }
  sample->reload_ms = static_cast<double>(NowNs() - reload0) * 1e-6;
  uint64_t served = 0;
  for (const CatalogEntryInfo& e : stack->catalog->List()) {
    if (e.name == kDatasetName) served = e.version;
  }
  sample->total_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  sample->start_ns = t0;
  sample->end_ns = NowNs();
  if (!installed || served != *version) {
    std::fprintf(stderr, "refresh to v%" PRIu64 " not served (serving v%" PRIu64
                 "): %s\n", *version, served, error.c_str());
    return false;
  }
  stack->server->RecordReloads(1);
  return true;
}

/// In-process answers of `release` to every pool frame.
std::vector<std::vector<double>> ExpectedAnswers(
    const Release& release, const QueryEngine& engine,
    const std::vector<Frame>& pool) {
  std::vector<std::vector<double>> expected(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    expected[i].resize(pool[i].size());
    release.Answer(engine, pool[i], expected[i]);
  }
  return expected;
}

/// The writer of the writes-beside-reads workload: refreshes the served
/// release back to back until stopped, so every frame of a pass is served
/// beside a refresh. After each refresh it registers the new version's
/// in-process answers with the checker and drops the release.
class Writer {
 public:
  Writer(const Generated& g, uint64_t seed, const QueryEngine& engine,
         Stack* stack, AnswerChecker* checker, uint64_t* refresh_counter)
      : g_(g), seed_(seed), engine_(engine), stack_(stack),
        checker_(checker), refresh_counter_(refresh_counter) {}
  ~Writer() { Stop(); }

  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        std::unique_ptr<Release> release;
        uint64_t version = 0;
        RefreshSample sample;
        const uint64_t n = ++*refresh_counter_;
        if (!RunRefresh(g_, Mix(seed_, 1000 + n), stack_, &release, &version,
                        &sample)) {
          ok_ = false;
          return;
        }
        {
          ScopedSpan span("check.register");
          checker_->Register(version,
                             ExpectedAnswers(*release, engine_, g_.pool));
        }
        stack_->store->Prune(kDatasetName, 2);
        samples_.push_back(sample);
      }
    });
  }

  /// Stops after the refresh in progress; false if a refresh failed.
  bool Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return ok_;
  }

  /// Refreshes that started and ended within [start_ns, end_ns] (call
  /// after Stop).
  std::vector<RefreshSample> Within(int64_t start_ns, int64_t end_ns) const {
    std::vector<RefreshSample> within;
    for (const RefreshSample& s : samples_) {
      if (s.start_ns >= start_ns && s.end_ns <= end_ns) within.push_back(s);
    }
    return within;
  }

 private:
  const Generated& g_;
  uint64_t seed_;
  const QueryEngine& engine_;
  Stack* stack_;
  AnswerChecker* checker_;
  uint64_t* refresh_counter_;
  std::atomic<bool> stop_{false};
  bool ok_ = true;
  std::vector<RefreshSample> samples_;
  std::thread thread_;
};

// --- one measured pass --------------------------------------------------------

PassConfig MakePassConfig(const Generated& g, uint16_t port,
                          const std::vector<QueryClient*>& clients,
                          const std::vector<uint32_t>* sequence,
                          uint64_t frame_id_base) {
  PassConfig config;
  config.name = kDatasetName;
  config.port = port;
  config.clients = clients;
  config.pool = &g.pool;
  config.sequence = sequence;
  config.frame_id_base = frame_id_base;
  return config;
}

struct PassMeasure {
  PassResult load;
  obs::MetricsSnapshot metrics_before;
  obs::MetricsSnapshot metrics_after;
  WireStats stats_before;
  WireStats stats_after;
  CpuTimes cpu_before;
  CpuTimes cpu_after;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Runs one timed pass over `clients`.
PassMeasure MeasurePass(const Generated& g,
                        const std::vector<QueryClient*>& clients,
                        uint64_t frame_id_base, size_t corrupt_position,
                        Stack* stack, AnswerChecker* checker) {
  PassMeasure m;
  PassConfig config = MakePassConfig(g, stack->server->port(), clients,
                                     &g.sequence, frame_id_base);
  config.corrupt_position = corrupt_position;
  m.metrics_before = stack->server->MetricsSnapshotNow();
  m.stats_before = stack->server->StatsSnapshot();
  m.cpu_before = ReadCpuTimes();
  m.start_ns = NowNs();
  m.load = RunPass(config, checker);
  m.end_ns = NowNs();
  m.cpu_after = ReadCpuTimes();
  m.stats_after = stack->server->StatsSnapshot();
  m.metrics_after = stack->server->MetricsSnapshotNow();
  return m;
}

uint64_t QueryBatchRequests(const obs::MetricsSnapshot& s) {
  for (const obs::OpMetricsSnapshot& op : s.ops) {
    if (op.op == static_cast<uint32_t>(WireOp::kQueryBatch)) return op.requests;
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec* spec_ptr = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec_ptr = &w;
  }
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *spec_ptr;
  // At least 1,000 frames, so that ten or more lie beyond the p99. A traced
  // run makes two passes (untraced, then traced) of half the frames each,
  // so that it takes about as long as an untraced run.
  size_t frames = std::max<size_t>(
      kMinFrames, static_cast<size_t>(spec.frames_per_second * args.seconds /
                                      (args.trace ? 2 : 1)));
  if (args.tiny) {
    // Self-check size: the same code paths on a few seconds of work.
    spec.points = std::max<int64_t>(20'000, spec.points / 100);
    spec.frame_queries = std::min<size_t>(spec.frame_queries, 256);
    spec.setups = 2;
    spec.refreshes = std::min(spec.refreshes, 2);
    spec.accuracy_per_size = 8;
    frames = 120;
  }
  const size_t warmup_frames = std::max<size_t>(20, frames / 10);
  EnableTracing(args.trace);

  fs::create_directories(args.scratch);
  const std::string scratch = fs::absolute(args.scratch).string();

  // Inputs in memory first; their generation is not part of set-up.
  const int64_t gen0 = NowNs();
  Generated g;
  {
    ScopedSpan span("data.generate");
    g = Generate(spec, args.seed, frames, warmup_frames);
  }
  const double gen_s = SecondsSince(gen0);

  const QueryEngine engine;  // default QueryEngineOptions, as served
  Tally tally;

  // Repeated set-ups, each releasing the same points with its own noise
  // seed; the last one stays up and serves the passes. Each set-up's
  // release answers the accuracy frame over the wire, pinned to its
  // version, before anything else can be published: mean_rel_error and
  // snapshot_bytes are then fixed by the seed.
  const int64_t exact0 = NowNs();
  const std::vector<double> exact = ExactCounts(g.inputs, g.accuracy);
  std::fprintf(stderr, "exact counts of %zu accuracy queries: %.2f s\n",
               exact.size(), SecondsSince(exact0));
  if (exact.size() != g.accuracy.size()) return 1;
  const double rho = DefaultRho(static_cast<double>(g.inputs.size()));
  std::vector<SetupSample> setups;
  std::vector<double> rel_errors;
  std::vector<double> snapshot_sizes;
  bool accuracy_ok = true;
  Stack stack;
  std::unique_ptr<Release> release;
  uint64_t setup_version = 0;
  for (int k = 0; k < spec.setups; ++k) {
    stack.Reset();
    fs::remove_all(scratch + "/setup-" + std::to_string(k - 1));
    SetupSample sample;
    if (!RunSetup(g, scratch + "/setup-" + std::to_string(k),
                  Mix(args.seed, 100 + k), engine, &stack, &release,
                  &setup_version, &sample, &tally)) {
      return 1;
    }
    setups.push_back(sample);
    snapshot_sizes.push_back(static_cast<double>(fs::file_size(
        stack.dir + "/" + SnapshotStore::FileName(kDatasetName, setup_version))));
    std::vector<double> answers;
    if (!CheckedFrame(stack.server->port(), g.accuracy, setup_version,
                      *release, engine, &answers, &tally)) {
      accuracy_ok = false;
      continue;
    }
    double sum = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      sum += RelativeError(answers[i], exact[i], rho);
    }
    rel_errors.push_back(sum / static_cast<double>(exact.size()));
  }
  double mean_rel_error = 0.0;
  for (double e : rel_errors) mean_rel_error += e;
  mean_rel_error /= static_cast<double>(std::max<size_t>(1, rel_errors.size()));

  // Every served frame is checked against the in-process answers of the
  // version it names: first the set-up version, then each version the
  // writer publishes.
  const std::vector<std::vector<double>> expected =
      ExpectedAnswers(*release, engine, g.pool);
  AnswerChecker checker;
  checker.Register(setup_version, expected);
  // The set-up release stays for the probes.
  const std::unique_ptr<Release> setup_release = std::move(release);
  uint64_t refresh_counter = 0;
  uint64_t frame_id_base = 1;

  // The load's connections, opened by the warm-up pass and kept by every
  // pass after it.
  std::vector<std::unique_ptr<QueryClient>> client_store;
  std::vector<QueryClient*> clients;
  for (int c = 0; c < spec.connections; ++c) {
    client_store.push_back(std::make_unique<QueryClient>(LoadClientOptions()));
    clients.push_back(client_store.back().get());
  }

  // A refreshing workload's writer runs from the warm-up pass to the end
  // of the last pass, so that every timed frame is served beside a
  // refresh.
  Writer writer(g, args.seed, engine, &stack, &checker, &refresh_counter);
  if (spec.refresh_beside_reads) writer.Start();

  // Warm-up pass: checked, not reported.
  {
    const PassConfig warm =
        MakePassConfig(g, stack.server->port(), clients, &g.warmup_sequence,
                       frame_id_base);
    const PassResult r = RunPass(warm, &checker);
    tally.Add(r.attempted, r.failed);
    frame_id_base += g.warmup_sequence.size();
  }

  // Traced runs first repeat the pass untraced, for trace.overhead_pct
  // (the untraced pass's qps over the traced pass's).
  double untraced_qps = 0.0;
  if (args.trace) {
    EnableTracing(false);
    const PassMeasure ref =
        MeasurePass(g, clients, frame_id_base, SIZE_MAX, &stack, &checker);
    tally.Add(ref.load.attempted, ref.load.failed);
    untraced_qps = Summarize(ref.load).qps;
    frame_id_base += g.sequence.size();
    EnableTracing(true);
  }
  const PassMeasure pass = MeasurePass(g, clients, frame_id_base,
                                       args.corrupt_frame, &stack, &checker);
  tally.Add(pass.load.attempted, pass.load.failed);
  frame_id_base += g.sequence.size();

  // Fan-in: a workload served over one connection measures
  // client.conn_share_min on a short extra pass over two fresh ones.
  std::vector<size_t> fan_in_frames = pass.load.frames_per_conn;
  if (args.trace && spec.connections < 2) {
    QueryClient a(LoadClientOptions());
    QueryClient b(LoadClientOptions());
    const PassConfig fan_in = MakePassConfig(
        g, stack.server->port(), {&a, &b}, &g.warmup_sequence, frame_id_base);
    const PassResult r = RunPass(fan_in, &checker);
    tally.Add(r.attempted, r.failed);
    frame_id_base += g.warmup_sequence.size();
    fan_in_frames = r.frames_per_conn;
  }

  const bool writer_ok = writer.Stop();
  checker.Finish();
  tally.Add(0, checker.late_failures());
  if (!writer_ok) return 1;

  // Refresh samples: those that ran beside the timed pass, else refreshes
  // after the pass with no reads beside them.
  std::vector<RefreshSample> refreshes =
      writer.Within(pass.start_ns, pass.end_ns);
  if (!spec.refresh_beside_reads) {
    for (int k = 0; k < spec.refreshes; ++k) {
      std::unique_ptr<Release> fresh;
      uint64_t v = 0;
      RefreshSample sample;
      const uint64_t n = ++refresh_counter;
      if (!RunRefresh(g, Mix(args.seed, 1000 + n), &stack, &fresh, &v,
                      &sample)) {
        return 1;
      }
      std::vector<double> answers;
      CheckedFrame(stack.server->port(), g.pool[0], v, *fresh, engine,
                   &answers, &tally);
      refreshes.push_back(sample);
      stack.store->Prune(kDatasetName, 1);
    }
  }
  if (refreshes.empty()) {
    std::fprintf(stderr, "no refresh completed within the timed pass\n");
    return 1;
  }
  // Versions whose answers were checked: the checker's, plus the 2-D
  // workloads' after-pass refreshes (one checked frame each).
  const size_t versions_checked =
      checker.versions() + (spec.refresh_beside_reads ? 0 : refreshes.size());

  // --- metrics ----------------------------------------------------------------
  std::vector<double> setup_s, build_ms, publish_ms, load_ms;
  for (const SetupSample& s : setups) {
    setup_s.push_back(s.total_s);
    build_ms.push_back(s.build_ms);
    publish_ms.push_back(s.publish_ms);
    load_ms.push_back(s.load_ms);
  }
  std::vector<double> refresh_ms, reload_ms;
  for (const RefreshSample& s : refreshes) {
    refresh_ms.push_back(s.total_ms);
    reload_ms.push_back(s.reload_ms);
  }
  const PassResult& load = pass.load;
  const std::vector<double> rtt_us = load.RttUs();
  const bool have_frames = !rtt_us.empty();
  const PassSummary summary = Summarize(load);

  MetricMap e2e;
  e2e["qps"] = {summary.qps, "1/s"};
  e2e["frame_p50_us"] = {summary.p50_us, "us"};
  e2e["frame_p99_us"] = {summary.p99_us, "us"};
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["refresh_ms"] = {Median(refresh_ms), "ms"};
  e2e["mean_rel_error"] = {mean_rel_error, "ratio"};
  e2e["snapshot_bytes"] = {Median(snapshot_sizes), "bytes"};
  e2e["peak_rss_mib"] = {PeakRssMib(), "MiB"};

  MetricMap layer;
  if (args.trace) {
    std::string error;
    CodecTimes codec;
    if (!ProbeCodec(kDatasetName, g.pool, expected, setup_version, &codec,
                    &error)) {
      std::fprintf(stderr, "codec probe failed: %s\n", error.c_str());
      return 1;
    }
    layer["server.wire.req_encode_us"] = {codec.req_encode_us, "us"};
    layer["server.wire.req_decode_us"] = {codec.req_decode_us, "us"};
    layer["server.wire.resp_encode_us"] = {codec.resp_encode_us, "us"};
    layer["server.wire.resp_decode_us"] = {codec.resp_decode_us, "us"};
    layer["server.wire.crc_us"] = {codec.crc_us, "us"};

    static const char* const kStageMetric[obs::kNumStages] = {
        "server.stage.read_us",   "server.stage.decode_us",
        "server.stage.queue_wait_us", "server.stage.engine_us",
        "server.stage.encode_us", "server.stage.write_us"};
    // Stage means over the pass: unlike the log2-bucket p50s they add up
    // along a frame, and they are not quantized to a bucket edge.
    double stage_mean_sum_us = 0.0;
    for (size_t i = 0; i < obs::kNumStages; ++i) {
      const obs::HistogramSnapshot d = pass.metrics_after.stages[i].Delta(
          pass.metrics_before.stages[i]);
      layer[kStageMetric[i]] = {d.MeanUs(), "us"};
      stage_mean_sum_us += d.MeanUs();
    }
    layer["server.frames"] = {
        static_cast<double>(QueryBatchRequests(pass.metrics_after) -
                            QueryBatchRequests(pass.metrics_before)),
        "count"};
    layer["server.errors"] = {
        static_cast<double>(pass.stats_after.errors_returned -
                            pass.stats_before.errors_returned),
        "count"};
    layer["server.shed"] = {
        static_cast<double>(pass.stats_after.connections_shed -
                            pass.stats_before.connections_shed),
        "count"};
    layer["server.read_timeouts"] = {
        static_cast<double>(pass.stats_after.read_timeouts -
                            pass.stats_before.read_timeouts),
        "count"};

    double rtt_mean_us = 0.0;
    for (double v : rtt_us) rtt_mean_us += v;
    if (have_frames) rtt_mean_us /= static_cast<double>(rtt_us.size());
    layer["client.rtt_us"] = {have_frames ? Median(rtt_us) : 0.0, "us"};
    layer["client.unattributed_us"] = {
        rtt_mean_us - stage_mean_sum_us - codec.req_encode_us -
            codec.resp_decode_us,
        "us"};
    size_t min_frames = SIZE_MAX;
    size_t total_frames = 0;
    for (size_t n : fan_in_frames) {
      min_frames = std::min(min_frames, n);
      total_frames += n;
    }
    layer["client.conn_share_min"] = {
        static_cast<double>(min_frames) / static_cast<double>(total_frames),
        "ratio"};

    const Release& serving = *setup_release;
    const QueryEngine engine_1t(QueryEngineOptions{.num_threads = 1});
    layer["query.engine_us"] = {ProbeEngineUs(engine, serving, g.pool), "us"};
    layer["query.engine_1t_us"] = {ProbeEngineUs(engine_1t, serving, g.pool),
                                   "us"};

    // The workload's own family measures its build in set-up; the other
    // family is probed on the same points (d = 2 lift or 2-axis
    // projection).
    std::vector<Frame> counterpart_pool;
    for (size_t i = 0; i < std::min<size_t>(8, g.pool.size()); ++i) {
      counterpart_pool.push_back(CounterpartFrame(g.pool[i]));
    }
    double counterpart_build_ms = 0.0;
    double counterpart_engine_us = 0.0;
    {
      ScopedSpan span("probe.counterpart");
      const Inputs counterpart = CounterpartInputs(g.inputs, 1'000'000);
      std::vector<double> samples;
      std::unique_ptr<Release> built;
      for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan build_span("release.build");
        const int64_t t0 = NowNs();
        built = BuildRelease(counterpart, Mix(args.seed, 200 + rep));
        samples.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      }
      counterpart_build_ms = Median(samples);
      counterpart_engine_us = ProbeEngineUs(engine, *built, counterpart_pool);
    }
    const bool nd_workload = spec.dims != 2;
    layer["nd.build_ms"] = {nd_workload ? Median(build_ms)
                                        : counterpart_build_ms,
                            "ms"};
    layer["nd.engine_us"] = {nd_workload ? layer["query.engine_us"].value
                                         : counterpart_engine_us,
                             "us"};
    layer["grid.build_ms"] = {nd_workload ? counterpart_build_ms
                                          : Median(build_ms),
                              "ms"};
    layer["dp.laplace_ns"] = {ProbeLaplaceNs(Mix(args.seed, 300)), "ns"};

    double encode_ms = 0.0;
    double decode_ms = 0.0;
    if (!ProbeSnapshotCodec(serving, &encode_ms, &decode_ms, &error)) {
      std::fprintf(stderr, "snapshot probe failed: %s\n", error.c_str());
      return 1;
    }
    layer["store.encode_ms"] = {encode_ms, "ms"};
    layer["store.publish_ms"] = {Median(publish_ms), "ms"};
    layer["store.decode_ms"] = {decode_ms, "ms"};
    layer["catalog.load_ms"] = {Median(load_ms), "ms"};
    layer["catalog.reload_ms"] = {Median(reload_ms), "ms"};

    layer["proc.cpu_us_per_query"] = {
        load.cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, load.queries)),
        "us"};
    layer["host.steal_pct"] = {StealPct(pass.cpu_before, pass.cpu_after), "%"};
    layer["data.gen_s"] = {gen_s, "s"};
    layer["trace.overhead_pct"] = {
        (untraced_qps / summary.qps - 1.0) * 100.0, "%"};
  }

  // --- provenance, trace file, result -------------------------------------------
  char provenance[2048];
  std::snprintf(
      provenance, sizeof provenance,
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %d, "
      "\"trace\": %d, \"frames\": %zu, \"warmup_frames\": %zu, "
      "\"connections\": %d, \"cpu_model\": \"%s\", \"nproc\": %d, "
      "\"compiler\": \"%s\", \"source\": \"%s\", \"store_fs\": \"%s\", "
      "\"event_loop_active\": %s, \"engine_threads\": %d, "
      "\"steal_pct\": %.3f, \"pass_wall_s\": %.3f, \"refreshes\": %zu, "
      "\"versions_checked\": %zu, \"spans\": %" PRIu64 "}",
      spec.name, args.seed, args.seconds, args.trace ? 1 : 0, frames,
      warmup_frames, spec.connections, JsonEscape(CpuModel()).c_str(),
      UsableCpus(), JsonEscape(__VERSION__).c_str(),
      JsonEscape(args.source_id).c_str(), FsType(scratch).c_str(),
      stack.server->event_loop_active() ? "true" : "false",
      engine.num_threads(), StealPct(pass.cpu_before, pass.cpu_after),
      load.wall_s, refreshes.size(), versions_checked, SpanCount());
  std::printf("provenance %s\n", provenance);
  std::fprintf(stderr,
               "%s: %zu frames in %.3f s; qps %.0f, p50 %.1f us, p99 %.1f us; "
               "setup %.3f s, refresh %.1f ms; frames per connection:",
               spec.name, rtt_us.size(), load.wall_s, summary.qps,
               summary.p50_us, summary.p99_us, e2e["setup_s"].value,
               e2e["refresh_ms"].value);
  for (size_t n : load.frames_per_conn) std::fprintf(stderr, " %zu", n);
  std::fprintf(stderr, "\n");
  if (args.trace && !args.trace_out.empty() &&
      !WriteTrace(args.trace_out, provenance)) {
    std::fprintf(stderr, "cannot write trace %s\n", args.trace_out.c_str());
    return 1;
  }

  client_store.clear();
  stack.Reset();
  fs::remove_all(scratch);
  const bool correct = tally.failed == 0 && accuracy_ok;
  PrintResult(correct, tally.attempted, tally.failed, args.trace ? layer : e2e);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dpgw_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--trace-out PATH] "
                 "[--source-id TEXT] [--size full|tiny] "
                 "[--corrupt-frame K]\n");
    return 2;
  }
  return perfbench::Run(args);
}
