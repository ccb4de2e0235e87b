#ifndef DPGRID_BENCH_BENCH_UTIL_H_
#define DPGRID_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "geo/dataset.h"
#include "grid/synopsis.h"
#include "index/range_count_index.h"
#include "metrics/error.h"
#include "query/workload.h"

namespace dpgrid {
namespace bench {

/// Integer env knob with a fallback (empty/unset uses the fallback) —
/// shared by every bench harness instead of per-binary copies.
int64_t EnvInt(const char* name, int64_t fallback);

/// A per-process scratch directory under the system temp dir, removed on
/// destruction (RAII: early-exit paths clean up too). The PID suffix keeps
/// concurrent bench runs from colliding on a shared /tmp.
class ScratchDir {
 public:
  /// Creates `<tmp>/<prefix>.<pid>` fresh (removing any stale leftover
  /// from a crashed run with the same PID).
  explicit ScratchDir(const std::string& prefix);
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Monotonic wall-clock seconds, for best-of-reps timing loops.
double NowSeconds();

/// Where a bench figure was measured — stamped into BENCH_*.json so no
/// number is read without its hardware and source revision.
struct HostStamp {
  std::string cpu_model;  // /proc/cpuinfo "model name", or "unknown"
  int nproc = 0;          // CPUs this process may run on
  std::string compiler;   // the compiler that built the bench
  /// HEAD of the source tree, suffixed "-dirty" when tracked files differ
  /// from it; "unknown" outside a git checkout.
  std::string git_sha;

  static HostStamp Collect();
  /// A JSON object with the four fields.
  std::string ToJson() const;
};

/// Runtime knobs shared by every bench binary, read from the environment:
///   DPGRID_SCALE    dataset scale in (0,1], default 1.0 (paper scale)
///   DPGRID_TRIALS   fresh-noise trials per method, default 3
///   DPGRID_QUERIES  queries per size, default 200 (the paper's value)
///   DPGRID_SEED     base RNG seed, default 20130408
struct BenchConfig {
  double scale = 1.0;
  int trials = 3;
  int queries_per_size = 200;
  uint64_t seed = 20130408;

  static BenchConfig FromEnv();
};

/// Builds a synopsis for one trial. The rng is already forked per trial.
using SynopsisFactory = std::function<std::unique_ptr<Synopsis>(
    const Dataset& dataset, double epsilon, Rng& rng)>;

/// Aggregated accuracy of one method on one (dataset, epsilon) scenario.
struct MethodResult {
  std::string name;
  /// Mean relative error per query size (averaged over trials).
  std::vector<double> mean_rel_by_size;
  /// Candlestick stats over all sizes and trials.
  Summary rel_summary;
  Summary abs_summary;
};

/// One prepared evaluation scenario.
struct Scenario {
  std::string dataset_name;
  double epsilon = 1.0;
  Dataset dataset;
  RangeCountIndex truth;
  Workload workload;
  double rho = 1.0;
};

/// Generates a scenario from a dataset spec. The workload shape follows the
/// paper (6 sizes, Table II q6 extents).
Scenario MakeScenario(const DatasetSpec& spec, double epsilon,
                      const BenchConfig& config);

/// Builds `factory` `config.trials` times with fresh noise and evaluates
/// each build on the scenario's workload. Runs through the shared
/// experiments::RunTrialGrid fan-out: trials are sharded across the
/// process-wide pool, per-trial noise comes from the derived stream keyed
/// by (dataset, label), and aggregation order is fixed — so results are
/// deterministic under config.seed and a label reproduces the same
/// numbers in every figure harness.
MethodResult RunMethod(const std::string& name, const SynopsisFactory& factory,
                       const Scenario& scenario, const BenchConfig& config);

/// Prints per-size mean relative errors (the paper's line graphs) for a set
/// of methods.
void PrintPerSizeTable(const std::string& title,
                       const std::vector<std::string>& size_labels,
                       const std::vector<MethodResult>& methods);

/// Prints candlestick summaries over all query sizes (the paper's
/// candlestick plots), for relative or absolute error.
void PrintCandlestickTable(const std::string& title,
                           const std::vector<MethodResult>& methods,
                           bool absolute = false);

/// Prints the bench configuration banner.
void PrintConfig(const char* bench_name, const BenchConfig& config);

}  // namespace bench
}  // namespace dpgrid

#endif  // DPGRID_BENCH_BENCH_UTIL_H_
