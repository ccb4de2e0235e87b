#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>

#include "common/check.h"
#include "common/clock.h"
#include "common/env.h"
#include "experiments/experiment.h"
#include "metrics/table.h"
#include "query/evaluator.h"

namespace dpgrid {
namespace bench {

int64_t EnvInt(const char* name, int64_t fallback) {
  return EnvInt64(name, fallback);
}

double NowSeconds() { return dpgrid::NowSeconds(); }

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

// First line of a shell command's stdout, "" when it fails or prints
// nothing.
std::string CommandLine(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char line[256] = {};
  const bool got = std::fgets(line, sizeof(line), pipe) != nullptr;
  const int status = ::pclose(pipe);
  if (!got || status != 0) return "";
  std::string out(line);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

}  // namespace

HostStamp HostStamp::Collect() {
  HostStamp stamp;
  stamp.cpu_model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const std::string text(line);
      const size_t colon = text.find(':');
      if (text.rfind("model name", 0) == 0 && colon != std::string::npos) {
        stamp.cpu_model = text.substr(colon + 2);
        if (!stamp.cpu_model.empty() && stamp.cpu_model.back() == '\n') {
          stamp.cpu_model.pop_back();
        }
        break;
      }
    }
    std::fclose(f);
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    stamp.nproc = CPU_COUNT(&set);
  }
#if defined(__clang__)
  stamp.compiler = __VERSION__;  // already names Clang
#else
  stamp.compiler = std::string("gcc ") + __VERSION__;
#endif
  const std::string git =
      std::string("git -C '") + DPGRID_SOURCE_DIR + "' ";
  stamp.git_sha = CommandLine(git + "rev-parse HEAD 2>/dev/null");
  if (stamp.git_sha.empty()) {
    stamp.git_sha = "unknown";
  } else if (!CommandLine(git + "status --porcelain --untracked-files=no "
                                "2>/dev/null")
                  .empty()) {
    stamp.git_sha += "-dirty";
  }
  return stamp;
}

std::string HostStamp::ToJson() const {
  return "{\"cpu_model\": " + JsonString(cpu_model) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"git_sha\": " + JsonString(git_sha) + "}";
}

ScratchDir::ScratchDir(const std::string& prefix) {
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  // Self-heal: sweep <prefix>.<pid> leftovers whose owning process is gone
  // (SIGKILL / OOM skipped the destructor), so crashed runs cannot
  // accumulate on a long-lived machine. Live PIDs are left alone — that is
  // the concurrent run the per-PID suffix exists to protect.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(tmp, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix + ".", 0) != 0) continue;
    const std::string suffix = name.substr(prefix.size() + 1);
    char* end = nullptr;
    const long long pid = std::strtoll(suffix.c_str(), &end, 10);
    if (end == suffix.c_str() || *end != '\0' || pid <= 0) continue;
    if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
  path_ = (tmp / (prefix + "." +
                  std::to_string(static_cast<long long>(::getpid()))))
              .string();
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // best effort; never throw out of a destructor
  std::filesystem::remove_all(path_, ec);
}

BenchConfig BenchConfig::FromEnv() {
  BenchConfig c;
  c.scale = EnvDouble("DPGRID_SCALE", 1.0);
  c.trials = static_cast<int>(EnvInt("DPGRID_TRIALS", 3));
  c.queries_per_size = static_cast<int>(EnvInt("DPGRID_QUERIES", 200));
  c.seed = static_cast<uint64_t>(EnvInt("DPGRID_SEED", 20130408));
  DPGRID_CHECK(c.scale > 0.0 && c.scale <= 1.0);
  DPGRID_CHECK(c.trials >= 1);
  DPGRID_CHECK(c.queries_per_size >= 1);
  return c;
}

Scenario MakeScenario(const DatasetSpec& spec, double epsilon,
                      const BenchConfig& config) {
  Rng data_rng(config.seed);
  Dataset dataset = spec.make(spec.n, data_rng);
  RangeCountIndex truth(dataset);
  Rng workload_rng(config.seed + 1);
  Workload workload =
      GenerateWorkload(dataset.domain(), spec.q_max_w, spec.q_max_h, 6,
                       config.queries_per_size, workload_rng);
  double rho = DefaultRho(static_cast<double>(dataset.size()));
  return Scenario{spec.name, epsilon, std::move(dataset), std::move(truth),
                  std::move(workload), rho};
}

MethodResult RunMethod(const std::string& name, const SynopsisFactory& factory,
                       const Scenario& scenario, const BenchConfig& config) {
  // A one-cell trial grid through the shared experiments fan-out: the
  // figure harnesses draw per-trial noise from the same derived streams
  // as the report pipeline (keyed by label, so the same label reproduces
  // the same numbers in every figure) and aggregate in the same fixed
  // order, with trials sharded across the process-wide pool.
  experiments::ExperimentConfig grid_config;
  grid_config.scale = config.scale;
  grid_config.trials = config.trials;
  grid_config.queries_per_size = config.queries_per_size;
  grid_config.num_sizes = static_cast<int>(scenario.workload.num_sizes());
  grid_config.seed = config.seed;
  grid_config.epsilons = {scenario.epsilon};
  int64_t queries_per_trial = 0;
  for (const auto& group : scenario.workload.queries) {
    queries_per_trial += static_cast<int64_t>(group.size());
  }
  const std::vector<experiments::CellResult> cells = experiments::RunTrialGrid(
      scenario.dataset_name, experiments::StreamKey(scenario.dataset_name),
      {name}, {experiments::StreamKey(name)}, scenario.workload.num_sizes(),
      grid_config, queries_per_trial,
      [&](size_t, size_t, Rng& rng, double* build_seconds) {
        const double t0 = NowSeconds();
        std::unique_ptr<Synopsis> synopsis =
            factory(scenario.dataset, scenario.epsilon, rng);
        *build_seconds = NowSeconds() - t0;
        return EvaluateSynopsis(*synopsis, scenario.workload, scenario.truth,
                                scenario.rho);
      },
      nullptr);
  DPGRID_CHECK(cells.size() == 1);
  MethodResult result;
  result.name = name;
  result.mean_rel_by_size = cells[0].mean_rel_by_size;
  result.rel_summary = cells[0].rel;
  result.abs_summary = cells[0].abs;
  return result;
}

void PrintPerSizeTable(const std::string& title,
                       const std::vector<std::string>& size_labels,
                       const std::vector<MethodResult>& methods) {
  std::printf("\n%s — mean relative error per query size\n", title.c_str());
  std::vector<std::string> headers = {"method"};
  headers.insert(headers.end(), size_labels.begin(), size_labels.end());
  TablePrinter table(headers);
  for (const MethodResult& m : methods) {
    std::vector<std::string> row = {m.name};
    for (double v : m.mean_rel_by_size) row.push_back(FormatDouble(v, 4));
    table.AddRow(std::move(row));
  }
  table.Print();
}

void PrintCandlestickTable(const std::string& title,
                           const std::vector<MethodResult>& methods,
                           bool absolute) {
  std::printf("\n%s — %s error profile over all query sizes\n", title.c_str(),
              absolute ? "absolute" : "relative");
  TablePrinter table({"method", "p25", "median", "p75", "p95", "mean"});
  for (const MethodResult& m : methods) {
    const Summary& s = absolute ? m.abs_summary : m.rel_summary;
    table.AddRow({m.name, FormatDouble(s.p25, 4), FormatDouble(s.p50, 4),
                  FormatDouble(s.p75, 4), FormatDouble(s.p95, 4),
                  FormatDouble(s.mean, 4)});
  }
  table.Print();
}

void PrintConfig(const char* bench_name, const BenchConfig& config) {
  std::printf(
      "=== %s ===\n"
      "scale=%.3g (of paper dataset sizes), trials=%d, queries/size=%d, "
      "seed=%llu\n"
      "(override via DPGRID_SCALE / DPGRID_TRIALS / DPGRID_QUERIES / "
      "DPGRID_SEED)\n",
      bench_name, config.scale, config.trials, config.queries_per_size,
      static_cast<unsigned long long>(config.seed));
}

}  // namespace bench
}  // namespace dpgrid
