// Small helpers shared by the benchmark program: a monotonic clock, order
// statistics, bitwise answer comparison, and the ordered metric map the
// result line is printed from.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; the
/// sample must be non-empty.
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline bool BitwiseEqual(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics keyed by their published name (BENCHMARK.json).
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
