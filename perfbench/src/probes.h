// Layer probes and host facts for the benchmark.
//
// Each probe times the benchmark's own calls into one layer's public
// functions, on the workload's inputs, and reports a median over repeats.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_engine.h"
#include "release.h"

namespace perfbench {

/// Median per-frame cost of the DPGW codec calls (wire.h) and CRC32C on
/// the workload's frames, in microseconds.
struct CodecTimes {
  double req_encode_us = 0.0;
  double req_decode_us = 0.0;
  double resp_encode_us = 0.0;
  double resp_decode_us = 0.0;
  double crc_us = 0.0;
};

/// Encodes and decodes each pool frame's request and its `expected`
/// answers as a response. False (with *error) if a decode fails or does
/// not round-trip.
bool ProbeCodec(const std::string& name, const std::vector<Frame>& pool,
                const std::vector<std::vector<double>>& expected,
                uint64_t version, CodecTimes* out, std::string* error);

/// Median in-process QueryEngine::AnswerAll time per pool frame, in
/// microseconds.
double ProbeEngineUs(const dpgrid::QueryEngine& engine, const Release& release,
                     const std::vector<Frame>& pool);

/// Nanoseconds per Rng::Laplace draw over a fixed number of draws.
double ProbeLaplaceNs(uint64_t seed);

/// Median EncodeSnapshot and DecodeSnapshot times of `release`, in ms.
bool ProbeSnapshotCodec(const Release& release, double* encode_ms,
                        double* decode_ms, std::string* error);

/// /proc/stat CPU totals, for steal accounting.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Share of CPU time stolen by the hypervisor between two readings, in %.
double StealPct(const CpuTimes& before, const CpuTimes& after);

/// The process's peak resident set (VmHWM), in MiB.
double PeakRssMib();

/// Filesystem type of `path` (e.g. "tmpfs", "ext4"), from statfs.
std::string FsType(const std::string& path);

/// CPU model string from /proc/cpuinfo.
std::string CpuModel();

/// CPUs this process may run on.
int UsableCpus();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
