#include "probes.h"

#include <sched.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"
#include "common/random.h"
#include "server/wire.h"
#include "store/snapshot.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

using namespace dpgrid;

namespace {

constexpr size_t kCodecFrames = 8;
constexpr int kCodecReps = 5;
constexpr int kEngineReps = 3;
constexpr int kSnapshotReps = 3;
constexpr int kLaplaceDraws = 1 << 20;
constexpr int kLaplaceReps = 5;

// Times one call of `fn` in microseconds and appends it to *samples.
template <typename Fn>
void TimeUs(std::vector<double>* samples, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  samples->push_back(static_cast<double>(NowNs() - t0) * 1e-3);
}

}  // namespace

bool ProbeCodec(const std::string& name, const std::vector<Frame>& pool,
                const std::vector<std::vector<double>>& expected,
                uint64_t version, CodecTimes* out, std::string* error) {
  ScopedSpan probe_span("probe.codec");
  std::vector<double> req_enc, req_dec, resp_enc, resp_dec, crc;
  std::string request;
  std::string response;
  QueryBatchRequest decoded_request;
  QueryBatchResponse decoded_response;
  uint32_t crc_sink = 0;
  const size_t frames = std::min(kCodecFrames, pool.size());
  for (int rep = 0; rep < kCodecReps; ++rep) {
    for (size_t i = 0; i < frames; ++i) {
      bool ok = true;
      {
        ScopedSpan span("wire.req_encode");
        TimeUs(&req_enc, [&] { EncodeRequest(name, pool[i], &request); });
      }
      {
        ScopedSpan span("wire.req_decode");
        TimeUs(&req_dec, [&] {
          ok = DecodeQueryBatchRequest(request, &decoded_request, error);
        });
      }
      if (!ok || decoded_request.count() != pool[i].size()) {
        if (error->empty()) *error = "request did not round-trip";
        return false;
      }
      {
        ScopedSpan span("wire.crc");
        TimeUs(&crc, [&] { crc_sink ^= Crc32c(request); });
      }
      {
        ScopedSpan span("wire.resp_encode");
        TimeUs(&resp_enc, [&] {
          EncodeQueryBatchOkBodyTo(version, expected[i], &response);
        });
      }
      {
        ScopedSpan span("wire.resp_decode");
        TimeUs(&resp_dec, [&] {
          ok = DecodeQueryBatchResponse(response, &decoded_response, error);
        });
      }
      if (!ok || decoded_response.answers.size() != expected[i].size() ||
          std::memcmp(decoded_response.answers.data(), expected[i].data(),
                      expected[i].size() * sizeof(double)) != 0) {
        if (error->empty()) *error = "response did not round-trip";
        return false;
      }
    }
  }
  // Printed so the CRC calls cannot be discarded as dead code.
  std::fprintf(stderr, "codec probe crc fold %08x\n", crc_sink);
  out->req_encode_us = Median(req_enc);
  out->req_decode_us = Median(req_dec);
  out->resp_encode_us = Median(resp_enc);
  out->resp_decode_us = Median(resp_dec);
  out->crc_us = Median(crc);
  return true;
}

double ProbeEngineUs(const QueryEngine& engine, const Release& release,
                     const std::vector<Frame>& pool) {
  ScopedSpan probe_span("probe.engine");
  std::vector<double> samples;
  std::vector<double> out;
  const size_t frames = std::min(kCodecFrames, pool.size());
  for (int rep = 0; rep < kEngineReps; ++rep) {
    for (size_t i = 0; i < frames; ++i) {
      out.resize(pool[i].size());
      ScopedSpan span("query.answer_all");
      TimeUs(&samples, [&] { release.Answer(engine, pool[i], out); });
    }
  }
  return Median(samples);
}

double ProbeLaplaceNs(uint64_t seed) {
  ScopedSpan probe_span("probe.laplace");
  Rng rng(seed);
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < kLaplaceReps; ++rep) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kLaplaceDraws; ++i) sink += rng.Laplace(1.0);
    samples.push_back(static_cast<double>(NowNs() - t0) / kLaplaceDraws);
  }
  std::fprintf(stderr, "laplace probe sum %.6g\n", sink);
  return Median(samples);
}

bool ProbeSnapshotCodec(const Release& release, double* encode_ms,
                        double* decode_ms, std::string* error) {
  ScopedSpan probe_span("probe.snapshot");
  std::vector<double> enc, dec;
  std::string bytes;
  for (int rep = 0; rep < kSnapshotReps; ++rep) {
    bool ok = true;
    {
      ScopedSpan span("store.encode");
      TimeUs(&enc, [&] { ok = release.Encode(&bytes, error); });
    }
    if (!ok) return false;
    DecodedSnapshot decoded;
    {
      ScopedSpan span("store.decode");
      TimeUs(&dec, [&] { ok = DecodeSnapshot(bytes, &decoded, error); });
    }
    if (!ok) return false;
  }
  *encode_ms = Median(enc) * 1e-3;
  *decode_ms = Median(dec) * 1e-3;
  return true;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is
  // already included in user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace perfbench
