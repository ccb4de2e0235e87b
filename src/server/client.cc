#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "common/status.h"
#include "server/socket_io.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace dpgrid {

namespace {

// Folds a non-OK wire status into the caller's out-params.
bool WireError(WireStatus got, const std::string& message, WireStatus* status,
               std::string* error) {
  if (status != nullptr) *status = got;
  return SetError(error, std::string(WireStatusName(got)) +
                             (message.empty() ? "" : ": " + message));
}

// SplitMix64 finalizer — the same cheap statistical mixer the experiment
// harness seeds its RNG streams with. Good enough to decorrelate backoff
// jitter; deterministic for a fixed seed.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool QueryClient::HandleWireError(WireStatus got, const std::string& message,
                                  WireStatus* status, std::string* error) {
  // The server closes the connection after any MALFORMED_FRAME or
  // OVERLOADED response (a stream it cannot frame, or one it refused to
  // serve) — mirror that here so connected() tells the truth and the
  // retry loop knows a fresh dial is needed.
  if (got == WireStatus::kMalformedFrame || got == WireStatus::kOverloaded) {
    Close();
  }
  return WireError(got, message, status, error);
}

QueryClient::~QueryClient() { Close(); }

uint32_t QueryClient::WireVersion() const {
  return options_.protocol_version == kWireProtocolV1 ||
                 options_.protocol_version == kWireProtocolV2
             ? options_.protocol_version
             : kWireProtocolVersion;
}

#ifndef _WIN32

bool QueryClient::Connect(const std::string& host, uint16_t port,
                          std::string* error) {
  Close();
  host_ = host;
  port_ = port;
  fd_ = net::ConnectTcp(host, port, error, options_.connect_timeout_ms);
  return fd_ >= 0;
}

bool QueryClient::Reconnect(std::string* error) {
  if (host_.empty()) return SetError(error, "no prior Connect to redial");
  return Connect(host_, port_, error);
}

void QueryClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool QueryClient::RoundTrip(WireOp op, const std::string& request_body,
                            std::string* response_body, std::string* error) {
  if (fd_ < 0) return SetError(error, "not connected");
  retry_after_hint_ms_ = 0;
  last_attempt_shed_ = false;
  const net::Deadline deadline =
      net::Deadline::AfterMs(options_.request_deadline_ms);
  const uint64_t request_id = next_request_id_++;
  char request_header[kWireHeaderSize];
  EncodeFrameHeaderTo(op, request_id, request_body, request_header,
                      WireVersion());
  net::IoResult io = net::WriteFull2Deadline(
      fd_, request_header, sizeof(request_header), request_body.data(),
      request_body.size(), deadline);
  if (io != net::IoResult::kOk) {
    Close();
    return SetError(error, io == net::IoResult::kTimeout
                               ? "request deadline exceeded while sending"
                               : "connection lost while sending request");
  }

  char header[kWireHeaderSize];
  io = net::ReadFullDeadline(fd_, header, sizeof(header), deadline);
  if (io != net::IoResult::kOk) {
    Close();
    return SetError(error,
                    io == net::IoResult::kTimeout
                        ? "request deadline exceeded awaiting response"
                        : "connection lost while reading response");
  }
  WireOp resp_op = WireOp::kQueryBatch;
  uint64_t resp_id = 0;
  uint64_t body_size = 0;
  uint64_t checksum = 0;
  // The response's own version verifies its checksum: a matched response
  // echoes the version we sent, but the unsolicited shed verdict (sent
  // before the server saw any frame of ours) is always v1.
  uint32_t resp_version = 0;
  if (!DecodeFrameHeader(std::string_view(header, sizeof(header)), &resp_op,
                         &resp_id, &body_size, &checksum, error,
                         max_body_bytes_, &resp_version)) {
    Close();
    return false;
  }
  response_body->resize(static_cast<size_t>(body_size));
  if (body_size > 0) {
    io = net::ReadFullDeadline(fd_, response_body->data(),
                               response_body->size(), deadline);
    if (io != net::IoResult::kOk) {
      Close();
      return SetError(error,
                      io == net::IoResult::kTimeout
                          ? "request deadline exceeded reading response body"
                          : "connection lost while reading response body");
    }
  }
  if (!VerifyFrameBody(*response_body, checksum, resp_version, error)) {
    Close();
    return false;
  }
  if (resp_id != request_id || resp_op != op) {
    // An unsolicited HEALTH frame with request id 0 is the server's
    // admission verdict: it shed this connection at capacity before
    // reading our request. Surface that as OVERLOADED (and keep its
    // retry-after hint) instead of a generic mismatch.
    if (resp_op == WireOp::kHealth && resp_id == 0) {
      HealthResponse shed;
      std::string decode_error;
      if (DecodeHealthResponse(*response_body, &shed, &decode_error) &&
          shed.status == WireStatus::kOverloaded) {
        Close();
        last_attempt_shed_ = true;
        retry_after_hint_ms_ = ParseRetryAfterMs(shed.message);
        return WireError(shed.status, shed.message, nullptr, error);
      }
    }
    // A server deep in framing trouble echoes id 0 or a different op; the
    // stream can no longer be matched to requests.
    Close();
    return SetError(error, "response does not match request");
  }
  return true;
}

bool QueryClient::WithRetries(
    const std::function<bool(std::string*)>& attempt, std::string* error) {
  if (!connected() && host_.empty()) return SetError(error, "not connected");
  std::string attempt_error;
  for (int attempt_no = 0;; ++attempt_no) {
    attempt_error.clear();
    if (connected() || Reconnect(&attempt_error)) {
      if (attempt(&attempt_error)) return true;
      // A failure that left the connection open is semantic (NOT_FOUND,
      // WRONG_DIMS, ...) — the server answered; retrying cannot change
      // the answer.
      if (connected()) return SetError(error, attempt_error);
    }
    if (attempt_no >= options_.max_retries) {
      return SetError(error,
                      attempt_error +
                          (options_.max_retries > 0
                               ? " (after " +
                                     std::to_string(options_.max_retries + 1) +
                                     " attempts)"
                               : ""));
    }
    // Exponential backoff with multiplicative jitter in [0.5, 1.5); an
    // overload hint raises the sleep to at least what the server asked.
    int64_t base = options_.backoff_initial_ms > 0
                       ? static_cast<int64_t>(options_.backoff_initial_ms)
                             << std::min(attempt_no, 20)
                       : 0;
    if (options_.backoff_max_ms > 0) {
      base = std::min<int64_t>(base, options_.backoff_max_ms);
    }
    jitter_state_ = Mix64(jitter_state_);
    const double jitter =
        0.5 + static_cast<double>(jitter_state_ >> 11) * 0x1.0p-53;
    int64_t sleep_ms = static_cast<int64_t>(static_cast<double>(base) * jitter);
    sleep_ms = std::max<int64_t>(sleep_ms, retry_after_hint_ms_);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
}

bool QueryClient::QueryBatchPipelined(const std::string& name,
                                      std::span<const Rect> queries,
                                      size_t batch_size, size_t window,
                                      std::vector<double>* answers,
                                      uint64_t* version, WireStatus* status,
                                      std::string* error) {
  if (status != nullptr) *status = WireStatus::kInternal;
  if (queries.empty()) {
    if (answers != nullptr) answers->clear();
    if (status != nullptr) *status = WireStatus::kOk;
    return true;
  }
  if (fd_ < 0) return SetError(error, "not connected");
  if (batch_size == 0) batch_size = queries.size();
  if (window == 0) window = 1;
  const uint32_t wire_version = WireVersion();

  // One entry per request frame already sent and not yet answered;
  // responses must come back in exactly this order.
  struct InFlight {
    uint64_t request_id;
    size_t offset;  // first query index of this frame's slice
    size_t count;
  };
  std::deque<InFlight> in_flight;
  if (answers != nullptr) answers->assign(queries.size(), 0.0);
  const size_t total_frames = (queries.size() + batch_size - 1) / batch_size;
  size_t encoded_frames = 0;
  size_t answered_frames = 0;
  size_t next_query = 0;

  std::string out;  // encoded-but-unsent request bytes
  size_t out_off = 0;
  char resp_header[kWireHeaderSize];
  size_t header_got = 0;
  std::string& body = response_scratch_;
  size_t body_got = 0;
  uint64_t body_want = 0;
  bool in_body = false;
  WireOp decoded_op = WireOp::kQueryBatch;
  uint64_t decoded_id = 0;
  uint64_t decoded_checksum = 0;
  uint32_t decoded_version = 0;
  uint64_t snapshot_version = 0;
  bool have_snapshot_version = false;

  // The deadline re-arms on progress in either direction: it bounds a
  // stall, not the whole (arbitrarily large) exchange.
  net::Deadline deadline = net::Deadline::AfterMs(options_.request_deadline_ms);

  auto fail = [&](const std::string& message) {
    Close();
    return SetError(error, message);
  };

  while (answered_frames < total_frames) {
    bool progressed = false;

    // Keep up to `window` frames in flight; encode lazily so a huge query
    // set never materializes all at once.
    while (encoded_frames < total_frames && in_flight.size() < window) {
      const size_t count = std::min(batch_size, queries.size() - next_query);
      EncodeQueryBatchRequestTo(name, queries.subspan(next_query, count),
                                &request_scratch_);
      if (request_scratch_.size() > max_body_bytes_) {
        if (status != nullptr) *status = WireStatus::kTooLarge;
        return fail("encoded batch of " +
                    std::to_string(request_scratch_.size()) +
                    " bytes exceeds the frame cap — use a smaller "
                    "batch_size");
      }
      const uint64_t request_id = next_request_id_++;
      char request_header[kWireHeaderSize];
      EncodeFrameHeaderTo(WireOp::kQueryBatch, request_id, request_scratch_,
                          request_header, wire_version);
      out.append(request_header, kWireHeaderSize);
      out.append(request_scratch_);
      in_flight.push_back({request_id, next_query, count});
      next_query += count;
      ++encoded_frames;
    }

    // Send what the socket will take without blocking.
    while (out_off < out.size()) {
      const ssize_t w = net::SendRaw(fd_, out.data() + out_off,
                                     out.size() - out_off,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        out_off += static_cast<size_t>(w);
        progressed = true;
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w == 0 || errno == EAGAIN || errno == EWOULDBLOCK) break;
      return fail("connection lost while sending pipelined request");
    }
    if (out_off == out.size() && !out.empty()) {
      out.clear();
      out_off = 0;
    }

    // Read whatever responses have landed.
    bool read_blocked = false;
    while (answered_frames < total_frames && !read_blocked) {
      if (!in_body) {
        const ssize_t r =
            net::RecvRaw(fd_, resp_header + header_got,
                         kWireHeaderSize - header_got, MSG_DONTWAIT);
        if (r == 0) return fail("connection closed by server mid-pipeline");
        if (r < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return fail("connection lost while reading pipelined response");
        }
        header_got += static_cast<size_t>(r);
        progressed = true;
        if (header_got < kWireHeaderSize) continue;
        header_got = 0;
        std::string frame_error;
        if (!DecodeFrameHeader(std::string_view(resp_header, kWireHeaderSize),
                               &decoded_op, &decoded_id, &body_want,
                               &decoded_checksum, &frame_error,
                               max_body_bytes_, &decoded_version)) {
          return fail(frame_error);
        }
        body.resize(static_cast<size_t>(body_want));
        body_got = 0;
        in_body = true;
      }
      while (body_got < body_want) {
        const ssize_t r = net::RecvRaw(fd_, body.data() + body_got,
                                       body_want - body_got, MSG_DONTWAIT);
        if (r == 0) return fail("connection closed by server mid-pipeline");
        if (r < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            read_blocked = true;
            break;
          }
          return fail("connection lost while reading pipelined response");
        }
        body_got += static_cast<size_t>(r);
        progressed = true;
      }
      if (body_got < body_want) break;
      // A whole response frame is in hand.
      in_body = false;
      std::string frame_error;
      if (!VerifyFrameBody(body, decoded_checksum, decoded_version,
                           &frame_error)) {
        return fail(frame_error);
      }
      if (in_flight.empty() || decoded_id != in_flight.front().request_id ||
          decoded_op != WireOp::kQueryBatch) {
        return fail("pipelined response does not match request order");
      }
      if (decoded_version != wire_version) {
        return fail("server answered with a different protocol version");
      }
      const InFlight frame = in_flight.front();
      in_flight.pop_front();
      QueryBatchResponse& resp = decoded_scratch_;
      if (!DecodeQueryBatchResponse(body, &resp, &frame_error)) {
        return fail(frame_error);
      }
      if (resp.status != WireStatus::kOk) {
        // Any per-frame failure abandons the in-flight tail, so the
        // connection cannot be reused either way.
        WireError(resp.status, resp.message, status, error);
        Close();
        return false;
      }
      if (resp.answers.size() != frame.count) {
        return fail("answer count does not match query count");
      }
      if (have_snapshot_version && resp.version != snapshot_version) {
        return fail(
            "pipelined batches answered from different snapshot versions "
            "(catalog reloaded mid-call) — re-issue the call");
      }
      snapshot_version = resp.version;
      have_snapshot_version = true;
      if (answers != nullptr) {
        std::copy(resp.answers.begin(), resp.answers.end(),
                  answers->begin() + static_cast<ptrdiff_t>(frame.offset));
      }
      ++answered_frames;
      progressed = true;
    }

    if (answered_frames >= total_frames) break;
    if (progressed) {
      deadline = net::Deadline::AfterMs(options_.request_deadline_ms);
      continue;
    }
    short wait_events = POLLIN;
    if (out_off < out.size()) wait_events |= POLLOUT;
    const net::IoResult r = net::WaitFdUntil(fd_, wait_events, deadline);
    if (r == net::IoResult::kTimeout) {
      if (status != nullptr) *status = WireStatus::kInternal;
      return fail("request deadline exceeded mid-pipeline");
    }
    if (r != net::IoResult::kOk) {
      return fail("connection lost mid-pipeline");
    }
  }
  if (version != nullptr) *version = snapshot_version;
  if (status != nullptr) *status = WireStatus::kOk;
  return true;
}

#else  // _WIN32

bool QueryClient::Connect(const std::string&, uint16_t, std::string* error) {
  return SetError(error, "QueryClient requires POSIX sockets");
}

bool QueryClient::Reconnect(std::string* error) {
  return SetError(error, "QueryClient requires POSIX sockets");
}

void QueryClient::Close() {}

bool QueryClient::RoundTrip(WireOp, const std::string&, std::string*,
                            std::string* error) {
  return SetError(error, "not connected");
}

bool QueryClient::WithRetries(const std::function<bool(std::string*)>&,
                              std::string* error) {
  return SetError(error, "not connected");
}

bool QueryClient::QueryBatchPipelined(const std::string&,
                                      std::span<const Rect>, size_t, size_t,
                                      std::vector<double>*, uint64_t*,
                                      WireStatus*, std::string* error) {
  return SetError(error, "QueryClient requires POSIX sockets");
}

#endif  // _WIN32

bool QueryClient::RunQueryBatch(const std::string& request_body,
                                size_t expected_count,
                                std::vector<double>* answers,
                                uint64_t* version, WireStatus* status,
                                std::string* error) {
  // A frame the peer would reject on its header fails here, before the
  // doomed upload. The cap is the client's configured frame limit, which
  // the operator raises in step with the server's max_body_bytes.
  if (request_body.size() > max_body_bytes_) {
    if (status != nullptr) *status = WireStatus::kTooLarge;
    return SetError(error, "encoded batch of " +
                               std::to_string(request_body.size()) +
                               " bytes exceeds the frame cap — split it "
                               "into smaller batches");
  }
  return WithRetries(
      [&](std::string* attempt_error) {
        std::string& body = response_scratch_;
        if (!RoundTrip(WireOp::kQueryBatch, request_body, &body,
                       attempt_error)) {
          if (status != nullptr) {
            *status = last_attempt_shed_ ? WireStatus::kOverloaded
                                         : WireStatus::kInternal;
          }
          return false;
        }
        QueryBatchResponse& resp = decoded_scratch_;
        if (!DecodeQueryBatchResponse(body, &resp, attempt_error)) {
          Close();
          if (status != nullptr) *status = WireStatus::kInternal;
          return false;
        }
        if (resp.status != WireStatus::kOk) {
          return HandleWireError(resp.status, resp.message, status,
                                 attempt_error);
        }
        if (resp.answers.size() != expected_count) {
          Close();
          if (status != nullptr) *status = WireStatus::kInternal;
          return SetError(attempt_error,
                          "answer count does not match query count");
        }
        if (answers != nullptr) answers->swap(resp.answers);
        if (version != nullptr) *version = resp.version;
        if (status != nullptr) *status = WireStatus::kOk;
        return true;
      },
      error);
}

bool QueryClient::QueryBatch(const std::string& name,
                             std::span<const Rect> queries,
                             std::vector<double>* answers, uint64_t* version,
                             WireStatus* status, std::string* error) {
  EncodeQueryBatchRequestTo(name, queries, &request_scratch_);
  return RunQueryBatch(request_scratch_, queries.size(), answers, version,
                       status, error);
}

bool QueryClient::QueryBatchNd(const std::string& name, uint32_t dims,
                               std::span<const BoxNd> queries,
                               std::vector<double>* answers,
                               uint64_t* version, WireStatus* status,
                               std::string* error) {
  EncodeQueryBatchRequestNdTo(name, dims, queries, &request_scratch_);
  return RunQueryBatch(request_scratch_, queries.size(), answers, version,
                       status, error);
}

bool QueryClient::ListSynopses(std::vector<CatalogEntryInfo>* entries,
                               std::string* error) {
  return WithRetries(
      [&](std::string* attempt_error) {
        std::string body;
        if (!RoundTrip(WireOp::kListSynopses, "", &body, attempt_error)) {
          return false;
        }
        ListResponse resp;
        if (!DecodeListResponse(body, &resp, attempt_error)) {
          Close();
          return false;
        }
        if (resp.status != WireStatus::kOk) {
          return HandleWireError(resp.status, resp.message, nullptr,
                                 attempt_error);
        }
        if (entries != nullptr) *entries = std::move(resp.entries);
        return true;
      },
      error);
}

bool QueryClient::Stats(WireStats* stats, std::string* error) {
  return WithRetries(
      [&](std::string* attempt_error) {
        std::string body;
        if (!RoundTrip(WireOp::kStats, "", &body, attempt_error)) {
          return false;
        }
        StatsResponse resp;
        if (!DecodeStatsResponse(body, &resp, attempt_error)) {
          Close();
          return false;
        }
        if (resp.status != WireStatus::kOk) {
          return HandleWireError(resp.status, resp.message, nullptr,
                                 attempt_error);
        }
        if (stats != nullptr) *stats = resp.stats;
        return true;
      },
      error);
}

bool QueryClient::Metrics(WireStats* stats, obs::MetricsSnapshot* metrics,
                          std::string* error) {
  return WithRetries(
      [&](std::string* attempt_error) {
        std::string body;
        if (!RoundTrip(WireOp::kMetrics, "", &body, attempt_error)) {
          return false;
        }
        MetricsResponse resp;
        if (!DecodeMetricsResponse(body, &resp, attempt_error)) {
          Close();
          return false;
        }
        if (resp.status != WireStatus::kOk) {
          return HandleWireError(resp.status, resp.message, nullptr,
                                 attempt_error);
        }
        if (stats != nullptr) *stats = resp.stats;
        if (metrics != nullptr) *metrics = std::move(resp.metrics);
        return true;
      },
      error);
}

bool QueryClient::Health(ServerHealth* state, uint64_t* active_connections,
                         std::string* error) {
  return WithRetries(
      [&](std::string* attempt_error) {
        std::string body;
        if (!RoundTrip(WireOp::kHealth, "", &body, attempt_error)) {
          return false;
        }
        HealthResponse resp;
        if (!DecodeHealthResponse(body, &resp, attempt_error)) {
          Close();
          return false;
        }
        if (resp.status != WireStatus::kOk) {
          return HandleWireError(resp.status, resp.message, nullptr,
                                 attempt_error);
        }
        if (state != nullptr) *state = resp.state;
        if (active_connections != nullptr) {
          *active_connections = resp.active_connections;
        }
        return true;
      },
      error);
}

bool QueryClient::Reload(uint64_t* installed, std::string* error) {
  // Deliberately no WithRetries: a reload whose response was lost may
  // still have installed versions server-side; resending would double
  // count. The caller decides whether to re-issue.
  std::string body;
  if (!RoundTrip(WireOp::kReload, "", &body, error)) return false;
  ReloadResponse resp;
  if (!DecodeReloadResponse(body, &resp, error)) {
    Close();
    return false;
  }
  if (resp.status != WireStatus::kOk) {
    return HandleWireError(resp.status, resp.message, nullptr, error);
  }
  if (installed != nullptr) *installed = resp.installed;
  return true;
}

}  // namespace dpgrid
