#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/env.h"
#include "server/socket_io.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace dpgrid {

QueryServer::QueryServer(SynopsisCatalog* catalog, const QueryEngine* engine,
                         QueryServerOptions options)
    : catalog_(catalog),
      engine_(engine),
      options_(std::move(options)),
      metrics_(options_.slow_trace_capacity) {
  metrics_.set_slow_frame_us(options_.slow_frame_us);
}

QueryServer::~QueryServer() { Shutdown(); }

WireStats QueryServer::StatsSnapshot() const {
  WireStats s;
  s.connections_accepted = connections_accepted_.load();
  s.frames_received = frames_received_.load();
  s.malformed_frames = malformed_frames_.load();
  s.batches_answered = batches_answered_.load();
  s.queries_answered = queries_answered_.load();
  s.errors_returned = errors_returned_.load();
  s.reloads_installed = reloads_installed_.load();
  s.connections_shed = connections_shed_.load();
  s.read_timeouts = read_timeouts_.load();
  s.idle_timeouts = idle_timeouts_.load();
  return s;
}

obs::MetricsSnapshot QueryServer::MetricsSnapshotNow() const {
  obs::MetricsSnapshot m = metrics_.Snapshot();
  for (obs::OpMetricsSnapshot& o : m.ops) {
    if (o.op >= static_cast<uint32_t>(WireOp::kQueryBatch) &&
        o.op <= static_cast<uint32_t>(WireOp::kMetrics)) {
      o.name = WireOpName(static_cast<WireOp>(o.op));
    }
  }
  m.engine_batches = engine_->batches_answered();
  m.engine_queries = engine_->queries_answered();
  m.engine_batches_2d = engine_->batches_answered_2d();
  m.engine_queries_2d = engine_->queries_answered_2d();
  m.engine_batches_nd = engine_->batches_answered_nd();
  m.engine_queries_nd = engine_->queries_answered_nd();
  m.events = catalog_->EventsSnapshot();
  return m;
}

size_t QueryServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_threads_.size();
}

#ifndef _WIN32

bool QueryServer::Start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  // Operational override for the slow-frame threshold (negative values
  // clamp to 0, which disables trace retention).
  options_.slow_frame_us = static_cast<uint64_t>(std::max<int64_t>(
      0, EnvInt64("DPGRID_SLOW_FRAME_US",
                  static_cast<int64_t>(options_.slow_frame_us))));
  metrics_.set_slow_frame_us(options_.slow_frame_us);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  int one = 1;
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0) {
    // Restart-after-crash rebinding is a correctness property for a
    // drain-and-restart deploy loop, so a kernel that refuses it is
    // worth failing loudly over rather than hitting EADDRINUSE later.
    if (error != nullptr) {
      *error = std::string("setsockopt(SO_REUSEADDR): ") +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) {
      *error = "bad bind address: " + options_.bind_address;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on " + options_.bind_address + ":" +
               std::to_string(options_.port) + ": " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
  started_ = true;
  return true;
}

void QueryServer::Shutdown() { DoShutdown(0); }

bool QueryServer::Shutdown(const DrainOptions& drain) {
  return DoShutdown(drain.deadline_ms > 0 ? drain.deadline_ms : 0);
}

bool QueryServer::DoShutdown(int drain_ms) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return true;
  // draining_ goes up before stopping_ so any HEALTH frame served during
  // the drain window already reports DRAINING.
  if (drain_ms > 0) draining_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(): shutdown() wakes a blocked accept on Linux; on
  // BSD-family systems shutdown of a listening socket fails (ENOTCONN)
  // and the close() is what wakes it. The loop re-checks stopping_ at the
  // top, so a woken accept never touches the (now closed) fd again.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // Drain window: handlers notice stopping_ within one idle-poll slice
  // (or after finishing their in-flight frame) and park themselves,
  // signalling conn_cv_ as they go. A connection still in conn_threads_
  // at the deadline did not finish in time.
  bool drained = true;
  if (drain_ms > 0) {
    std::unique_lock<std::mutex> conn_lock(conn_mu_);
    drained =
        conn_cv_.wait_for(conn_lock, std::chrono::milliseconds(drain_ms),
                          [this] { return conn_threads_.empty(); });
  }

  // Abrupt phase (and the stragglers' path after a timed-out drain):
  // unblock every in-flight connection read, then join the handlers. The
  // handles are moved out under the lock because handlers park themselves
  // in finished_threads_; the joins must happen outside it for the same
  // reason.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    for (auto& [fd, thread] : conn_threads_) {
      ::shutdown(fd, SHUT_RDWR);
      threads.push_back(std::move(thread));
    }
    conn_threads_.clear();
    for (std::thread& t : finished_threads_) threads.push_back(std::move(t));
    finished_threads_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  running_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  started_ = false;
  return drained;
}

void QueryServer::ReapFinishedThreads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    done = std::move(finished_threads_);
    finished_threads_.clear();
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

namespace {

// Reads a frame body into `body`, the connection's retained buffer. The
// bytes it already holds are reused as they are; past them it grows in
// bounded chunks, so memory is committed only as bytes actually arrive and
// a header CLAIMING a huge body (the size field is attacker-controlled)
// cannot make the server pre-allocate it. Reusing the held bytes spares a
// steady stream of same-size frames the zero-fill of every resize. The
// whole body shares the frame's read deadline.
net::IoResult ReadBodyChunked(int fd, uint64_t body_size,
                              const net::Deadline& deadline,
                              std::string* body) {
  constexpr size_t kChunk = 256 * 1024;
  const auto reused =
      static_cast<size_t>(std::min<uint64_t>(body->size(), body_size));
  body->resize(reused);  // shrinking never fills
  if (reused > 0) {
    const net::IoResult r =
        net::ReadFullDeadline(fd, body->data(), reused, deadline);
    if (r != net::IoResult::kOk) return r;
  }
  while (body->size() < body_size) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunk, body_size - body->size()));
    const size_t old = body->size();
    body->resize(old + n);
    const net::IoResult r =
        net::ReadFullDeadline(fd, body->data() + old, n, deadline);
    if (r != net::IoResult::kOk) return r;
  }
  return net::IoResult::kOk;
}

// Reads and discards up to `n` pending bytes, stopping at EOF or after
// `deadline_ms`. Used before closing a connection that was just sent a
// terminal error frame: closing a socket with unread received data sends
// RST, which can discard the queued response before the peer reads it.
// The deadline bounds the stall when the peer never closes its end.
void DrainPending(int fd, uint64_t n, int deadline_ms) {
  const net::Deadline deadline = net::Deadline::AfterMs(deadline_ms);
  char sink[4096];
  while (n > 0 && !deadline.expired()) {
    if (net::WaitFd(fd, POLLIN, deadline.remaining_ms()) !=
        net::IoResult::kOk) {
      break;
    }
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(sizeof(sink), n));
    const ssize_t r = net::RecvRaw(fd, sink, want, MSG_DONTWAIT);
    if (r == 0) break;  // EOF: nothing more is coming
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    n -= static_cast<uint64_t>(r);
  }
}

}  // namespace

void QueryServer::ShedConnection(int fd) {
  connections_shed_.fetch_add(1, std::memory_order_relaxed);
  errors_returned_.fetch_add(1, std::memory_order_relaxed);
  // No request was read, so there is no op or id to echo; the shed frame
  // goes out under op kHealth with request id 0, which clients recognize
  // as an unsolicited connection-scoped verdict. The write gets a short
  // deadline of its own — a peer too slow to take even this frame is not
  // worth waiting on.
  // The verdict is sent before the peer's first frame could negotiate a
  // version, so it goes out as v1, which every client understands.
  const std::string resp = EncodeFrame(
      WireOp::kHealth, 0,
      EncodeErrorBody(
          WireStatus::kOverloaded,
          "server at connection capacity (max_connections=" +
              std::to_string(options_.max_connections) + "): retry_after_ms=" +
              std::to_string(options_.overload_retry_after_ms)),
      kWireProtocolV1);
  net::WriteFullDeadline(fd, resp.data(), resp.size(),
                         net::Deadline::AfterMs(1000));
  ::shutdown(fd, SHUT_WR);
  // Wait (briefly — this runs on the accept thread) for the peer to take
  // the verdict and close: an immediate close() here would turn any
  // already-arrived request bytes into an RST that destroys the queued
  // kOverloaded frame before the client reads it.
  DrainPending(fd, options_.max_body_bytes, /*deadline_ms=*/250);
  ::close(fd);
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    ReapFinishedThreads();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Resource exhaustion (out of fds under a burst) is transient: a
      // production server must keep accepting once pressure clears, not
      // die silently while running() still reports true.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // Listen socket shut down or fatally broken: flip running_ so an
      // operator polling it can tell the server is no longer accepting
      // (Shutdown() flips it too, harmlessly).
      running_.store(false, std::memory_order_release);
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (!net::SetNoDelay(fd)) {
      // A socket that cannot take options is already dead or bogus;
      // serving it silently degraded helps nobody.
      ::close(fd);
      continue;
    }
    // Admission control: beyond max_connections the connection is
    // answered with kOverloaded and closed instead of stacking another
    // handler thread. Checked before the thread exists so the cap bounds
    // actual thread count, not just steady state.
    if (options_.max_connections > 0 &&
        active_connections() >= options_.max_connections) {
      ShedConnection(fd);
      continue;
    }
    // The registry entry and the thread are created under one lock hold,
    // so the handler's exit path (which locks conn_mu_ to park its own
    // handle) always finds its entry. Thread creation fails under the
    // same resource exhaustion the accept() EAGAIN-family handling above
    // treats as transient — shed the connection instead of letting the
    // exception kill the server.
    bool spawned = false;
    try {
      std::lock_guard<std::mutex> lock(conn_mu_);
      const auto [it, inserted] = conn_threads_.try_emplace(fd);
      try {
        it->second = std::thread(&QueryServer::HandleConnection, this, fd);
        spawned = true;
      } catch (...) {
        conn_threads_.erase(it);
      }
    } catch (...) {
      // try_emplace allocation failure; fall through to shed below.
    }
    if (!spawned) {
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryServer::HandleConnection(int fd) {
  ServeFrames(fd);
  // Join earlier-finished handlers before parking this one, so an idle
  // server retains at most one exited thread after a connection burst
  // (the accept loop would otherwise only reap on the NEXT connection).
  // Parked threads are past all locking — only a close and return remain
  // — so joining them here cannot deadlock.
  ReapFinishedThreads();
  {
    // Park this thread's own handle for a later handler, the accept loop,
    // or Shutdown to join — a thread cannot join itself. The erase
    // happens before the close so a recycled fd number can never be
    // confused with this one.
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = conn_threads_.find(fd);
    if (it != conn_threads_.end()) {
      finished_threads_.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
  }
  // The drain path waits for conn_threads_ to empty; wake it.
  conn_cv_.notify_all();
  ::close(fd);
}

void QueryServer::ServeFrames(int fd) {
  // Capacity an idle connection may keep. A streaming connection keeps
  // buffers of any size from frame to frame; once it goes idle, anything
  // above this is given back.
  constexpr size_t kRetainedBodyCapacity = 1 << 20;
  std::string body;
  ConnectionScratch scratch;
  const auto release_oversized_buffers = [&] {
    if (body.capacity() > kRetainedBodyCapacity) {
      std::string().swap(body);
    }
    if (scratch.response_body.capacity() > kRetainedBodyCapacity) {
      std::string().swap(scratch.response_body);
    }
    if (scratch.answers.capacity() * sizeof(double) >
        kRetainedBodyCapacity) {
      std::vector<double>().swap(scratch.answers);
    }
    if (scratch.request.queries.capacity() * sizeof(Rect) >
        kRetainedBodyCapacity) {
      std::vector<Rect>().swap(scratch.request.queries);
    }
  };
  // Wire version negotiated by the connection's first frame; responses
  // echo it, and a later frame switching versions is malformed.
  uint32_t conn_version = 0;
  while (true) {
    // Idle phase: wait for the first byte of the next frame in short poll
    // slices, so stopping_ is noticed within ~50ms (a drain cannot hang
    // on idle connections) and idle_timeout_ms is enforced without any
    // per-fd timer machinery. The stopping_ check lives inside the poll
    // loop (not the outer while) so a handler spawned after a drain
    // began still takes the in-flight-frame look below.
    const net::Deadline idle =
        net::Deadline::AfterMs(options_.idle_timeout_ms);
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) {
        // Abrupt shutdown: out now. Graceful drain: a frame whose first
        // bytes already sit in the receive buffer is in flight even if
        // this handler has not looked at them yet — give it one last
        // zero-timeout poll and serve exactly that frame before closing.
        // (draining_ is ordered before stopping_ in DoShutdown, so seeing
        // stopping_ guarantees a current draining_.)
        if (!draining_.load(std::memory_order_acquire)) return;
        if (net::WaitFd(fd, POLLIN, 0) != net::IoResult::kOk) return;
        break;
      }
      if (idle.expired()) {
        idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      int slice = 50;
      const int remaining = idle.remaining_ms();
      if (remaining >= 0) slice = std::min(slice, remaining);
      const net::IoResult r = net::WaitFd(fd, POLLIN, slice);
      if (r == net::IoResult::kOk) break;
      if (r != net::IoResult::kTimeout) return;
      // No frame within a slice: the connection has gone idle. The first
      // such slice gives the big buffers back; later ones find nothing.
      release_oversized_buffers();
    }

    // Frame phase: once the first byte is here, the whole frame (header +
    // body) must land within read_deadline_ms — the slow-loris bound. A
    // timeout gets no response (the peer is stalled, not confused) and
    // closes the connection.
    const uint64_t frame_start_us = obs::NowMicros();
    const net::Deadline frame_deadline =
        net::Deadline::AfterMs(options_.read_deadline_ms);
    const net::Deadline write_deadline =
        net::Deadline::AfterMs(options_.write_deadline_ms);
    char header[kWireHeaderSize];
    net::IoResult io =
        net::ReadFullDeadline(fd, header, sizeof(header), frame_deadline);
    if (io == net::IoResult::kTimeout) {
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (io != net::IoResult::kOk) return;

    WireOp op = WireOp::kQueryBatch;
    uint64_t request_id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    std::string frame_error;
    uint32_t frame_version = 0;
    bool header_ok = DecodeFrameHeader(
        std::string_view(header, sizeof(header)), &op, &request_id,
        &body_size, &checksum, &frame_error, options_.max_body_bytes,
        &frame_version);
    if (header_ok && conn_version != 0 && frame_version != conn_version) {
      header_ok = false;
      frame_error = "protocol version changed mid-connection";
    }
    if (!header_ok) {
      // Echo whatever sits in the request-id and op slots (when the op is
      // at least a known code) so a client can still correlate the
      // failure and decode the diagnostic; the stream framing is
      // untrustworthy now, so close after responding.
      std::memcpy(&request_id, header + 12, sizeof(request_id));
      uint32_t raw_op = 0;
      std::memcpy(&raw_op, header + 8, sizeof(raw_op));
      const WireOp echo_op =
          raw_op >= static_cast<uint32_t>(WireOp::kQueryBatch) &&
                  raw_op <= static_cast<uint32_t>(WireOp::kMetrics)
              ? static_cast<WireOp>(raw_op)
              : WireOp::kQueryBatch;
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      errors_returned_.fetch_add(1, std::memory_order_relaxed);
      const std::string resp = EncodeFrame(
          echo_op, request_id,
          EncodeErrorBody(WireStatus::kMalformedFrame, frame_error),
          conn_version != 0 ? conn_version : kWireProtocolV1);
      net::WriteFullDeadline(fd, resp.data(), resp.size(), write_deadline);
      ::shutdown(fd, SHUT_WR);  // flush response + FIN before the drain
      uint64_t claimed_body = 0;
      std::memcpy(&claimed_body, header + 20, sizeof(claimed_body));
      DrainPending(fd,
                   std::min<uint64_t>(claimed_body, options_.max_body_bytes),
                   /*deadline_ms=*/2000);
      return;
    }

    if (conn_version == 0) conn_version = frame_version;

    io = ReadBodyChunked(fd, body_size, frame_deadline, &body);
    if (io == net::IoResult::kTimeout) {
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (io != net::IoResult::kOk) return;
    if (!VerifyFrameBody(body, checksum, conn_version, &frame_error)) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      errors_returned_.fetch_add(1, std::memory_order_relaxed);
      const std::string resp = EncodeFrame(
          op, request_id,
          EncodeErrorBody(WireStatus::kMalformedFrame, frame_error),
          conn_version);
      net::WriteFullDeadline(fd, resp.data(), resp.size(), write_deadline);
      // Same write-then-drain-then-close treatment as the header path: a
      // pipelined next frame sitting unread in the receive buffer would
      // otherwise turn our close into an RST that destroys the response.
      ::shutdown(fd, SHUT_WR);
      DrainPending(fd, options_.max_body_bytes, /*deadline_ms=*/2000);
      return;
    }

    frames_received_.fetch_add(1, std::memory_order_relaxed);
    // There is no queue: a frame goes from verified straight into
    // dispatch, so kStageQueueWait stays 0 and every stage still gets one
    // sample per frame.
    obs::FrameTrace trace;
    trace.request_id = request_id;
    trace.stage_us[obs::kStageRead] = obs::NowMicros() - frame_start_us;
    DispatchFrame(op, body, &scratch, &trace);
    const std::string& resp_body = scratch.response_body;
    char resp_header[kWireHeaderSize];
    EncodeFrameHeaderTo(op, request_id, resp_body, resp_header, conn_version);
    const uint64_t write_start_us = obs::NowMicros();
    io = net::WriteFull2Deadline(fd, resp_header, sizeof(resp_header),
                                 resp_body.data(), resp_body.size(),
                                 write_deadline);
    if (io == net::IoResult::kTimeout) {
      // A peer that stopped reading its own response pins the handler
      // just like a slow-loris sender; count it under the same umbrella.
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (io != net::IoResult::kOk) return;
    trace.stage_us[obs::kStageWrite] = obs::NowMicros() - write_start_us;
    metrics_.OnFrameDone(trace);
    if (!scratch.request.queries_nd.empty()) {
      // N-d boxes own per-box heap storage; don't retain them at all.
      std::vector<BoxNd>().swap(scratch.request.queries_nd);
    }
  }
}

#else  // _WIN32

bool QueryServer::Start(std::string* error) {
  if (error != nullptr) {
    *error = "QueryServer requires POSIX sockets on this platform";
  }
  return false;
}

void QueryServer::Shutdown() {}
bool QueryServer::Shutdown(const DrainOptions&) { return true; }
bool QueryServer::DoShutdown(int) { return true; }
void QueryServer::AcceptLoop() {}
void QueryServer::HandleConnection(int) {}
void QueryServer::ServeFrames(int) {}
void QueryServer::ShedConnection(int) {}
void QueryServer::ReapFinishedThreads() {}

#endif  // _WIN32

void QueryServer::DispatchFrame(WireOp op, const std::string& body,
                                ConnectionScratch* scratch,
                                obs::FrameTrace* trace) {
  // Counted at dispatch entry, not exit, so a METRICS frame's own request
  // is already in the snapshot it serves.
  metrics_.OnRequest(static_cast<uint32_t>(op),
                     kWireHeaderSize + body.size());
  if (trace != nullptr) trace->op = static_cast<uint32_t>(op);
  WireStatus status = WireStatus::kOk;
  std::string& response_body = scratch->response_body;
  response_body.clear();
  switch (op) {
    case WireOp::kQueryBatch: {
      QueryBatchRequest& req = scratch->request;
      std::string error;
      // The decoder enforces max_batch_queries at the count field, so an
      // over-limit batch is rejected before its queries are parsed. It
      // decodes into the connection's reused request object, so a steady
      // stream of similar batches parses allocation-free.
      const uint64_t decode_start_us = obs::NowMicros();
      WireStatus reject = WireStatus::kMalformedRequest;
      if (!DecodeQueryBatchRequest(body, &req, &error,
                                   options_.max_batch_queries, &reject)) {
        if (trace != nullptr) {
          trace->stage_us[obs::kStageDecode] =
              obs::NowMicros() - decode_start_us;
        }
        status = reject;
        response_body = EncodeErrorBody(status, error);
        break;
      }
      const uint64_t engine_start_us = obs::NowMicros();
      if (trace != nullptr) {
        trace->stage_us[obs::kStageDecode] =
            engine_start_us - decode_start_us;
        trace->queries = static_cast<uint32_t>(
            std::min<size_t>(req.count(), UINT32_MAX));
        trace->SetDataset(req.name);
      }
      std::vector<double>& answers = scratch->answers;
      answers.resize(req.count());
      uint64_t version = 0;
      const CatalogStatus catalog_status =
          req.dims == 2
              ? catalog_->AnswerBatch(*engine_, req.name, req.queries,
                                      answers, &version)
              : catalog_->AnswerBatchNd(*engine_, req.name, req.dims,
                                        req.queries_nd, answers, &version);
      const uint64_t encode_start_us = obs::NowMicros();
      if (trace != nullptr) {
        trace->stage_us[obs::kStageEngine] =
            encode_start_us - engine_start_us;
      }
      metrics_.OnBatch(req.name, req.count(),
                       encode_start_us - engine_start_us,
                       catalog_status != CatalogStatus::kOk);
      switch (catalog_status) {
        case CatalogStatus::kOk:
          batches_answered_.fetch_add(1, std::memory_order_relaxed);
          queries_answered_.fetch_add(req.count(),
                                      std::memory_order_relaxed);
          EncodeQueryBatchOkBodyTo(version, answers, &response_body);
          break;
        case CatalogStatus::kNotFound:
          status = WireStatus::kNotFound;
          response_body = EncodeErrorBody(
              status, "no published synopsis named '" + req.name + "'");
          break;
        case CatalogStatus::kWrongDims:
          status = WireStatus::kWrongDims;
          response_body = EncodeErrorBody(
              status, "'" + req.name + "' does not serve " +
                          std::to_string(req.dims) + "-d queries");
          break;
      }
      if (trace != nullptr) {
        trace->stage_us[obs::kStageEncode] =
            obs::NowMicros() - encode_start_us;
      }
      break;
    }
    case WireOp::kListSynopses:
    case WireOp::kStats:
    case WireOp::kReload:
    case WireOp::kHealth:
    case WireOp::kMetrics: {
      // These ops carry no request payload; enforcing that keeps protocol
      // v1 strict instead of silently committing to ignore-trailing-bytes
      // semantics.
      const uint64_t handle_start_us = obs::NowMicros();
      if (!body.empty()) {
        status = WireStatus::kMalformedRequest;
        response_body = EncodeErrorBody(status, "request body must be empty");
      } else if (op == WireOp::kListSynopses) {
        response_body = EncodeListOkBody(catalog_->List());
      } else if (op == WireOp::kStats) {
        response_body = EncodeStatsOkBody(StatsSnapshot());
      } else if (op == WireOp::kHealth) {
        response_body = EncodeHealthOkBody(health(), active_connections());
      } else if (op == WireOp::kMetrics) {
        response_body =
            EncodeMetricsOkBody(StatsSnapshot(), MetricsSnapshotNow());
      } else {
        const size_t installed = catalog_->ReloadAll(nullptr);
        RecordReloads(installed);
        response_body = EncodeReloadOkBody(installed);
      }
      // Bodyless ops have no decode/encode split worth separating; the
      // whole handling lands in the engine stage.
      if (trace != nullptr) {
        trace->stage_us[obs::kStageEngine] =
            obs::NowMicros() - handle_start_us;
      }
      break;
    }
  }
  if (status != WireStatus::kOk) {
    errors_returned_.fetch_add(1, std::memory_order_relaxed);
  }
  metrics_.OnResponse(static_cast<uint32_t>(op),
                      kWireHeaderSize + response_body.size(),
                      status != WireStatus::kOk);
}

}  // namespace dpgrid
