#ifndef DPGRID_SERVER_SOCKET_IO_H_
#define DPGRID_SERVER_SOCKET_IO_H_

// POSIX socket helpers shared by the server and the client: deadline-
// aware full-buffer reads/writes that survive short transfers and EINTR,
// and a timeout-capable TCP connect. Writes use MSG_NOSIGNAL so a peer
// closing mid-write surfaces as an error return instead of SIGPIPE
// killing the process.
//
// The transfer loops are optimistic: they issue the recv/send with
// MSG_DONTWAIT first and only fall back to poll() when the socket would
// block, so the steady-state hot path (data already buffered) costs the
// same single syscall as a plain blocking read — the deadline machinery
// is free until a peer actually stalls.
//
// Every syscall routes through the fault-injection seam
// (fault_injection.h): a no-op relaxed atomic load in production, a
// deterministic failure source in tests.

#ifndef _WIN32

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <string>

#include "server/fault_injection.h"

namespace dpgrid {
namespace net {

/// Outcome of a deadline-aware transfer.
enum class IoResult {
  kOk,
  /// Peer closed cleanly before the transfer completed (reads only).
  kEof,
  /// The deadline expired with the transfer incomplete.
  kTimeout,
  /// Socket error (ECONNRESET, EPIPE, ...).
  kError,
};

/// A point in time a transfer must finish by. Deadline::None() never
/// expires; AfterMs(ms) expires `ms` milliseconds from construction
/// (ms <= 0 also means "no deadline", matching the options structs where
/// 0 disables a knob).
class Deadline {
 public:
  static Deadline None() { return Deadline(); }
  static Deadline AfterMs(int ms) {
    Deadline d;
    if (ms > 0) {
      d.infinite_ = false;
      d.at_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(ms);
    }
    return d;
  }

  bool infinite() const { return infinite_; }
  bool expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Milliseconds until expiry, clamped to >= 0; -1 when infinite (the
  /// value poll() expects for "wait forever"). Rounds up while unexpired:
  /// truncating toward zero would turn the final sub-millisecond window
  /// into poll(fd, 0) — a busy-spin until the clock crosses the deadline.
  int remaining_ms() const {
    if (infinite_) return -1;
    const auto now = std::chrono::steady_clock::now();
    if (now >= at_) return 0;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(at_ - now);
    return static_cast<int>(left.count());
  }

 private:
  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_{};
};

// --- syscall wrappers (the fault-injection seam) ---------------------------

inline ssize_t RecvRaw(int fd, void* buf, size_t n, int flags) {
  if (fault::Armed()) {
    ssize_t out = 0;
    if (fault::InjectRecv(fd, buf, n, &out)) return out;
  }
  return ::recv(fd, buf, n, flags);
}

inline ssize_t SendRaw(int fd, const void* buf, size_t n, int flags) {
  if (fault::Armed()) {
    ssize_t out = 0;
    if (fault::InjectSend(fd, buf, n, &out)) return out;
  }
  return ::send(fd, buf, n, flags);
}

inline int PollRaw(int fd, short events, int timeout_ms) {
  if (fault::Armed()) {
    int out = 0;
    if (fault::InjectPoll(fd, events, timeout_ms, &out)) return out;
  }
  pollfd p{};
  p.fd = fd;
  p.events = events;
  return ::poll(&p, 1, timeout_ms);
}

/// Waits until `fd` is ready for `events` (POLLIN/POLLOUT) or `deadline`
/// expires. kOk also covers POLLHUP/POLLERR readiness — the following
/// recv/send reports the actual condition. An EINTR restart re-polls with
/// only the time that is left, never the original budget: restarting with
/// a fixed timeout would let a signal storm extend the wait unboundedly.
inline IoResult WaitFdUntil(int fd, short events, const Deadline& deadline) {
  while (true) {
    const int rc = PollRaw(fd, events, deadline.remaining_ms());
    if (rc > 0) return IoResult::kOk;
    if (rc == 0) return IoResult::kTimeout;
    if (errno != EINTR) return IoResult::kError;
    if (deadline.expired()) return IoResult::kTimeout;
  }
}

/// Waits until `fd` is ready for `events` (POLLIN/POLLOUT) or `timeout_ms`
/// elapses (-1 waits forever, 0 checks once). Finite timeouts convert to a
/// fixed deadline up front so EINTR cannot stretch them.
inline IoResult WaitFd(int fd, short events, int timeout_ms) {
  if (timeout_ms > 0) {
    return WaitFdUntil(fd, events, Deadline::AfterMs(timeout_ms));
  }
  while (true) {
    const int rc = PollRaw(fd, events, timeout_ms);
    if (rc > 0) return IoResult::kOk;
    if (rc == 0) return IoResult::kTimeout;
    if (errno != EINTR) return IoResult::kError;
  }
}

// --- deadline-aware full transfers -----------------------------------------

/// Reads exactly `n` bytes or reports why it could not.
inline IoResult ReadFullDeadline(int fd, void* buf, size_t n,
                                 const Deadline& deadline) {
  char* p = static_cast<char*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = RecvRaw(fd, p + done, n - done, MSG_DONTWAIT);
    if (r > 0) {
      done += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) return IoResult::kEof;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoResult::kError;
    if (deadline.expired()) return IoResult::kTimeout;
    const IoResult w = WaitFdUntil(fd, POLLIN, deadline);
    if (w == IoResult::kError) return w;
    if (w == IoResult::kTimeout) return IoResult::kTimeout;
  }
  return IoResult::kOk;
}

/// Writes exactly `n` bytes or reports why it could not. Never raises
/// SIGPIPE.
inline IoResult WriteFullDeadline(int fd, const void* buf, size_t n,
                                  const Deadline& deadline) {
  const char* p = static_cast<const char*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t w =
        SendRaw(fd, p + done, n - done, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      done += static_cast<size_t>(w);
      continue;
    }
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return IoResult::kError;
    }
    // send() == 0 makes no progress; treating it as progress would spin
    // forever under a fault-injected zero-length send, so it falls through
    // to the wait-for-POLLOUT path alongside EAGAIN.
    if (deadline.expired()) return IoResult::kTimeout;
    const IoResult r = WaitFdUntil(fd, POLLOUT, deadline);
    if (r == IoResult::kError) return r;
    if (r == IoResult::kTimeout) return IoResult::kTimeout;
  }
  return IoResult::kOk;
}

/// Writes two buffers back to back (gathered, one syscall per sendmsg) —
/// the frame-header + payload shape, without concatenating the payload
/// into a new string. Under fault injection the gather degrades to two
/// sequential sends so the send hook sees every byte.
inline IoResult WriteFull2Deadline(int fd, const void* a, size_t an,
                                   const void* b, size_t bn,
                                   const Deadline& deadline) {
  if (fault::Armed()) {
    const IoResult r = WriteFullDeadline(fd, a, an, deadline);
    return r == IoResult::kOk ? WriteFullDeadline(fd, b, bn, deadline) : r;
  }
  iovec iov[2] = {{const_cast<void*>(a), an}, {const_cast<void*>(b), bn}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  size_t total = an + bn;
  while (total > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w <= 0) {  // 0 is no progress, same as EAGAIN (see WriteFullDeadline)
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        return IoResult::kError;
      }
      if (deadline.expired()) return IoResult::kTimeout;
      const IoResult r = WaitFdUntil(fd, POLLOUT, deadline);
      if (r == IoResult::kError) return r;
      if (r == IoResult::kTimeout) return IoResult::kTimeout;
      continue;
    }
    total -= static_cast<size_t>(w);
    // Advance the iovec past the bytes just sent.
    size_t sent = static_cast<size_t>(w);
    while (sent > 0 && msg.msg_iovlen > 0) {
      if (sent >= msg.msg_iov[0].iov_len) {
        sent -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        msg.msg_iovlen -= 1;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<char*>(msg.msg_iov[0].iov_base) + sent;
        msg.msg_iov[0].iov_len -= sent;
        sent = 0;
      }
    }
  }
  return IoResult::kOk;
}

// --- legacy no-deadline forms ----------------------------------------------

/// Reads exactly `n` bytes; false on EOF or error.
inline bool ReadFull(int fd, void* buf, size_t n) {
  return ReadFullDeadline(fd, buf, n, Deadline::None()) == IoResult::kOk;
}

/// Writes exactly `n` bytes; false on error. Never raises SIGPIPE.
inline bool WriteFull(int fd, const void* buf, size_t n) {
  return WriteFullDeadline(fd, buf, n, Deadline::None()) == IoResult::kOk;
}

/// Disables Nagle's algorithm: the protocol is request/response with
/// whole frames per write, so coalescing only adds latency. Returns false
/// when the option cannot be set (a dead or bogus fd) so callers can shed
/// the connection instead of serving it silently degraded.
inline bool SetNoDelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

/// TCP connect to host:port (numeric or resolvable name) with an optional
/// per-candidate timeout. Returns the connected fd, or -1 with *error set.
///
/// `connect_timeout_ms` <= 0 waits however long the kernel does. With a
/// timeout, the connect runs non-blocking (connect + poll) and a candidate
/// address that times out is abandoned in favour of the NEXT addrinfo
/// result — a half-dead dual-stack host does not consume the whole budget
/// on its first unreachable address family.
inline int ConnectTcp(const std::string& host, uint16_t port,
                      std::string* error, int connect_timeout_ms = -1) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &result);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot resolve " + host + ": " + ::gai_strerror(rc);
    }
    return -1;
  }
  int fd = -1;
  std::string last_failure = "no addresses";
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_failure = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    const bool nonblock =
        connect_timeout_ms > 0 && flags >= 0 &&
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
    int crc;
    if (fault::Armed() && fault::InjectConnect(fd, &crc)) {
      // injected outcome
    } else {
      crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    }
    bool connected = crc == 0;
    if (!connected && nonblock && errno == EINPROGRESS) {
      const IoResult w = WaitFd(fd, POLLOUT, connect_timeout_ms);
      if (w == IoResult::kOk) {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        connected = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) ==
                        0 &&
                    so_error == 0;
        if (!connected) errno = so_error != 0 ? so_error : errno;
      } else if (w == IoResult::kTimeout) {
        errno = ETIMEDOUT;
      }
    }
    if (connected && nonblock) {
      connected = ::fcntl(fd, F_SETFL, flags) == 0;
    }
    if (connected && !SetNoDelay(fd)) {
      last_failure = std::string("setsockopt(TCP_NODELAY): ") +
                     std::strerror(errno);
      connected = false;
    } else if (!connected) {
      last_failure = std::strerror(errno);
    }
    if (connected) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0 && error != nullptr) {
    *error = "cannot connect to " + host + ":" + std::to_string(port) + ": " +
             last_failure;
  }
  return fd;
}

}  // namespace net
}  // namespace dpgrid

#endif  // !_WIN32

#endif  // DPGRID_SERVER_SOCKET_IO_H_
