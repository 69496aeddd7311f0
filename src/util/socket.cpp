#include "util/socket.hpp"

#include <utility>

#include "util/check.hpp"

namespace wdag::util {

// Ownership is platform-neutral; close() and the I/O are per platform.
TcpConn::TcpConn(TcpConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

TcpConn::~TcpConn() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

TcpListener::~TcpListener() { close(); }

}  // namespace wdag::util

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
#ifndef SOCK_CLOEXEC
#define SOCK_CLOEXEC 0
#endif

namespace wdag::util {

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw InternalError(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw InvalidArgument("not a numeric IPv4 address: '" + host + "'");
  }
  return addr;
}

/// Waits for the given poll events with a deadline that survives EINTR:
/// an interrupted poll resumes with the remaining time, so a stray
/// signal never silently shortens (or un-bounds) the wait. True when
/// the fd is ready within the timeout.
bool wait_for(int fd, short events, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  pollfd p{};
  p.fd = fd;
  p.events = events;
  int remaining = timeout_ms;
  for (;;) {
    const int rc = ::poll(&p, 1, remaining);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
    if (timeout_ms < 0) continue;  // infinite wait: just retry
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    remaining = static_cast<int>(left.count());
    if (remaining <= 0) return false;
  }
}

/// Waits for readability; true when the fd is ready within the timeout.
bool wait_readable(int fd, int timeout_ms) {
  return wait_for(fd, POLLIN, timeout_ms);
}

// Every socket is close-on-exec, so no spawned child (a local `shard
// run` slot beside remote workers) inherits a connection. cloexec() sets
// the flag where SOCK_CLOEXEC could not (F_SETFD fails only on a bad fd).
int cloexec(int fd) {
  if (SOCK_CLOEXEC == 0 && fd >= 0) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

}  // namespace

// --- TcpConn ---------------------------------------------------------------

TcpConn TcpConn::connect(const std::string& host, int port,
                         int connect_timeout_ms) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = cloexec(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd < 0) fail_errno("socket()");
  const std::string where = host + ":" + std::to_string(port);
  const auto fail_with = [&](int err, const std::string& what) -> void {
    ::close(fd);
    errno = err;
    fail_errno(what + " " + where);
  };
  // Non-blocking connect + poll: ::connect on a blocking socket has no
  // timeout knob, and a blackholed peer would park the dialer for the
  // kernel's full SYN retry ladder (minutes).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail_with(errno, "fcntl(O_NONBLOCK) dialing");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      fail_with(errno, "cannot connect to");
    }
    if (!wait_for(fd, POLLOUT, connect_timeout_ms)) {
      ::close(fd);
      throw InternalError("connect to " + where + " timed out after " +
                          std::to_string(connect_timeout_ms) + "ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      fail_with(errno, "getsockopt(SO_ERROR) dialing");
    }
    if (err != 0) {
      fail_with(err, "cannot connect to");
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {
    fail_with(errno, "fcntl(restore flags) dialing");
  }
  return TcpConn(fd);
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

ReadStatus TcpConn::read_line(std::string& line, int timeout_ms) {
  if (fd_ < 0) return ReadStatus::kClosed;
  for (;;) {
    // A buffered full line is served without touching the socket, so
    // pipelined requests drain before the next recv.
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return ReadStatus::kLine;
    }
    if (buffer_.size() > max_line()) return ReadStatus::kClosed;
    if (!wait_readable(fd_, timeout_ms)) return ReadStatus::kTimeout;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

ReadStatus TcpConn::read_exact(std::string& out, std::size_t total,
                               int timeout_ms) {
  if (out.size() >= total) return ReadStatus::kLine;
  // Bytes already received past the last returned line belong to the
  // payload — a header line and its payload often share a segment.
  if (!buffer_.empty()) {
    const std::size_t take = std::min(buffer_.size(), total - out.size());
    out.append(buffer_, 0, take);
    buffer_.erase(0, take);
    if (out.size() == total) return ReadStatus::kLine;
  }
  if (fd_ < 0) return ReadStatus::kClosed;
  while (out.size() < total) {
    if (!wait_readable(fd_, timeout_ms)) return ReadStatus::kTimeout;
    char chunk[16384];
    const std::size_t want =
        std::min(total - out.size(), sizeof(chunk));
    const ssize_t n = ::recv(fd_, chunk, want, 0);
    if (n == 0) return ReadStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return ReadStatus::kLine;
}

bool TcpConn::write_all(std::string_view data) {
  if (fd_ < 0) return false;
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: the peer is gone
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool TcpConn::write_line(std::string_view line) {
  std::string out;
  out.reserve(line.size() + 1);
  out.append(line);
  out.push_back('\n');
  return write_all(out);
}

// --- TcpListener -----------------------------------------------------------

TcpListener TcpListener::listen(const std::string& host, int port) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = cloexec(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd < 0) fail_errno("socket()");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("cannot bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 128) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("listen()");
  }
  TcpListener l;
  l.fd_ = fd;
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    l.port_ = ntohs(bound.sin_port);
  } else {
    l.port_ = port;
  }
  return l;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpConn> TcpListener::accept(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if (!wait_readable(fd_, timeout_ms)) return std::nullopt;
#ifdef __linux__
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
#else
  const int fd = cloexec(::accept(fd_, nullptr, nullptr));
#endif
  if (fd < 0) return std::nullopt;
  return TcpConn(fd);
}

}  // namespace wdag::util

#else  // non-POSIX

namespace wdag::util {

void ignore_sigpipe() {}

TcpConn TcpConn::connect(const std::string&, int, int) {
  throw InternalError("TCP sockets require a POSIX platform");
}
void TcpConn::close() { fd_ = -1; }
ReadStatus TcpConn::read_line(std::string&, int) { return ReadStatus::kClosed; }
ReadStatus TcpConn::read_exact(std::string&, std::size_t, int) {
  return ReadStatus::kClosed;
}
bool TcpConn::write_all(std::string_view) { return false; }
bool TcpConn::write_line(std::string_view) { return false; }

TcpListener TcpListener::listen(const std::string&, int) {
  throw InternalError("TCP sockets require a POSIX platform");
}
void TcpListener::close() { fd_ = -1; }
std::optional<TcpConn> TcpListener::accept(int) { return std::nullopt; }

}  // namespace wdag::util

#endif
