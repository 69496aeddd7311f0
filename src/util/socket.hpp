#pragma once
// Minimal TCP primitives: a listener with a poll-based interruptible
// accept (under util::LineServer, the server core of serve and worker),
// and a connection wrapper speaking newline-delimited lines. Every socket
// is close-on-exec, so spawned children never inherit one. POSIX-only,
// like util/subprocess.hpp; elsewhere a clear wdag::InternalError.
//
// Blocking calls take a timeout so loops stay interruptible: the server's
// accept and read loops poll in short ticks and check their stop flags
// between ticks, which is how SIGINT/SIGTERM drain cleanly without
// async-signal trickery.
//
// SIGPIPE discipline: ignore_sigpipe() flips the process-wide disposition
// (the CLI entry point calls it first thing), and every send additionally
// passes MSG_NOSIGNAL where available — a client that disconnects
// mid-response turns into a failed write, never a dead process.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace wdag::util {

/// Ignores SIGPIPE process-wide (idempotent; no-op on platforms without
/// it). After this, writing to a closed pipe or socket fails with EPIPE
/// instead of killing the process.
void ignore_sigpipe();

/// Outcome of a line read with a timeout.
enum class ReadStatus {
  kLine,     ///< a full line was read into the out parameter
  kTimeout,  ///< no full line arrived within the timeout
  kClosed,   ///< the peer closed (or the connection errored) mid-stream
};

/// One TCP connection speaking '\n'-delimited lines (plus raw
/// length-prefixed payloads via read_exact). Move-only; the destructor
/// closes the socket.
class TcpConn {
 public:
  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1") with a
  /// bounded dial: non-blocking connect + poll, so a blackholed peer
  /// costs at most `connect_timeout_ms` instead of the kernel's
  /// minutes-long SYN retry ladder. Throws wdag::InternalError when the
  /// connection cannot be made (including on timeout).
  static TcpConn connect(const std::string& host, int port,
                         int connect_timeout_ms = 10'000);

  TcpConn() = default;
  TcpConn(TcpConn&& other) noexcept;
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;
  ~TcpConn();

  /// Reads until '\n' (consumed, not returned) or `timeout_ms` elapses.
  /// Lines longer than max_line() count as kClosed — a peer that streams
  /// an unbounded "line" must not buffer unbounded memory here (the same
  /// bounded-buffering discipline as the admission queue).
  ReadStatus read_line(std::string& line, int timeout_ms);

  /// Appends raw bytes to `out` until it holds `total` bytes, draining
  /// any bytes already buffered past the last read_line first (a header
  /// line and its payload may arrive in one segment). Returns kLine once
  /// out.size() == total, kTimeout when one poll wait expires with the
  /// payload still short (partial progress is kept in `out`, so callers
  /// tick in a loop and stay cancellable), kClosed when the peer closes
  /// mid-payload.
  ReadStatus read_exact(std::string& out, std::size_t total, int timeout_ms);

  /// Writes all of `data`; returns false when the peer is gone
  /// (EPIPE/ECONNRESET) instead of throwing — a vanished client is an
  /// expected event for a server, not an error.
  bool write_all(std::string_view data);

  /// Writes `line` plus '\n'.
  bool write_line(std::string_view line);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  void close();

  /// Longest accepted input line in bytes.
  [[nodiscard]] static constexpr std::size_t max_line() { return 1 << 20; }

 private:
  friend class TcpListener;
  explicit TcpConn(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
};

/// A listening TCP socket. Move-only; the destructor closes it.
class TcpListener {
 public:
  /// Binds and listens on host:port; port 0 picks an ephemeral port
  /// (read it back with port()). Throws wdag::InternalError on failure
  /// (address in use, no such address, non-POSIX platform).
  static TcpListener listen(const std::string& host, int port);

  TcpListener() = default;
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// Accepts one connection, waiting at most `timeout_ms`; nullopt on
  /// timeout so callers can check their stop flag and come back.
  std::optional<TcpConn> accept(int timeout_ms);

  /// The bound port (the real one when listen() was given port 0).
  [[nodiscard]] int port() const { return port_; }

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace wdag::util
