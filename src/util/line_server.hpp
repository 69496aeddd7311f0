#pragma once
// The one TCP server core behind `wdag serve` and `wdag worker`: one
// thread per session reading newline-delimited request lines, since a
// handler may block for long (a serve job, a worker shard). Each
// finished session is joined at the next accept or accept tick, so live
// threads, and their stacks, track open connections.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>

#include "util/socket.hpp"

namespace wdag::util {

/// The fields mean what they mean in serve::ServeOptions.
struct LineServerOptions {
  std::string host;
  std::uint16_t port = 0;
  std::size_t max_connections = 0;  ///< 0 = unlimited
  double idle_timeout_ms = 0.0;     ///< 0 = never
  std::function<bool()> external_stop;
};

class LineServer {
 public:
  /// Answers one non-empty request line, on the session's thread;
  /// returning false ends the session. Must not throw.
  using LineHandler =
      std::function<bool(TcpConn& conn, const std::string& line)>;
  /// Sees each accepted connection on the accept thread, with whether
  /// the session cap admitted it; a refused one is closed after.
  using AcceptHook = std::function<void(TcpConn& conn, bool admitted)>;

  /// Binds at once, so port() is reachable before run(). Throws
  /// wdag::InternalError on bind failure.
  LineServer(LineServerOptions options, LineHandler on_line,
             AcceptHook on_accept = {});
  ~LineServer() {
    request_stop();
    join();
  }
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  [[nodiscard]] std::uint16_t port() const {
    return static_cast<std::uint16_t>(listener_.port());
  }

  /// Accepts until request_stop() or the external hook fires; returns
  /// once every session has finished its current request and exited.
  void run();
  /// run() on an internal thread; join() waits for it.
  void start() { run_thread_ = std::thread(&LineServer::run, this); }
  void join() {
    if (run_thread_.joinable()) run_thread_.join();
  }

  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  /// True once shutdown began; handlers poll it to refuse new work.
  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void session_loop(TcpConn conn, std::atomic<bool>& finished);

  LineServerOptions options_;
  LineHandler on_line_;
  AcceptHook on_accept_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  /// Accept thread only; a list keeps each `finished` flag in place.
  std::list<Session> sessions_;
  std::thread run_thread_;
};

}  // namespace wdag::util
