#include "util/line_server.hpp"

#include <chrono>
#include <utility>

namespace wdag::util {
namespace {

using Clock = std::chrono::steady_clock;

/// Accept / read poll tick: the stop flag is noticed within one tick.
constexpr int kTickMs = 200;

}  // namespace

LineServer::LineServer(LineServerOptions options, LineHandler on_line,
                       AcceptHook on_accept)
    : options_(std::move(options)),
      on_line_(std::move(on_line)),
      on_accept_(std::move(on_accept)),
      listener_(TcpListener::listen(options_.host, options_.port)) {}

void LineServer::run() {
  while (!stopping()) {
    if (options_.external_stop && options_.external_stop()) break;
    auto conn = listener_.accept(kTickMs);
    sessions_.remove_if([](Session& s) {
      if (!s.finished.load(std::memory_order_acquire)) return false;
      s.thread.join();
      return true;
    });
    if (!conn) continue;
    // After the reap the list holds the live sessions: the cap's gauge.
    const bool admitted = options_.max_connections == 0 ||
                          sessions_.size() < options_.max_connections;
    if (on_accept_) on_accept_(*conn, admitted);
    if (!admitted) continue;
    Session& session = sessions_.emplace_back();
    session.thread = std::thread(&LineServer::session_loop, this,
                                 std::move(*conn), std::ref(session.finished));
  }
  request_stop();
  for (Session& session : sessions_) session.thread.join();
  sessions_.clear();
}

void LineServer::session_loop(TcpConn conn, std::atomic<bool>& finished) {
  const std::chrono::duration<double, std::milli> idle_limit(
      options_.idle_timeout_ms);
  std::string line;
  auto last_activity = Clock::now();
  while (!stopping()) {
    const ReadStatus status = conn.read_line(line, kTickMs);
    if (status == ReadStatus::kClosed) break;
    if (status == ReadStatus::kTimeout) {
      // A silent client (or a peer gone without a FIN) frees its thread.
      if (options_.idle_timeout_ms > 0.0 &&
          Clock::now() - last_activity > idle_limit) {
        break;
      }
      continue;
    }
    if (line.empty()) continue;
    last_activity = Clock::now();
    if (!on_line_(conn, line)) break;
  }
  finished.store(true, std::memory_order_release);
}

}  // namespace wdag::util
