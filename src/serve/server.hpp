#pragma once
// The `wdag serve` server: a persistent solve service over newline-
// delimited JSON on TCP (serve/protocol.hpp).
//
// Thread shape:
//
//   util::LineServer (accept loop) --> session thread per connection
//                                        |  parse, admit, wait
//                                        v
//                                  AdmissionQueue (bounded)
//                                        |
//                                        v
//                                  worker thread --> api::Engine
//
// util/line_server.hpp owns the connections; this class handles lines.
//
// ONE worker drains the queue because Engine::run_batch runs one batch
// at a time per engine — parallelism lives inside the engine's pool
// (each solve/batch fans out over its workers), not in concurrent
// drains. The engine persists across requests, so arenas stay warm and
// the cost model keeps learning from every served batch.
//
// Sessions answer "stats" requests directly (never queued): the stats
// path must stay live precisely when the queue is full. Solve/batch
// jobs carry a promise; the session thread blocks on the future, so a
// slow client never occupies the worker — only its own session thread.
//
// Shutdown (SIGINT/SIGTERM via the external stop hook, or
// request_stop()): stop accepting, refuse new requests, and let the
// worker DRAIN the admitted backlog while run() joins the sessions
// (in-flight work completes; drained jobs still get a response); the
// destructor joins the idle worker. Refuse-new + drain-old, never drop.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "api/engine.hpp"
#include "serve/admission.hpp"
#include "serve/stats.hpp"
#include "util/line_server.hpp"

namespace wdag::serve {

/// Server construction knobs (CLI flags of `wdag serve`).
struct ServeOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Admission queue capacity; a full queue rejects, never buffers.
  std::size_t queue_capacity = 64;
  /// Deadline applied to requests that carry none; 0 = no default.
  double default_deadline_ms = 0.0;
  /// Engine pool threads; 0 = hardware concurrency.
  std::size_t engine_threads = 0;
  /// Default solver knobs of the embedded engine.
  core::SolveOptions solve;
  /// Live session cap; 0 = unlimited. A connection accepted while this
  /// many sessions are open is answered one clear wire error
  /// ('rejected: max_connections') and closed — a saturated server
  /// refuses loudly instead of accumulating session threads without
  /// bound.
  std::size_t max_connections = 0;
  /// Close a session after this long without a complete request line;
  /// 0 = never. Bounds the thread cost of idle clients (and of peers
  /// that vanished without a FIN).
  double idle_timeout_ms = 0.0;
  /// Honor "sleep" requests (deterministic queue-occupancy for tests;
  /// production servers leave this off and reject the type).
  bool enable_test_hooks = false;
  /// Polled by the accept loop every tick; return true to initiate
  /// graceful shutdown. The CLI wires the SIGINT/SIGTERM flag in here.
  std::function<bool()> external_stop;
};

class Server {
 public:
  /// Binds and listens immediately — port() is valid (and the port is
  /// reachable) before run() starts, so tests and scripts can connect
  /// the moment the constructor returns. Throws wdag::InternalError on
  /// bind failure.
  explicit Server(ServeOptions options);

  /// Joins everything; safe after run() returned or never ran.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  [[nodiscard]] std::uint16_t port() const { return core_.port(); }

  /// Serves until request_stop() / the external stop hook fires, then
  /// drains and returns. Call from the owning thread (the CLI) or via
  /// start().
  void run() { core_.run(); }

  /// run() on an internal thread (tests drive the server this way).
  void start() { core_.start(); }

  /// Initiates graceful shutdown; run() returns after the drain.
  void request_stop() { core_.request_stop(); }

  /// Joins the start() thread (no-op without start()).
  void join() { core_.join(); }

  [[nodiscard]] const ServeStats& stats() const { return stats_; }

 private:
  void worker_loop();
  /// The response line to one request line (never throws).
  std::string answer(const std::string& line);

  ServeOptions options_;
  api::Engine engine_;
  AdmissionQueue queue_;
  ServeStats stats_;
  std::chrono::steady_clock::time_point started_at_;
  util::LineServer core_;
  std::thread worker_;
};

/// Services ONE admitted job against the engine and returns the response
/// line (never throws; failures become `status: error`). Checks the
/// deadline FIRST: a job that aged out in the queue is rejected without
/// touching the engine. Split out of the worker loop so tests can pin
/// deadline and dispatch behavior without a socket in sight.
[[nodiscard]] std::string service_job(api::Engine& engine, Job& job,
                                      ServeStats& stats,
                                      bool enable_test_hooks);

}  // namespace wdag::serve
