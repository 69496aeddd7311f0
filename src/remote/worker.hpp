#pragma once
// The `wdag worker` process: one long-lived remote executor of shard
// attempts, the peer of core::TcpTransport (core/transport.hpp documents
// the wire protocol).
//
// Thread shape: util::LineServer (shared with `wdag serve`) runs one
// session thread per open connection reading newline-delimited JSON
// requests; this class handles the lines, with no session cap.
// A "ping" control line is answered in-line by the session (so health
// probes stay live while shards execute); any other line IS a shard
// manifest — parse_manifest re-verifies its recorded plan/request hashes,
// the embedded api::Engine runs the shard through the exact
// Engine::run_shard path `wdag shard run` uses, and the produced shard
// CSV is validated through read_shard_csv BEFORE a byte leaves the box:
// a worker never ships output it cannot vouch for. The response is a
// one-line header carrying the payload length and FNV-1a checksum,
// followed by the raw payload bytes.
//
// Engine access is serialized by a mutex: one persistent engine keeps
// arenas warm and its cost model learning across shards (parallelism
// lives inside the engine's pool), while ping sessions stay responsive.
//
// Fault hooks (ShardWorkerHooks, env-read via from_env in the CLI, set
// directly by tests) inject the remote failure modes the drive loop must
// absorb: a refused shard, a connection dropped mid-payload, a corrupted
// payload (checksum mismatch at the driver), delayed heartbeats (probe
// misses -> unhealthy -> recovery), and a stalled first request (an
// in-flight attempt to re-dispatch when the worker goes unhealthy).
//
// INTERNAL header: not part of the public surface.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "core/batch.hpp"
#include "util/line_server.hpp"

namespace wdag::remote {

/// Fault-injection knobs of one worker. Each fires at most once (the
/// heartbeat hook: `slow_heartbeat_count` times), so the drive's retry /
/// re-probe machinery always gets a healthy path afterwards.
struct ShardWorkerHooks {
  /// Respond {"ok":false} to the first request for this shard.
  std::optional<std::size_t> fail_shard;
  /// Close the connection halfway through this shard's payload, once.
  std::optional<std::size_t> drop_conn_shard;
  /// Flip a payload byte AFTER the checksum is computed, once — the
  /// driver must reject the transfer exactly like a crashed attempt.
  std::optional<std::size_t> corrupt_shard;
  /// Delay the first `slow_heartbeat_count` pings by `slow_heartbeat_ms`
  /// each (longer than the prober's timeout = consecutive probe misses).
  std::size_t slow_heartbeat_count = 0;
  int slow_heartbeat_ms = 0;
  /// Stall the FIRST shard request this many ms before executing it.
  int stall_first_ms = 0;

  /// Reads WDAG_WORKER_FAIL_SHARD / WDAG_WORKER_DROP_CONN /
  /// WDAG_WORKER_CORRUPT_PAYLOAD (shard index each),
  /// WDAG_WORKER_SLOW_HEARTBEAT ("count:ms") and WDAG_WORKER_STALL_MS
  /// from the environment — the CLI's hookup.
  [[nodiscard]] static ShardWorkerHooks from_env();
};

/// Construction knobs of one worker (CLI flags of `wdag worker`).
struct ShardWorkerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Engine pool threads; 0 = hardware concurrency.
  std::size_t engine_threads = 0;
  /// Scheduler of every shard run (execution knob; never changes bytes).
  core::Schedule schedule = core::Schedule::kFixed;
  /// Close a session after this long without a complete request line;
  /// 0 disables.
  double idle_timeout_ms = 0.0;
  ShardWorkerHooks hooks;
  /// Polled by the accept loop every tick; return true to shut down.
  std::function<bool()> external_stop;
};

class ShardWorker {
 public:
  /// Binds and listens immediately — port() is reachable before run()
  /// starts. Throws wdag::InternalError on bind failure.
  explicit ShardWorker(ShardWorkerOptions options);

  /// Joins everything; safe after run() returned or never ran.
  ~ShardWorker() = default;

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return core_.port(); }

  /// Serves until request_stop() / the external stop hook fires.
  void run() { core_.run(); }
  /// run() on an internal thread (tests drive the worker this way).
  void start() { core_.start(); }
  void request_stop() { core_.request_stop(); }
  /// Joins the start() thread (no-op without start()).
  void join() { core_.join(); }

  [[nodiscard]] std::size_t shards_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t shards_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pings_answered() const {
    return pings_.load(std::memory_order_relaxed);
  }

 private:
  // Each returns false when the session must close.
  bool handle_line(util::TcpConn& conn, const std::string& line);
  bool answer_ping(util::TcpConn& conn);
  bool serve_manifest(util::TcpConn& conn, const std::string& line);
  /// Sleeps `ms` in short ticks, returning early on stop.
  void interruptible_sleep(int ms);

  ShardWorkerOptions options_;
  api::Engine engine_;
  std::mutex engine_mutex_;  ///< one shard runs at a time per engine

  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> pings_{0};
  std::atomic<std::size_t> busy_{0};  ///< live shard runs (pong's "busy")

  // One-shot hook state.
  std::atomic<bool> fail_fired_{false};
  std::atomic<bool> drop_fired_{false};
  std::atomic<bool> corrupt_fired_{false};
  std::atomic<bool> stall_fired_{false};
  std::atomic<std::size_t> slow_pings_left_{0};

  util::LineServer core_;
};

}  // namespace wdag::remote
