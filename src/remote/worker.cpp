#include "remote/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "api/request.hpp"
#include "api/sink.hpp"
#include "core/json_min.hpp"
#include "core/shard.hpp"
#include "core/transport.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdag::remote {
namespace {

using Clock = std::chrono::steady_clock;

/// Granularity of interruptible hook sleeps.
constexpr int kSleepTickMs = 50;

std::optional<std::size_t> env_shard(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

}  // namespace

ShardWorkerHooks ShardWorkerHooks::from_env() {
  ShardWorkerHooks hooks;
  hooks.fail_shard = env_shard("WDAG_WORKER_FAIL_SHARD");
  hooks.drop_conn_shard = env_shard("WDAG_WORKER_DROP_CONN");
  hooks.corrupt_shard = env_shard("WDAG_WORKER_CORRUPT_PAYLOAD");
  if (const char* v = std::getenv("WDAG_WORKER_SLOW_HEARTBEAT")) {
    char* colon = nullptr;
    hooks.slow_heartbeat_count =
        static_cast<std::size_t>(std::strtoull(v, &colon, 10));
    if (colon != nullptr && *colon == ':') {
      hooks.slow_heartbeat_ms =
          static_cast<int>(std::strtol(colon + 1, nullptr, 10));
    }
  }
  if (const char* v = std::getenv("WDAG_WORKER_STALL_MS")) {
    hooks.stall_first_ms = static_cast<int>(std::strtol(v, nullptr, 10));
  }
  return hooks;
}

ShardWorker::ShardWorker(ShardWorkerOptions options)
    : options_(std::move(options)),
      engine_(api::EngineOptions{options_.engine_threads, {}}),
      core_({options_.host, options_.port, /*max_connections=*/0,
             options_.idle_timeout_ms, options_.external_stop},
            [this](util::TcpConn& conn, const std::string& line) {
              return handle_line(conn, line);
            }) {
  slow_pings_left_.store(options_.hooks.slow_heartbeat_count,
                         std::memory_order_relaxed);
}

void ShardWorker::interruptible_sleep(int ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(ms);
  while (!core_.stopping() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSleepTickMs));
  }
}

bool ShardWorker::handle_line(util::TcpConn& conn, const std::string& line) {
  // A line with a "type" field is a control message; anything else IS
  // a shard manifest (its own format tag is "wdag_shard").
  namespace mj = core::minjson;
  std::optional<std::string> type;
  try {
    const mj::JsonValue v = mj::JsonParser(line, "worker request").parse();
    if (const mj::JsonValue* t = mj::opt_field(v, "type", "worker request")) {
      type = t->kind == mj::JsonValue::Kind::kString ? t->text : "";
    }
  } catch (const std::exception& e) {
    return conn.write_line(core::wire::shard_error_header(e.what()));
  }
  if (!type) return serve_manifest(conn, line);
  if (*type == "ping") return answer_ping(conn);
  return conn.write_line(
      core::wire::shard_error_header("unknown control type '" + *type + "'"));
}

bool ShardWorker::answer_ping(util::TcpConn& conn) {
  // The slow-heartbeat hook simulates a saturated or half-dead box: the
  // first N pings outlive the prober's timeout, so the transport burns
  // its miss budget and marks the worker unhealthy; ping N+1 answers
  // promptly again and the recovery re-probe brings it back.
  if (options_.hooks.slow_heartbeat_ms > 0) {
    std::size_t left = slow_pings_left_.load(std::memory_order_relaxed);
    while (left > 0 && !slow_pings_left_.compare_exchange_weak(
                           left, left - 1, std::memory_order_relaxed)) {
    }
    if (left > 0) interruptible_sleep(options_.hooks.slow_heartbeat_ms);
  }
  pings_.fetch_add(1, std::memory_order_relaxed);
  return conn.write_line(
      core::wire::pong_line(busy_.load(std::memory_order_relaxed)));
}

bool ShardWorker::serve_manifest(util::TcpConn& conn,
                                 const std::string& line) {
  core::ShardManifest manifest;
  try {
    // parse_manifest recomputes and verifies the recorded plan/request
    // hashes — a tampered manifest is refused before any work happens.
    manifest = core::parse_manifest(line);
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return conn.write_line(core::wire::shard_error_header(e.what()));
  }

  if (options_.hooks.stall_first_ms > 0 &&
      !stall_fired_.exchange(true, std::memory_order_relaxed)) {
    interruptible_sleep(options_.hooks.stall_first_ms);
    if (core_.stopping()) return false;
  }
  if (options_.hooks.fail_shard == manifest.shard &&
      !fail_fired_.exchange(true, std::memory_order_relaxed)) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return conn.write_line(core::wire::shard_error_header(
        "injected failure (WDAG_WORKER_FAIL_SHARD) on shard " +
        std::to_string(manifest.shard)));
  }

  util::Timer timer;
  std::string payload;
  std::uint64_t rows = 0;
  busy_.fetch_add(1, std::memory_order_relaxed);
  try {
    std::ostringstream os;
    os << core::shard_csv_header(manifest);
    api::CsvStreamSink sink(os);
    api::BatchRequest request;
    request.generator = api::GeneratorSpec{
        manifest.spec.family, manifest.spec.params, manifest.spec.seed};
    request.count = manifest.spec.count;
    request.options.seed = manifest.spec.seed;
    request.options.index_base = 0;
    request.options.keep_entries = false;
    request.options.schedule = options_.schedule;
    request.solve = manifest.spec.solve;
    if (!manifest.spec.force_strategy.empty()) {
      request.force_strategy = manifest.spec.force_strategy;
    }
    request.sinks.push_back(&sink);
    {
      const std::lock_guard<std::mutex> lock(engine_mutex_);
      (void)engine_.run_shard(request, manifest.shard, manifest.shards,
                              manifest.layout);
    }
    payload = os.str();
    // Validate before a byte leaves the box: the exact read_shard_csv +
    // plan-identity gate the driver applies on arrival.
    std::istringstream in(payload);
    const core::ShardCsv csv = core::read_shard_csv(in, "worker output");
    WDAG_REQUIRE(csv.manifest.plan_id == manifest.plan_id &&
                     csv.manifest.shard == manifest.shard,
                 "worker output does not match the requested shard");
    rows = csv.row_count;
  } catch (const std::exception& e) {
    busy_.fetch_sub(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
    return conn.write_line(core::wire::shard_error_header(e.what()));
  }
  busy_.fetch_sub(1, std::memory_order_relaxed);

  const std::uint64_t checksum = core::fnv1a64(payload);
  // The drop hook takes this request if both hooks aim at the same
  // shard — the corrupt hook stays armed for the retry, so each failure
  // mode is observed on its own attempt.
  const bool drop_now =
      options_.hooks.drop_conn_shard == manifest.shard &&
      !drop_fired_.exchange(true, std::memory_order_relaxed);
  if (!drop_now && options_.hooks.corrupt_shard == manifest.shard &&
      !corrupt_fired_.exchange(true, std::memory_order_relaxed)) {
    // Flip one byte AFTER the checksum was computed: the header claims
    // the true checksum, the payload disagrees, the transport must
    // reject the transfer like any crashed attempt.
    payload[payload.size() / 2] ^= 0x20;
  }
  const std::string header = core::wire::shard_ok_header(
      payload.size(), checksum, rows, timer.seconds());
  if (drop_now) {
    // A dropped connection mid-payload: promise the full length, send
    // half, vanish.
    conn.write_line(header);
    conn.write_all(
        std::string_view(payload.data(), payload.size() / 2));
    return false;
  }
  if (!conn.write_line(header) || !conn.write_all(payload)) return false;
  served_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace wdag::remote
