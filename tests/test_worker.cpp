// remote::ShardWorker + core::TcpTransport — the remote execution path
// of `wdag drive --workers`, exercised in-process over loopback TCP.
//
// The transport-level tests need no CLI binary: the worker embeds its
// own api::Engine and the TcpTransport validates payloads before they
// touch disk. The full-drive tests additionally spawn local `shard run`
// children (the degradation path), so they skip without WDAG_CLI_BIN —
// like tests/test_driver.cpp, whose CTest registration passes
// $<TARGET_FILE:wdag_cli>.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/shard.hpp"
#include "core/transport.hpp"
#include "remote/worker.hpp"
#include "util/check.hpp"
#include "util/socket.hpp"
#include "wdag/wdag.hpp"

namespace {

using namespace wdag;

const char* cli_bin() { return std::getenv("WDAG_CLI_BIN"); }

ShardSpec small_spec(std::size_t count = 24) {
  ShardSpec spec;
  spec.family = "random-upp";
  spec.count = count;
  spec.seed = 1311;
  return spec;
}

/// The unsharded reference bytes of `spec` (one in-process engine).
std::string reference_csv(const ShardSpec& spec) {
  Engine engine(EngineOptions{.threads = 2, .solve = {}});
  std::ostringstream os;
  CsvStreamSink sink(os);
  BatchRequest request =
      BatchRequest::generated(spec.family, spec.count, spec.params);
  request.options.seed = spec.seed;
  request.options.keep_entries = false;
  request.sinks = {&sink};
  (void)engine.run_batch(request);
  return os.str();
}

std::string fresh_work_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/wdag_worker_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// An in-process worker serving on an ephemeral loopback port.
struct TestWorker {
  remote::ShardWorker worker;

  explicit TestWorker(remote::ShardWorkerHooks hooks = {})
      : worker([&hooks] {
          remote::ShardWorkerOptions options;
          options.engine_threads = 1;
          options.hooks = hooks;
          return options;
        }()) {
    worker.start();
  }
  ~TestWorker() {
    worker.request_stop();
    worker.join();
  }
  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(worker.port());
  }
};

/// One remote attempt of shard `index` through `transport`; returns the
/// attempt's exit code, leaving diagnostics readable on `attempt`.
std::unique_ptr<core::TransportAttempt> start_attempt(
    core::WorkerTransport& transport, const ShardPlan& plan,
    std::size_t index, const std::string& out_path,
    std::size_t attempt_number = 0) {
  core::AttemptSpec spec;
  spec.shard = index;
  spec.number = attempt_number;
  spec.manifest_json = core::manifest_to_json(plan.manifest(index));
  spec.out_path = out_path;
  return transport.start(spec);
}

// --- transport level -------------------------------------------------------

TEST(WorkerTest, AnswersPingWithACompatiblePong) {
  TestWorker tw;
  util::TcpConn conn =
      util::TcpConn::connect("127.0.0.1", tw.worker.port(), 1000);
  ASSERT_TRUE(conn.write_line(core::wire::ping_line()));
  std::string line;
  ASSERT_EQ(conn.read_line(line, 2000), util::ReadStatus::kLine);
  EXPECT_TRUE(core::wire::is_pong(line));
  EXPECT_EQ(tw.worker.pings_answered(), 1u);
}

TEST(WorkerTest, RemoteAttemptProducesAValidatedShardFile) {
  TestWorker tw;
  core::TcpTransport transport(tw.endpoint(), core::TcpTransport::Config{});
  const ShardSpec spec = small_spec();
  const ShardPlan plan(spec, 2);
  const std::string dir = fresh_work_dir("ok");

  for (std::size_t s = 0; s < 2; ++s) {
    const std::string out = dir + "/shard." + std::to_string(s) + ".csv";
    auto attempt = start_attempt(transport, plan, s, out);
    EXPECT_EQ(attempt->wait(), 0) << attempt->failure_detail();
    std::ifstream in(out);
    ASSERT_TRUE(in.good());
    const core::ShardCsv csv = core::read_shard_csv(in, out);
    EXPECT_EQ(csv.manifest.plan_id, plan.id());
    EXPECT_EQ(csv.manifest.shard, s);
  }
  EXPECT_EQ(tw.worker.shards_served(), 2u);
  EXPECT_TRUE(transport.healthy());
}

TEST(WorkerTest, CorruptPayloadFailsTheAttemptLikeACrash) {
  remote::ShardWorkerHooks hooks;
  hooks.corrupt_shard = 0;
  TestWorker tw(hooks);
  core::TcpTransport transport(tw.endpoint(), core::TcpTransport::Config{});
  const ShardPlan plan(small_spec(), 2);
  const std::string dir = fresh_work_dir("corrupt");
  const std::string out = dir + "/shard.0.csv";

  // Attempt 0: the worker ships bytes that disagree with the checksum
  // its header promised — a crashed attempt, nothing reaches out_path.
  auto attempt = start_attempt(transport, plan, 0, out);
  EXPECT_NE(attempt->wait(), 0);
  EXPECT_NE(attempt->failure_detail().find("checksum mismatch"),
            std::string::npos)
      << attempt->failure_detail();
  EXPECT_FALSE(std::filesystem::exists(out));

  // The hook fired once; the retry gets honest bytes.
  auto retry = start_attempt(transport, plan, 0, out, 1);
  EXPECT_EQ(retry->wait(), 0) << retry->failure_detail();
  EXPECT_TRUE(std::filesystem::exists(out));
}

TEST(WorkerTest, DroppedConnectionFailsOnceThenTheRetrySucceeds) {
  remote::ShardWorkerHooks hooks;
  hooks.drop_conn_shard = 0;
  TestWorker tw(hooks);
  core::TcpTransport transport(tw.endpoint(), core::TcpTransport::Config{});
  const ShardPlan plan(small_spec(), 2);
  const std::string dir = fresh_work_dir("drop");
  const std::string out = dir + "/shard.0.csv";

  auto attempt = start_attempt(transport, plan, 0, out);
  EXPECT_NE(attempt->wait(), 0);
  EXPECT_NE(attempt->failure_detail().find("closed mid-payload"),
            std::string::npos)
      << attempt->failure_detail();
  EXPECT_FALSE(std::filesystem::exists(out));

  auto retry = start_attempt(transport, plan, 0, out, 1);
  EXPECT_EQ(retry->wait(), 0) << retry->failure_detail();
}

TEST(WorkerTest, InjectedWorkerFailurePropagatesItsDiagnostic) {
  remote::ShardWorkerHooks hooks;
  hooks.fail_shard = 1;
  TestWorker tw(hooks);
  core::TcpTransport transport(tw.endpoint(), core::TcpTransport::Config{});
  const ShardPlan plan(small_spec(), 2);
  const std::string dir = fresh_work_dir("fail");

  auto attempt = start_attempt(transport, plan, 1, dir + "/shard.1.csv");
  EXPECT_NE(attempt->wait(), 0);
  EXPECT_NE(attempt->failure_detail().find("injected failure"),
            std::string::npos)
      << attempt->failure_detail();
  EXPECT_EQ(tw.worker.shards_failed(), 1u);
}

TEST(WorkerTest, MalformedEndpointIsRejectedUpFront) {
  EXPECT_THROW(core::TcpTransport::parse_endpoint("no-port-here"),
               InvalidArgument);
  EXPECT_THROW(core::TcpTransport::parse_endpoint("127.0.0.1:0"),
               InvalidArgument);
  EXPECT_THROW(core::TcpTransport::parse_endpoint("127.0.0.1:99999"),
               InvalidArgument);
  const auto [host, port] = core::TcpTransport::parse_endpoint("10.0.0.2:7070");
  EXPECT_EQ(host, "10.0.0.2");
  EXPECT_EQ(port, 7070);
}

// --- full drives over remote workers ---------------------------------------

core::DriveOptions remote_drive_options(const std::string& work_dir,
                                        std::vector<std::string> endpoints) {
  core::DriveOptions options;
  options.wdag_binary = cli_bin() ? cli_bin() : "wdag-unused";
  options.work_dir = work_dir;
  options.workers = 0;  // remote-only until degradation says otherwise
  options.remote_workers = std::move(endpoints);
  options.max_retries = 4;
  options.backoff_seconds = 0.01;
  return options;
}

TEST(WorkerDriveTest, DriveOverARemoteWorkerIsByteIdenticalUnderFaults) {
  // One worker, all hooks armed: shard 0's first transfer drops
  // mid-payload and its retry ships a corrupted payload (the hooks fire
  // on separate attempts by design); shard 1 is refused once. A single
  // worker makes every retry land back on the armed hooks — all
  // absorbed by the normal retry budget, and the merge must still be
  // byte-identical.
  remote::ShardWorkerHooks hooks;
  hooks.drop_conn_shard = 0;
  hooks.corrupt_shard = 0;
  hooks.fail_shard = 1;
  TestWorker w1(hooks);

  const ShardSpec spec = small_spec(36);
  const std::string want = reference_csv(spec);
  const ShardPlan plan(spec, 3);
  std::vector<core::DriveEvent> events;
  std::ostringstream os;
  const core::DriveReport report = core::drive(
      plan, remote_drive_options(fresh_work_dir("faults"), {w1.endpoint()}),
      os, [&](const core::DriveEvent& e) { events.push_back(e); });

  EXPECT_EQ(os.str(), want);
  EXPECT_GE(report.retries, 3u);  // drop + corrupt (shard 0), fail (shard 1)
  ASSERT_EQ(report.shards.size(), 3u);
  for (const auto& s : report.shards) {
    // Remote-only drive: every winner is attributed to the worker.
    EXPECT_EQ(s.worker, w1.endpoint()) << "shard " << s.shard;
  }
  bool saw_checksum = false, saw_drop = false, saw_injected = false;
  for (const auto& e : events) {
    if (e.detail.find("checksum mismatch") != std::string::npos) {
      saw_checksum = true;
    }
    if (e.detail.find("closed mid-payload") != std::string::npos) {
      saw_drop = true;
    }
    if (e.detail.find("injected failure") != std::string::npos) {
      saw_injected = true;
    }
  }
  EXPECT_TRUE(saw_checksum);
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_injected);
}

TEST(WorkerTest, SettleHealthProbesAnOutOfRotationWorkerAtOnce) {
  // The first ping outlasts the probe timeout, so the worker goes out of
  // rotation; the probe interval is far longer than the test, so only
  // settle_health() can bring the next probe (which succeeds) forward.
  remote::ShardWorkerHooks hooks;
  hooks.slow_heartbeat_count = 1;
  hooks.slow_heartbeat_ms = 1500;
  TestWorker tw(hooks);
  core::TcpTransport::Config config;
  config.probe_interval_seconds = 3600.0;
  config.probe_timeout_ms = 200;
  config.probe_miss_budget = 1;
  core::TcpTransport transport(tw.endpoint(), config);
  while (transport.healthy()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  transport.settle_health();
  EXPECT_TRUE(transport.healthy());
  std::vector<std::string> kinds;
  for (const core::ProbeEvent& e : transport.drain_probe_events()) {
    kinds.push_back(e.kind == core::ProbeEvent::Kind::kMiss ? "miss"
                    : e.kind == core::ProbeEvent::Kind::kUnhealthy
                        ? "unhealthy"
                        : "recovered");
  }
  EXPECT_EQ(kinds,
            (std::vector<std::string>{"miss", "unhealthy", "recovered"}));
  transport.settle_health();  // healthy: returns at once
}

TEST(WorkerDriveTest, StalledUnhealthyWorkerIsRedispatchedWithoutRetryCost) {
  // worker2 stalls its first shard attempt far past the drive and
  // answers every ping slower than the probe timeout: the drive can
  // only finish by noticing the sick worker and moving the in-flight
  // attempt to worker1 — and that move must not burn retry budget.
  TestWorker w1;
  remote::ShardWorkerHooks hooks2;
  hooks2.stall_first_ms = 120'000;
  hooks2.slow_heartbeat_count = 9999;
  hooks2.slow_heartbeat_ms = 9999;
  TestWorker w2(hooks2);

  const ShardSpec spec = small_spec(36);
  const std::string want = reference_csv(spec);
  const ShardPlan plan(spec, 3);
  core::DriveOptions options = remote_drive_options(
      fresh_work_dir("redispatch"), {w1.endpoint(), w2.endpoint()});
  options.probe_interval_seconds = 0.1;
  options.probe_timeout_ms = 200;
  options.probe_miss_budget = 1;

  std::vector<core::DriveEvent> events;
  std::ostringstream os;
  const core::DriveReport report = core::drive(
      plan, options, os,
      [&](const core::DriveEvent& e) { events.push_back(e); });

  EXPECT_EQ(os.str(), want);
  EXPECT_GE(report.redispatches, 1u);
  EXPECT_EQ(report.retries, 0u);  // health moves are not failures
  bool saw_unhealthy = false, saw_redispatch = false;
  for (const auto& e : events) {
    if (e.kind == "unhealthy" && e.worker == w2.endpoint()) {
      saw_unhealthy = true;
    }
    if (e.kind == "redispatch" && e.worker == w2.endpoint()) {
      saw_redispatch = true;
    }
  }
  EXPECT_TRUE(saw_unhealthy);
  EXPECT_TRUE(saw_redispatch);
}

TEST(WorkerDriveTest, DeadFleetDegradesToLocalAndStillMatchesTheBytes) {
  if (!cli_bin()) GTEST_SKIP() << "WDAG_CLI_BIN not set";
  // An endpoint that refuses every dial: bind an ephemeral port, then
  // close the listener so nothing answers there.
  int dead_port = 0;
  {
    const util::TcpListener probe = util::TcpListener::listen("127.0.0.1", 0);
    dead_port = probe.port();
  }
  const ShardSpec spec = small_spec();
  const std::string want = reference_csv(spec);
  const ShardPlan plan(spec, 2);
  core::DriveOptions options = remote_drive_options(
      fresh_work_dir("degrade"),
      {"127.0.0.1:" + std::to_string(dead_port)});
  options.probe_interval_seconds = 0.05;
  options.probe_timeout_ms = 200;
  options.probe_miss_budget = 2;
  options.connect_timeout_ms = 200;

  std::vector<core::DriveEvent> events;
  std::ostringstream os;
  const core::DriveReport report = core::drive(
      plan, options, os,
      [&](const core::DriveEvent& e) { events.push_back(e); });

  EXPECT_EQ(os.str(), want);
  bool saw_unhealthy = false, saw_degrade = false;
  for (const auto& e : events) {
    if (e.kind == "unhealthy") saw_unhealthy = true;
    if (e.kind == "degrade") saw_degrade = true;
  }
  EXPECT_TRUE(saw_unhealthy);
  EXPECT_TRUE(saw_degrade);
  for (const auto& s : report.shards) EXPECT_EQ(s.worker, "local");
}

}  // namespace
