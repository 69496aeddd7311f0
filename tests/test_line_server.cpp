// util::LineServer, the one server core under `wdag serve` and `wdag
// worker`, exercised through both owners: a soak of 10,000 short
// connections must leave the process's address space, thread count and
// open fds where they started (finished sessions are joined, not kept
// until shutdown), and the idle timeout and the session cap must hold
// for each server.
//
// Every bound is polled until it holds and fails only after a generous
// deadline, so the checks do not race the accept loop's tick on a slow
// or sanitized build. Linux-only: the footprint is read from /proc/self.

#include <gtest/gtest.h>

#if defined(__linux__)

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/transport.hpp"
#include "remote/worker.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/socket.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace wdag {
namespace {

using Clock = std::chrono::steady_clock;

#if defined(__GLIBC__)
/// glibc hands a thread that contends on malloc its own arena, which
/// reserves 64 MiB of address space and is never unmapped; the more
/// sessions overlap (a loaded box), the more arenas appear. One arena,
/// pinned before any test runs, keeps the VmSize bound measuring what a
/// leaked session keeps mapped: its 8 MiB thread stack.
[[maybe_unused]] const int kOneMallocArena = mallopt(M_ARENA_MAX, 1);
#endif

constexpr std::size_t kSoakConnections = 10'000;
/// Allowed VmSize growth over a soak. One leaked session keeps an 8 MiB
/// stack mapped, so a leak of 10,000 shows as tens of GiB.
constexpr long kVmGrowthKb = 256 * 1024;
/// Threads and fds allowed above the baseline once the soak is over.
constexpr long kSlack = 2;

/// One numeric field of /proc/self/status ("VmSize" is in kB).
long proc_status(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return -1;
}

long open_fds() {
  long n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n - 1;  // the iterator's own directory fd
}

struct Footprint {
  long vm_kb = proc_status("VmSize");
  long threads = proc_status("Threads");
  long fds = open_fds();

  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os << "VmSize " << vm_kb / 1024 << " MiB, " << threads << " threads, "
       << fds << " fds";
    return os.str();
  }
};

/// Polls `holds` until it is true or a generous deadline passes.
bool eventually(const std::function<bool()>& holds) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!holds()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

/// Waits until the footprint is back within the bounds of `base`.
void expect_back_to(const Footprint& base) {
  Footprint now;
  const bool settled = eventually([&] {
    now = Footprint{};
    return now.vm_kb - base.vm_kb < kVmGrowthKb &&
           now.threads <= base.threads + kSlack &&
           now.fds <= base.fds + kSlack;
  });
  EXPECT_TRUE(settled) << "baseline: " << base.str()
                       << "\nafter:    " << now.str();
}

/// One exchange over a fresh connection; true when it was answered.
using Exchange = std::function<bool(std::uint16_t port)>;

void soak(std::uint16_t port, const Exchange& exchange) {
  ASSERT_TRUE(exchange(port));  // warm-up: first session, first arena
  const Footprint base;
  std::size_t unanswered = 0;
  for (std::size_t i = 0; i < kSoakConnections; ++i) {
    if (!exchange(port)) ++unanswered;
  }
  EXPECT_EQ(unanswered, 0u);
  expect_back_to(base);
}

bool stats_exchange(std::uint16_t port) {
  try {
    return serve::parse_reply(serve::request_once("127.0.0.1", port,
                                                  R"({"type":"stats"})"))
               .status == "ok";
  } catch (const std::exception&) {
    return false;
  }
}

bool ping_exchange(std::uint16_t port) {
  try {
    util::TcpConn conn = util::TcpConn::connect("127.0.0.1", port, 5000);
    std::string line;
    return conn.write_line(core::wire::ping_line()) &&
           conn.read_line(line, 30'000) == util::ReadStatus::kLine &&
           core::wire::is_pong(line);
  } catch (const std::exception&) {
    return false;
  }
}

serve::ServeOptions serve_options() {
  serve::ServeOptions options;
  options.engine_threads = 1;
  return options;
}

remote::ShardWorkerOptions worker_options() {
  remote::ShardWorkerOptions options;
  options.engine_threads = 1;
  return options;
}

/// A server of either kind running on its own thread until destroyed.
template <typename S>
struct Running {
  S server;
  template <typename Options>
  explicit Running(Options options) : server(std::move(options)) {
    server.start();
  }
  ~Running() {
    server.request_stop();
    server.join();
  }
  [[nodiscard]] std::uint16_t port() const { return server.port(); }
};

/// A connection the server closes after the idle timeout, while the
/// server keeps answering and the idle session's thread is joined.
void expect_idle_close(std::uint16_t port, const Exchange& exchange) {
  ASSERT_TRUE(exchange(port));
  const Footprint base;
  util::TcpConn silent = util::TcpConn::connect("127.0.0.1", port, 5000);
  std::string line;
  EXPECT_EQ(silent.read_line(line, 30'000), util::ReadStatus::kClosed);
  EXPECT_TRUE(exchange(port));
  silent.close();
  expect_back_to(base);
}

// --- soak ------------------------------------------------------------------

TEST(LineServerSoak, ServeReapsTenThousandStatsSessions) {
  Running<serve::Server> running(serve_options());
  soak(running.port(), stats_exchange);
  EXPECT_EQ(running.server.stats().received(), kSoakConnections + 1);
}

TEST(LineServerSoak, WorkerReapsTenThousandPingSessions) {
  Running<remote::ShardWorker> running(worker_options());
  soak(running.port(), ping_exchange);
  EXPECT_EQ(running.server.pings_answered(), kSoakConnections + 1);
}

// --- idle timeout ----------------------------------------------------------

TEST(LineServerIdle, ServeClosesASilentSession) {
  serve::ServeOptions options = serve_options();
  options.idle_timeout_ms = 100.0;
  Running<serve::Server> running(options);
  expect_idle_close(running.port(), stats_exchange);
}

TEST(LineServerIdle, WorkerClosesASilentSession) {
  remote::ShardWorkerOptions options = worker_options();
  options.idle_timeout_ms = 100.0;
  Running<remote::ShardWorker> running(options);
  expect_idle_close(running.port(), ping_exchange);
}

// --- connection cap --------------------------------------------------------

TEST(LineServerCap, ServeRefusesPastTheCapAndFreesASlotOnHangup) {
  serve::ServeOptions options = serve_options();
  options.max_connections = 2;
  Running<serve::Server> running(options);
  const std::uint16_t port = running.port();

  std::vector<serve::Session> holders;
  for (int i = 0; i < 2; ++i) {
    holders.emplace_back("127.0.0.1", port);
    // One answered exchange proves the holder's session is live.
    ASSERT_EQ(
        serve::parse_reply(holders.back().exchange(R"({"type":"stats"})"))
            .status,
        "ok");
  }
  const Footprint base;
  for (int i = 0; i < 20; ++i) {
    util::TcpConn extra = util::TcpConn::connect("127.0.0.1", port, 5000);
    std::string line;
    ASSERT_EQ(extra.read_line(line, 30'000), util::ReadStatus::kLine);
    EXPECT_EQ(serve::parse_reply(line).detail, "max_connections");
    EXPECT_EQ(extra.read_line(line, 30'000), util::ReadStatus::kClosed);
  }
  EXPECT_EQ(running.server.stats().rejected_max_connections(), 20u);
  expect_back_to(base);

  // A holder hanging up frees its slot once its session is reaped.
  holders.pop_back();
  EXPECT_TRUE(eventually([&] { return stats_exchange(port); }));
}

TEST(LineServerCap, WorkerHasNoSessionCap) {
  Running<remote::ShardWorker> running(worker_options());
  const std::uint16_t port = running.port();
  // Far past any cap a driver would notice: every connection is held
  // open at once and each is answered.
  std::vector<util::TcpConn> held;
  for (int i = 0; i < 64; ++i) {
    held.push_back(util::TcpConn::connect("127.0.0.1", port, 5000));
    ASSERT_TRUE(held.back().write_line(core::wire::ping_line()));
  }
  for (util::TcpConn& conn : held) {
    std::string line;
    ASSERT_EQ(conn.read_line(line, 30'000), util::ReadStatus::kLine);
    EXPECT_TRUE(core::wire::is_pong(line));
  }
}

}  // namespace
}  // namespace wdag

#endif  // __linux__
