// util/socket.cpp error paths — the failure modes remote dispatch leans
// on: a bounded dial against a peer that never answers, fast failure on
// a refused port, header+payload sharing one TCP segment, a peer that
// vanishes mid-payload, EINTR storms that must neither shorten nor
// un-bound a poll deadline, and close-on-exec on every kind of socket.
//
// POSIX-only machinery (raw listen() backlogs, pthread_kill); the whole
// suite is compiled on the same platforms as the socket implementation.

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/socket.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <netinet/in.h>
#include <pthread.h>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace wdag {
namespace {

using util::ReadStatus;
using util::TcpConn;
using util::TcpListener;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A loopback peer that accepts but never answers: a listener whose
/// accept queue is already full, so further SYNs are silently dropped
/// and the dialer sees a blackhole — the worst case TcpConn::connect's
/// timeout exists for. Returns the raw listening fd (backlog 0) and the
/// connections holding the queue full.
struct Blackhole {
  int fd = -1;
  int port = 0;
  std::vector<TcpConn> fillers;

  // Setup lives outside the constructor so ASSERT_* (which returns) is
  // usable.
  void open() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(fd, 0), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len), 0);
    port = ntohs(bound.sin_port);
    // Fill the accept queue (backlog 0 admits one established
    // connection on Linux); once a dial times out the hole is ready.
    for (int i = 0; i < 4; ++i) {
      try {
        fillers.push_back(TcpConn::connect("127.0.0.1", port, 200));
      } catch (const InternalError&) {
        return;  // queue is full: this dial already hung
      }
    }
  }
  ~Blackhole() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(SocketTest, ConnectTimeoutIsBoundedAgainstASilentPeer) {
  Blackhole hole;
  hole.open();
  ASSERT_NE(hole.port, 0);
  const auto start = Clock::now();
  EXPECT_THROW(TcpConn::connect("127.0.0.1", hole.port, 300), InternalError);
  const double elapsed = ms_since(start);
  // The dial must cost ~the requested timeout — never the kernel's
  // minutes-long SYN retry ladder, and not meaningfully less either.
  EXPECT_GE(elapsed, 250.0);
  EXPECT_LT(elapsed, 3000.0);
}

TEST(SocketTest, RefusedConnectionFailsFast) {
  int closed_port = 0;
  {
    const TcpListener probe = TcpListener::listen("127.0.0.1", 0);
    closed_port = probe.port();
  }  // listener closed: the port now refuses with RST
  const auto start = Clock::now();
  EXPECT_THROW(TcpConn::connect("127.0.0.1", closed_port, 5000),
               InternalError);
  // A refused dial must not sit out the full timeout.
  EXPECT_LT(ms_since(start), 2000.0);
}

TEST(SocketTest, MalformedHostIsRejected) {
  EXPECT_THROW(TcpConn::connect("not-an-ip", 80, 100), InvalidArgument);
}

TEST(SocketTest, ReadExactDrainsBytesBufferedPastTheHeaderLine) {
  TcpListener listener = TcpListener::listen("127.0.0.1", 0);
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port(), 1000);
  auto server = listener.accept(1000);
  ASSERT_TRUE(server.has_value());

  // Header line and payload in ONE send — the normal case on loopback;
  // read_exact must start from the bytes read_line over-read.
  const std::string payload = "0123456789abcdef";
  ASSERT_TRUE(server->write_all("header\n" + payload));

  std::string line;
  ASSERT_EQ(client.read_line(line, 1000), ReadStatus::kLine);
  EXPECT_EQ(line, "header");
  std::string got;
  ASSERT_EQ(client.read_exact(got, payload.size(), 1000), ReadStatus::kLine);
  EXPECT_EQ(got, payload);
}

TEST(SocketTest, PeerCloseMidPayloadReadsAsClosedWithPartialBytesKept) {
  TcpListener listener = TcpListener::listen("127.0.0.1", 0);
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port(), 1000);
  auto server = listener.accept(1000);
  ASSERT_TRUE(server.has_value());

  ASSERT_TRUE(server->write_all("header\nfirst-half"));
  server->close();  // promise broken: the other half never comes

  std::string line;
  ASSERT_EQ(client.read_line(line, 1000), ReadStatus::kLine);
  std::string got;
  EXPECT_EQ(client.read_exact(got, 100, 1000), ReadStatus::kClosed);
  // The partial progress survives in the out parameter (the transport
  // reports how many bytes arrived before the connection died).
  EXPECT_EQ(got, "first-half");
}

TEST(SocketTest, WriteToAVanishedPeerReturnsFalse) {
  util::ignore_sigpipe();
  TcpListener listener = TcpListener::listen("127.0.0.1", 0);
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port(), 1000);
  {
    auto server = listener.accept(1000);
    ASSERT_TRUE(server.has_value());
  }  // server side closed
  // The first write may land in the kernel buffer; the RST turns a
  // subsequent write into a clean false, never a SIGPIPE death.
  bool ok = true;
  for (int i = 0; ok && i < 16; ++i) {
    ok = client.write_line("are you there?");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(ok);
}

#if defined(__linux__)
/// The fd numbers of this process's open sockets (from /proc/self/fd).
std::set<int> socket_fds() {
  std::set<int> fds;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::filesystem::path target =
        std::filesystem::read_symlink(entry.path(), ec);
    if (!ec && target.string().rfind("socket:", 0) == 0) {
      fds.insert(std::stoi(entry.path().filename().string()));
    }
  }
  return fds;
}

TEST(SocketTest, ListenedAcceptedAndDialedSocketsAreCloseOnExec) {
  // A drive that mixes local `shard run` children with remote workers
  // spawns while its TcpTransport connections are open; no child may
  // inherit one.
  const std::set<int> before = socket_fds();
  TcpListener listener = TcpListener::listen("127.0.0.1", 0);
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port(), 1000);
  auto server = listener.accept(1000);
  ASSERT_TRUE(server.has_value());

  std::vector<int> opened;
  for (const int fd : socket_fds()) {
    if (before.count(fd) == 0) opened.push_back(fd);
  }
  ASSERT_EQ(opened.size(), 3u) << "listener, dialed and accepted sockets";
  for (const int fd : opened) {
    const int flags = ::fcntl(fd, F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_NE(flags & FD_CLOEXEC, 0) << "socket fd " << fd;
  }
}
#endif

TEST(SocketTest, EintrDuringPollNeitherShortensNorUnboundsTheDeadline) {
  // A no-op SIGUSR1 handler installed WITHOUT SA_RESTART makes every
  // delivery interrupt poll() with EINTR.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  TcpListener listener = TcpListener::listen("127.0.0.1", 0);
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port(), 1000);
  auto server = listener.accept(1000);
  ASSERT_TRUE(server.has_value());

  const pthread_t reader = ::pthread_self();
  std::atomic<bool> stop{false};
  std::thread pest([&] {
    while (!stop.load()) {
      ::pthread_kill(reader, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // The peer stays silent: a 400ms read under constant EINTR fire must
  // still time out at ~400ms — not early (a naive retry loop restarting
  // the full timeout would also never return) and not never.
  std::string line;
  const auto start = Clock::now();
  const ReadStatus status = client.read_line(line, 400);
  const double elapsed = ms_since(start);
  stop.store(true);
  pest.join();
  ::sigaction(SIGUSR1, &old, nullptr);

  EXPECT_EQ(status, ReadStatus::kTimeout);
  EXPECT_GE(elapsed, 350.0);
  EXPECT_LT(elapsed, 3000.0);
}

}  // namespace
}  // namespace wdag

#endif  // POSIX
