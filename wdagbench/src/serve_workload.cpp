// serve-churn: a serve::Server with the library's default options on
// loopback, one fresh connection per request exactly like `wdag request`.
//
// The run is a series of rounds, each on a fresh server warmed by a few
// untimed requests. A round's first phase is open loop: requests are due
// at a fixed rate and each solve is timed from its due time, so a stall
// counts against every request queued behind it; the generator's lateness
// is reported too. Its second phase is closed loop: four connections
// send back to back, and completed solves per second give the saturation
// rate. Both phases come from one poll-driven client thread (this one)
// with at most four connections open. The mix is small random-upp
// `solve` requests and a few `stats` reads; only the solves enter the
// latency sample, and no request kind that occupies the server's single
// service thread for long is sent, so no solve waits behind one.
//
// The server runs in a forked child of this (then single-threaded)
// process: its resource use (peak RSS, threads, VSZ, fds) is read from
// /proc/<child> without the client's, and should the server die (the
// session-thread leak can exhaust the map count under enough churn), its
// requests fail and are counted instead of taking the benchmark down.
// Each round's answers are checked against a local engine as soon as the
// round ends, and then dropped: the child starts with the parent's
// resident pages, so anything the parent kept across rounds would show
// up in every later server's peak RSS.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "core/json_min.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace wbench {

namespace {

namespace minjson = wdag::core::minjson;

/// Open-loop requests per second: about a third of the closed-loop
/// saturation rate on a 4-vCPU host. At 1500/s the mostly idle vCPUs
/// halt between requests, and the host's late wake-ups put several
/// milliseconds into many rounds' p99; at 6000/s a host slow spell
/// brings the rate near saturation.
constexpr double kOpenRate = 3000.0;
constexpr double kLatencyLimitMs = 25.0;  ///< the fixed p99 limit
/// Connections open at once, in both phases.
constexpr std::size_t kConnections = 4;
/// Give up on a request after this long.
constexpr std::int64_t kRequestTimeoutNs = 30'000'000'000;
/// One `stats` read per this many requests; the rest are solves.
constexpr std::size_t kStatsEvery = 25;
/// Requests of one round (one fresh server). Each round yields one p50,
/// p99 and saturation rate, and the metrics are their medians (the p99:
/// the fastest round's), so a stall of a shared host decides no metric;
/// stalls still count in the limit tally and serve.gen_late_ms.
constexpr std::size_t kRoundWarm = 250;  ///< untimed, but checked
constexpr std::size_t kRoundOpen = 1500;
constexpr std::size_t kRoundSat = 1500;
constexpr std::size_t kCanarySolves = 32;
/// Answered solves the traced pass replays stage by stage.
constexpr std::size_t kReplayed = 4096;

/// A serve::Server in a forked child. The child serves until the control
/// pipe closes, then drains and exits.
class ServerChild {
 public:
  ServerChild() {
    int port_pipe[2];
    int ctl_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(ctl_pipe) != 0) {
      throw std::runtime_error("pipe failed");
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const rlimit no_core{0, 0};
      ::setrlimit(RLIMIT_CORE, &no_core);
      ::close(port_pipe[0]);
      ::close(ctl_pipe[1]);
      int code = 0;
      try {
        wdag::serve::Server server(wdag::serve::ServeOptions{});
        server.start();
        const std::uint16_t port = server.port();
        if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port)) code = 3;
        char c = 0;
        while (::read(ctl_pipe[0], &c, 1) > 0) {
        }
        server.request_stop();
        server.join();
      } catch (...) {
        code = 3;
      }
      ::_exit(code);
    }
    ::close(port_pipe[1]);
    ::close(ctl_pipe[0]);
    ctl_ = ctl_pipe[1];
    std::uint16_t port = 0;
    const ssize_t got = ::read(port_pipe[0], &port, sizeof(port));
    ::close(port_pipe[0]);
    if (got != sizeof(port)) {
      stop();
      throw std::runtime_error("the server child did not start");
    }
    port_ = port;
  }

  ~ServerChild() { stop(); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Closes the control pipe and reaps the child (SIGKILL after 20 s).
  /// Returns true when it exited cleanly.
  bool stop() {
    if (pid_ <= 0) return clean_;
    ::close(ctl_);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        clean_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = 0;
        return clean_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = 0;
    clean_ = false;
    return false;
  }

 private:
  int pid_ = 0;
  int ctl_ = -1;
  std::uint16_t port_ = 0;
  bool clean_ = false;
};

enum class Kind { kSolve, kStats };

/// Bytes reserved for a request line and for its reply (a solve reply
/// is about 140 bytes, a stats reply about 600).
constexpr std::size_t kLineCapacity = 128;
constexpr std::size_t kSolveReplyCapacity = 256;
constexpr std::size_t kStatsReplyCapacity = 1024;

/// One request and what happened to it. A round's calls are made once,
/// their strings reserved, and reused by every later round (see reset).
struct Call {
  Kind kind = Kind::kSolve;
  std::uint64_t gen_seed = 0;
  std::string line;
  std::int64_t due = 0;  ///< open loop only
  std::int64_t start = 0, connected = 0, sent = 0, received = 0;
  bool ok = false;        ///< status "ok"
  bool rejected = false;  ///< status "rejected"
  std::string reply;

  /// Makes this a fresh request, keeping its strings' capacity.
  void reset(Kind k, std::uint64_t seed) {
    kind = k;
    gen_seed = seed;
    if (kind == Kind::kSolve) {
      line.assign(R"({"type":"solve","gen":"random-upp","seed":)");
      line += std::to_string(seed);
      line += '}';
    } else {
      line.assign(R"({"type":"stats"})");
    }
    due = start = connected = sent = received = 0;
    ok = rejected = false;
    reply.clear();
  }
};

bool is_stats(std::size_t index) { return index % kStatsEvery == 0; }

/// `n` calls with their strings reserved.
std::vector<Call> reserve_calls(std::size_t n) {
  std::vector<Call> calls(n);
  for (std::size_t i = 0; i < n; ++i) {
    calls[i].line.reserve(kLineCapacity);
    calls[i].reply.reserve(is_stats(i) ? kStatsReplyCapacity : kSolveReplyCapacity);
  }
  return calls;
}

/// Makes `calls` the requests of stream `stream` of the run: solves on
/// seeded random-upp instances, every kStatsEvery-th a stats read.
void fill_calls(std::vector<Call>& calls, std::uint64_t seed, std::uint64_t stream) {
  wdag::util::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls[i].reset(is_stats(i) ? Kind::kStats : Kind::kSolve, rng() >> 16);
  }
}

/// One in-flight request of the poll loop. Its socket speaks the same
/// bytes as `wdag request` (connect, one line out, one line back, close),
/// but closes with a reset (SO_LINGER 0): a run makes tens of thousands
/// of connections, and TIME_WAIT sockets left by the usual close would
/// pile up for a minute and slow the port search of every later connect,
/// this run's and the next one's.
struct Slot {
  int fd = -1;
  Call* call = nullptr;
  bool connecting = false;
};

void finish(Slot& s, bool answered) {
  Call& c = *s.call;
  c.received = now_ns();
  if (c.connected == 0) c.connected = c.received;
  if (c.sent == 0) c.sent = c.connected;
  if (answered) {
    c.reply.resize(c.reply.find('\n'));
    const wdag::serve::WireReply r = wdag::serve::parse_reply(c.reply);
    c.ok = r.status == "ok";
    c.rejected = r.status == "rejected";
  }
  if (s.fd >= 0) ::close(s.fd);
  s = Slot{};
}

/// Connected: writes the request line (a fresh socket's buffer takes it
/// whole). False on error.
bool send_line(Slot& s) {
  Call& c = *s.call;
  c.connected = now_ns();
  s.connecting = false;
  const std::string data = c.line + "\n";
  const ssize_t n = ::send(s.fd, data.data(), data.size(), MSG_NOSIGNAL);
  c.sent = now_ns();
  return n == static_cast<ssize_t>(data.size());
}

/// Opens a non-blocking connection for `c` in the free slot `s`.
void open_slot(Slot& s, Call& c, const sockaddr_in& addr) {
  s.call = &c;
  c.start = now_ns();
  s.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (s.fd < 0) {
    finish(s, false);
    return;
  }
  const linger reset{1, 0};
  ::setsockopt(s.fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  if (::connect(s.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    if (!send_line(s)) finish(s, false);
  } else if (errno == EINPROGRESS) {
    s.connecting = true;
  } else {
    finish(s, false);
  }
}

/// Polled ready: completes the connect, or reads what arrived.
void service_slot(Slot& s, short revents) {
  if (s.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || !send_line(s)) finish(s, false);
    return;
  }
  char buf[4096];
  const ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
  if (n > 0) {
    s.call->reply.append(buf, static_cast<std::size_t>(n));
    if (s.call->reply.find('\n') != std::string::npos) finish(s, true);
  } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK) ||
             (revents & (POLLERR | POLLHUP)) != 0) {
    finish(s, false);
  }
}

/// Makes every call from this thread with at most kConnections open.
/// rate > 0: open loop, call i is due at t0 + i / rate and starts when it
/// is due and a connection is free. rate == 0: closed loop, each call
/// starts as soon as a connection is free.
void run_calls(std::uint16_t port, std::vector<Call>& calls, double rate) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::array<Slot, kConnections> slots{};
  const auto free_slot = [&]() -> Slot* {
    for (Slot& s : slots) {
      if (s.call == nullptr) return &s;
    }
    return nullptr;
  };
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::size_t next = 0;
  for (;;) {
    std::int64_t now = now_ns();
    std::int64_t wake = now + 100'000'000;
    while (next < calls.size()) {
      Call& c = calls[next];
      if (rate > 0) {
        c.due = t0 + static_cast<std::int64_t>(static_cast<double>(next) * 1e9 / rate);
        if (c.due > now) {
          wake = c.due;
          break;
        }
      }
      Slot* s = free_slot();
      if (s == nullptr) break;
      open_slot(*s, c, addr);
      ++next;
      now = now_ns();
    }
    std::array<pollfd, kConnections> fds{};
    std::array<Slot*, kConnections> polled{};
    nfds_t n = 0;
    for (Slot& s : slots) {
      if (s.call == nullptr) continue;
      if (now - s.call->start > kRequestTimeoutNs) {
        finish(s, false);
        continue;
      }
      fds[n] = pollfd{s.fd, static_cast<short>(s.connecting ? POLLOUT : POLLIN), 0};
      polled[n++] = &s;
    }
    if (n == 0 && next == calls.size()) return;
    if (free_slot() == nullptr) wake = now + 100'000'000;
    const std::int64_t wait = std::max<std::int64_t>(wake - now, 0);
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds.data(), n, &timeout, nullptr) <= 0) continue;
    for (nfds_t i = 0; i < n; ++i) {
      if (fds[i].revents != 0) service_slot(*polled[i], fds[i].revents);
    }
  }
}

std::string field(const minjson::JsonValue& v, const std::string& key) {
  const auto it = v.object.find(key);
  if (it == v.object.end()) return {};
  return it->second.kind == minjson::JsonValue::Kind::kBool
             ? (it->second.boolean ? "true" : "false")
             : it->second.text;
}

double number(const minjson::JsonValue& v, const std::string& key) {
  const std::string s = field(v, key);
  return s.empty() ? 0.0 : std::stod(s);
}

/// The compared fields of a solve answer: strategy, paths, load,
/// wavelengths, optimal.
std::string solve_key(const minjson::JsonValue& v) {
  return field(v, "strategy") + "," + field(v, "paths") + "," +
         field(v, "load") + "," + field(v, "wavelengths") + "," +
         field(v, "optimal");
}

std::string solve_key(const wdag::api::SolveResponse& r) {
  return r.strategy_name + "," + std::to_string(r.paths) + "," +
         std::to_string(r.load) + "," + std::to_string(r.wavelengths) + "," +
         (r.optimal ? "true" : "false");
}

/// Fresh server + the canary solves, timed to the last reply; checked
/// against the pin.
double timed_setup(Result& res) {
  const std::int64_t t0 = now_ns();
  ServerChild server;
  std::vector<Call> canary(kCanarySolves);
  for (std::size_t i = 0; i < kCanarySolves; ++i) canary[i].reset(Kind::kSolve, i + 1);
  run_calls(server.port(), canary, 0.0);
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  Fnv64 fnv;
  bool all_ok = true;
  for (const Call& c : canary) {
    all_ok = all_ok && c.ok;
    if (c.ok) fnv.add(solve_key(minjson::JsonParser(c.reply, "reply").parse()) + "\n");
  }
  res.attempt(kCanarySolves);
  res.check(all_ok, "canary solve refused or failed", kCanarySolves);
  char msg[96];
  std::snprintf(msg, sizeof(msg), "serve canary digest %016llx != pinned",
                static_cast<unsigned long long>(fnv.h));
  res.check(fnv.h == kServeCanaryDigest, msg, kCanarySolves);
  res.check(server.stop(), "canary server did not exit cleanly", 0);
  return s;
}

/// What a round keeps of one answered solve until the engine check at
/// its end.
struct SolveCheck {
  std::uint64_t gen_seed = 0;
  std::uint64_t answer = 0;  ///< FNV-1a 64 of the answer's solve_key
  double local_ms = 0.0;     ///< Engine::submit latency, once checked
};

std::uint64_t answer_hash(const std::string& key) {
  Fnv64 fnv;
  fnv.add(key);
  return fnv.h;
}

/// Everything a run keeps. The untraced client's memory, and with it the
/// fork that every set-up times (~0.03 ms per MB here) and the peak RSS
/// of every server, must not change from round to round: the rounds reuse
/// calls allocated before the first fork, each round's answers are
/// checked right after it and dropped, and only the per-round values
/// below grow, by 8 bytes each.
struct Tally {
  bool traced = false;
  std::size_t attempted = 0, failed = 0, rejected = 0, mismatched = 0;
  std::size_t unclean = 0, solves = 0, optimal = 0, sum_w = 0, sum_pi = 0;
  std::size_t open_solves = 0, over_limit = 0, sat_requests = 0;
  double sat_wall = 0.0;
  /// One value per round.
  std::vector<double> p50, p99, late, rate, hwm;
  /// The last round's server after its fixed number of connections.
  double vsz_mb = 0.0, threads = 0.0, fds = 0.0;
  /// Every round's warm-up, open-loop and closed-loop calls.
  std::vector<Call> warm = reserve_calls(kRoundWarm);
  std::vector<Call> open = reserve_calls(kRoundOpen);
  std::vector<Call> sat = reserve_calls(kRoundSat);
  /// The current round's answered solves; its capacity is reserved once.
  std::vector<SolveCheck> round_checks;
  /// Traced pass only: the first kReplayed checked solves.
  std::vector<SolveCheck> replay;
  // Traced pass only: client timings, service times and spans.
  std::vector<double> connect_ms, send_ms, receive_ms, service_ms, overhead_ms;
  double sat_service_ms = 0.0;
  Trace trace;
  std::uint32_t next_id = 0;  ///< span id of the next request
};

/// Folds one finished call into the tally (the checks that need no
/// engine happen here) and returns its service time in ms: the reply's
/// `millis` for an answered solve, else 0.
double fold(Tally& t, const Call& c) {
  ++t.attempted;
  if (!c.ok) {
    ++t.failed;
    if (c.rejected) ++t.rejected;
    return 0.0;
  }
  if (t.traced) {
    t.connect_ms.push_back(static_cast<double>(c.connected - c.start) / 1e6);
    t.send_ms.push_back(static_cast<double>(c.sent - c.connected) / 1e6);
    t.receive_ms.push_back(static_cast<double>(c.received - c.sent) / 1e6);
  }
  if (c.kind != Kind::kSolve) return 0.0;
  const minjson::JsonValue v = minjson::JsonParser(c.reply, "reply").parse();
  const double w = number(v, "wavelengths"), pi = number(v, "load");
  if (w < pi) ++t.mismatched;
  ++t.solves;
  t.optimal += field(v, "optimal") == "true" ? 1 : 0;
  t.sum_w += static_cast<std::size_t>(w);
  t.sum_pi += static_cast<std::size_t>(pi);
  t.round_checks.push_back(SolveCheck{c.gen_seed, answer_hash(solve_key(v))});
  const double service = number(v, "millis");
  if (t.traced) {
    t.service_ms.push_back(service);
    t.overhead_ms.push_back(static_cast<double>(c.received - c.start) / 1e6 - service);
  }
  return service;
}

/// Every answered solve of the round must equal Engine::submit of the
/// same spec. The engine lives only for this check, so its pool thread
/// has ended before the next round forks.
void check_round(Tally& t) {
  wdag::api::Engine local(wdag::api::EngineOptions{1, {}});
  for (SolveCheck& check : t.round_checks) {
    const wdag::api::SolveResponse want = local.submit(
        wdag::api::SolveRequest::generated("random-upp", {}, check.gen_seed));
    if (answer_hash(solve_key(want)) != check.answer) ++t.mismatched;
    check.local_ms = want.millis;
    if (t.traced && t.replay.size() < kReplayed) t.replay.push_back(check);
  }
  t.round_checks.clear();
}

/// One round on a fresh server: warm-up, open loop, closed loop, the
/// server's /proc readings after its fixed number of connections, then
/// every call folded into the tally and checked.
void run_round(const Args& args, std::uint64_t k, Tally& t) {
  std::vector<Call>& warm = t.warm;
  std::vector<Call>& open = t.open;
  std::vector<Call>& sat = t.sat;
  fill_calls(warm, args.seed, 3 * k + 1);
  fill_calls(open, args.seed, 3 * k + 2);
  fill_calls(sat, args.seed, 3 * k + 3);
  ServerChild server;
  run_calls(server.port(), warm, 0.0);
  run_calls(server.port(), open, kOpenRate);
  const std::int64_t t0 = now_ns();
  run_calls(server.port(), sat, 0.0);
  const double sat_wall = static_cast<double>(now_ns() - t0) / 1e9;
  t.hwm.push_back(static_cast<double>(proc_status(server.pid(), "VmHWM")) / 1024.0);
  t.vsz_mb = static_cast<double>(proc_status(server.pid(), "VmSize")) / 1024.0;
  t.threads = static_cast<double>(proc_status(server.pid(), "Threads"));
  t.fds = static_cast<double>(proc_fd_count(server.pid()));
  if (!server.stop()) ++t.unclean;

  for (const Call& c : warm) fold(t, c);
  std::vector<double> latency_ms;  // open-loop solves, from due time
  std::vector<double> late_ms;
  for (const Call& c : open) {
    fold(t, c);
    late_ms.push_back(static_cast<double>(c.start - c.due) / 1e6);
    if (c.kind != Kind::kSolve) continue;
    double ms = static_cast<double>(c.received - c.due) / 1e6;
    if (!c.ok) ms = std::max(ms, kLatencyLimitMs);
    if (ms > kLatencyLimitMs) ++t.over_limit;
    latency_ms.push_back(ms);
  }
  t.open_solves += latency_ms.size();
  t.p50.push_back(median(latency_ms));
  t.p99.push_back(quantile(latency_ms, 0.99));
  t.late.push_back(quantile(late_ms, 0.99));
  std::size_t done = 0;
  for (const Call& c : sat) {
    const double service = fold(t, c);
    t.sat_service_ms += service;
    if (c.ok && c.kind == Kind::kSolve) ++done;
  }
  t.rate.push_back(static_cast<double>(done) / sat_wall);
  t.sat_requests += sat.size();
  t.sat_wall += sat_wall;
  check_round(t);

  if (t.traced) {
    for (const std::vector<Call>* phase : {&open, &sat}) {
      for (const Call& c : *phase) {
        const std::uint32_t id = t.next_id++;
        const int root = static_cast<int>(t.trace.size());
        t.trace.add(Span{Stage::kRequest, id, -1, c.start, c.received});
        t.trace.add(Span{Stage::kConnect, id, root, c.start, c.connected});
        t.trace.add(Span{Stage::kSend, id, root, c.connected, c.sent});
        t.trace.add(Span{Stage::kReceive, id, root, c.sent, c.received});
      }
    }
  }
}

}  // namespace

Result run_serve_churn(const Args& args) {
  Result res;
  // Rounds until the time is up, each on a fresh server with the same
  // request counts, so the session-thread leak cannot grow with run
  // length, and every metric is taken over rounds spread across the
  // whole run.
  Tally t;
  t.traced = args.trace;
  t.round_checks.reserve(kRoundWarm + kRoundOpen + kRoundSat);
  t.replay.reserve(args.trace ? kReplayed : 0);
  {
    // Solve once on a checking engine before the first fork, so the first
    // round's server inherits the same parent (code, thread stack and
    // arena of a checking engine) as every later one.
    wdag::api::Engine local(wdag::api::EngineOptions{1, {}});
    (void)local.submit(wdag::api::SolveRequest::generated("random-upp", {}, kCanarySeed));
  }
  std::uint64_t rounds = 0;
  const std::vector<double> setup_s = run_for(
      args, res,
      args.trace ? std::function<double()>{} : [&] { return timed_setup(res); },
      [&] { run_round(args, rounds++, t); });

  res.attempt(t.attempted);
  res.check(t.failed == 0,
            std::to_string(t.failed) + " requests failed or were refused", t.failed);
  res.check(t.mismatched == 0,
            std::to_string(t.mismatched) +
                " answers differ from the local engine or claim w < pi",
            t.mismatched);
  res.check(t.unclean == 0,
            std::to_string(t.unclean) + " round servers did not exit cleanly", 0);

  if (!args.trace) {
    res.add("setup_s", median(setup_s), "s", setup_s.size(),
            "fork a server + canary solves, spread over the run");
    char note[160];
    std::snprintf(note, sizeof(note),
                  "closed loop, %zu connections, solves/s, median of %llu rounds; "
                  "%.0f req/s overall",
                  kConnections, static_cast<unsigned long long>(rounds),
                  static_cast<double>(t.sat_requests) / t.sat_wall);
    res.add("inst_per_s", median(t.rate), "1/s", t.sat_requests, note);
    std::snprintf(note, sizeof(note),
                  "solves from due time at %.0f/s, median of %llu rounds",
                  kOpenRate, static_cast<unsigned long long>(rounds));
    res.add("lat_p50_ms", median(t.p50), "ms", t.open_solves, note);
    // The fastest round's p99: a host stall of a few milliseconds puts
    // its length into the p99 of the round it hits, and in a noisy spell
    // half the rounds of a run are hit, so their median flips between
    // runs. The median and the limit tally stay in the note.
    const double p99 = *std::min_element(t.p99.begin(), t.p99.end());
    const auto rounds_met = std::count_if(t.p99.begin(), t.p99.end(),
                                          [](double v) { return v <= kLatencyLimitMs; });
    std::snprintf(note, sizeof(note),
                  "p99 per round, fastest of %llu rounds (median %.3g); "
                  "limit %.0f ms met in %td rounds, %zu requests over",
                  static_cast<unsigned long long>(rounds),
                  median(t.p99), kLatencyLimitMs, rounds_met, t.over_limit);
    res.add("lat_p99_ms", p99, "ms", t.open_solves, note);
    res.add("wavelengths_per_load",
            static_cast<double>(t.sum_w) /
                static_cast<double>(std::max<std::size_t>(t.sum_pi, 1)),
            "ratio", t.solves);
    res.add("optimal_share",
            static_cast<double>(t.optimal) /
                static_cast<double>(std::max<std::size_t>(t.solves, 1)),
            "share", t.solves);
    res.add("ok_share",
            1.0 - static_cast<double>(res.failed()) /
                      static_cast<double>(res.attempted()),
            "share", res.attempted());
    std::snprintf(note, sizeof(note),
                  "server process after a round, median of rounds (first %.2f, "
                  "last %.2f)",
                  t.hwm.front(), t.hwm.back());
    res.add("peak_rss_mb", median(t.hwm), "MB", t.hwm.size(), note);
    return res;
  }

  // Traced pass: the client spans above, then a stage-by-stage replay of
  // the first kReplayed answered solves, which must reproduce their
  // answers.
  LayerReport layers;
  layers.trace = &t.trace;
  wdag::api::Engine local(wdag::api::EngineOptions{1, {}});
  wdag::core::SolveScratch scratch;
  const wdag::core::SolveOptions options;
  std::size_t unfaithful = 0;
  std::uint32_t id = t.next_id;
  for (std::size_t i = 0; i < t.replay.size(); ++i) {
    wdag::util::Xoshiro256 rng(t.replay[i].gen_seed);
    const std::int64_t g0 = now_ns();
    const wdag::gen::Instance inst = wdag::gen::workload_instance("random-upp", {}, rng);
    t.trace.add(Span{Stage::kGen, id, -1, g0, now_ns()});
    const wdag::core::BatchEntry e =
        replay_one(local.strategies(), inst.family, i, options, scratch, t.trace,
                   id++, layers.counters);
    wdag::api::SolveResponse as_reply;
    as_reply.strategy_name = e.failed ? "error" : local.strategies().at(e.strategy).name();
    as_reply.paths = e.paths;
    as_reply.load = e.load;
    as_reply.wavelengths = e.wavelengths;
    as_reply.optimal = e.optimal;
    if (answer_hash(solve_key(as_reply)) != t.replay[i].answer) ++unfaithful;
    layers.untraced_solve_ms += t.replay[i].local_ms;
  }
  res.check(unfaithful == 0,
            std::to_string(unfaithful) + " replayed solves differ from their answers "
                                         "(trace rejected)",
            unfaithful);

  layers.batch_busy_share = t.sat_service_ms / 1e3 / t.sat_wall;
  layers.serve_connect_ms = median(t.connect_ms);
  layers.serve_send_ms = median(t.send_ms);
  layers.serve_receive_ms = median(t.receive_ms);
  layers.serve_service_ms = median(t.service_ms);
  layers.serve_overhead_ms = median(t.overhead_ms);
  layers.serve_gen_late_ms = median(t.late);
  layers.serve_rejected = static_cast<double>(t.rejected);
  layers.serve_threads_end = t.threads;
  layers.serve_vsz_mb_end = t.vsz_mb;
  layers.serve_fds_end = t.fds;
  layers.trace_file = args.work_dir + "/trace-" + args.workload + ".tsv";
  t.trace.write_tsv(layers.trace_file);
  add_layer_metrics(res, layers);
  return res;
}

}  // namespace wbench
