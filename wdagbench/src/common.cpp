#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/simd.hpp"

namespace wbench {

std::size_t load_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

namespace {
/// Where the probe's chains end, so the compiler keeps them.
std::atomic<std::uint64_t> probe_sink{0};
}  // namespace

double host_probe_mops() {
  // A dependent multiply-xorshift chain per thread: ALU-bound, no memory
  // traffic, so it reads the cores' speed and nothing of wdag.
  constexpr std::uint64_t kOps = 4'000'000;
  const std::size_t threads = load_threads();
  double best_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::thread> pool;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([t] {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL + t;
        for (std::uint64_t i = 0; i < kOps; ++i) {
          x ^= x >> 29;
          x *= 0xBF58476D1CE4E5B9ULL;
        }
        probe_sink.fetch_xor(x, std::memory_order_relaxed);
      });
    }
    for (std::thread& th : pool) th.join();
    best_s = std::min(best_s, seconds_between(t0, Clock::now()));
  }
  return static_cast<double>(kOps * threads) / best_s / 1e6;
}

std::vector<double> run_for(const Args& args, Result& res,
                            const std::function<double()>& setup,
                            const std::function<void()>& step) {
  res.probe(host_probe_mops());
  std::vector<double> setups;
  const auto want_setups = static_cast<std::size_t>(setup ? kSetups : 0);
  bool mid_probed = false;
  std::size_t steps = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= args.seconds && steps > 0) break;
    if (setups.size() < want_setups &&
        elapsed >= args.seconds * static_cast<double>(setups.size()) /
                       static_cast<double>(want_setups)) {
      setups.push_back(setup());
    } else if (!mid_probed && elapsed >= args.seconds / 2) {
      res.probe(host_probe_mops());
      mid_probed = true;
    } else {
      step();
      ++steps;
    }
  }
  while (setups.size() < want_setups) setups.push_back(setup());
  if (!mid_probed) res.probe(host_probe_mops());
  res.probe(host_probe_mops());
  return setups;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

HashBuf::int_type HashBuf::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    const char ch = traits_type::to_char_type(c);
    fnv_.add(&ch, 1);
    ++bytes_;
  }
  return traits_type::not_eof(c);
}

std::streamsize HashBuf::xsputn(const char* s, std::streamsize n) {
  fnv_.add(s, static_cast<std::size_t>(n));
  bytes_ += static_cast<std::size_t>(n);
  return n;
}

void RowTotals::add(const wdag::core::BatchEntry& e) {
  ++rows;
  if (e.failed) {
    ++failed;
    return;
  }
  if (e.optimal) ++optimal;
  wavelengths += e.wavelengths;
  load += e.load;
  if (e.wavelengths < e.load) ++below_load;
  solve_ms += e.millis;
}

std::vector<double> FastestSolve::values() const {
  std::vector<double> out;
  out.reserve(best_.size());
  for (const float v : best_) {
    if (v != kNone) out.push_back(v);
  }
  return out;
}

DigestSink::DigestSink(FastestSolve* latencies_ms)
    : out_(&buf_), csv_(out_), latencies_ms_(latencies_ms) {}

void DigestSink::on_begin(const wdag::api::BatchStreamInfo& info) {
  csv_.begin(info);
}

void DigestSink::row(const wdag::core::BatchEntry& entry) {
  csv_.row(entry);
  totals_.add(entry);
  if (latencies_ms_ != nullptr && !entry.failed) {
    latencies_ms_->push(entry.index, entry.millis);
  }
}

void DigestSink::on_end(const wdag::core::BatchReport& report) {
  csv_.end(report);
}

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(note)});
}

void Result::check(bool ok, const std::string& what, std::size_t failures) {
  if (ok) return;
  correct_ = false;
  failed_ += failures;
  if (problems_.size() < 20) problems_.push_back(what);
}

namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::print(const Args& args) const {
  std::printf("wdagbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("%-36s %16s  %-10s %9s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics_) {
    std::printf("%-36s %16.6g  %-10s %9zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  for (const std::string& p : problems_) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  // Labels, so numbers from different machines or builds are never
  // compared silently.
  const unsigned nproc = std::thread::hardware_concurrency();
  std::string probes = "[";
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (i > 0) probes += ", ";
    probes += json_number(probes_[i]);
  }
  probes += "]";
  std::printf(
      "labels {\"workload\": %s, \"seed\": %llu, \"isa\": %s, \"nproc\": %u, "
      "\"build_type\": %s, \"commit\": %s, \"version\": %s, "
      "\"host_probe_mops\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_string(wdag::util::simd::tier_name(wdag::util::simd::active_tier()))
          .c_str(),
      nproc, json_string(wdag::util::build_type()).c_str(),
      json_string(args.commit).c_str(),
      json_string(wdag::util::version()).c_str(), probes.c_str());

  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) line += ", ";
    line += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

long proc_status(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0 &&
        line.size() > field.size() && line[field.size()] == ':') {
      std::istringstream rest(line.substr(field.size() + 1));
      long v = -1;
      rest >> v;
      return v;
    }
  }
  return -1;
}

long proc_fd_count(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/fd" : "/proc/" + std::to_string(pid) + "/fd";
  std::error_code ec;
  long n = 0;
  for (std::filesystem::directory_iterator it(path, ec), end; !ec && it != end;
       it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

double peak_rss_mb() {
  return static_cast<double>(proc_status(0, "VmHWM")) / 1024.0;
}

}  // namespace wbench
