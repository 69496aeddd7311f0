#pragma once
// Shared pieces of the wdag benchmark binary: run arguments, the result
// every workload fills (metrics, checks, labels), sample statistics, the
// run loop (set-ups and host probes spread across the run), the
// CSV-digesting result sink, and /proc readers.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "wdag/wdag.hpp"

namespace wbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Source identity stamped into the labels (git commit or tree hash).
  std::string commit = "unknown";
  /// The wdag CLI binary: the drive's fallback worker executable.
  std::string wdag_bin;
  /// Scratch directory inside the checkout (drive work dirs, trace files).
  std::string work_dir = ".bench_build/work";
};

/// Threads of every multi-core part of the load: min(nproc, 4).
std::size_t load_threads();

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample (0 for an empty one). Takes a copy.
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q);

/// Per-instance solve latencies of a request repeated many times: each
/// instance's fastest solve so far. The fastest of repetitions spread
/// over the whole run is the instance's solve time with the preemptions
/// and slow spells of a shared host taken out, unless they lasted the
/// whole run. Fixed memory, touched up front, so keeping samples does not
/// move the peak RSS with run length.
class FastestSolve {
 public:
  explicit FastestSolve(std::size_t count) : best_(count, kNone) {}
  void push(std::size_t index, double v) {
    if (index < best_.size()) best_[index] = std::min(best_[index], static_cast<float>(v));
  }
  /// The fastest solve of every instance solved at least once.
  [[nodiscard]] std::vector<double> values() const;

 private:
  static constexpr float kNone = std::numeric_limits<float>::infinity();
  std::vector<float> best_;
};

/// FNV-1a 64 over a byte stream.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ULL;
    }
  }
  void add(std::string_view s) { add(s.data(), s.size()); }
};

/// A streambuf that only hashes and counts what is written to it.
class HashBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t digest() const { return fnv_.h; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  Fnv64 fnv_;
  std::size_t bytes_ = 0;
};

/// Row totals of one batch as its rows stream past.
struct RowTotals {
  std::size_t rows = 0;
  std::size_t failed = 0;
  std::size_t optimal = 0;
  std::size_t wavelengths = 0;
  std::size_t load = 0;
  std::size_t below_load = 0;  ///< rows claiming w < pi (impossible)
  double solve_ms = 0.0;       ///< sum of per-instance solve latencies

  void add(const wdag::core::BatchEntry& e);
};

/// The benchmark's sink: streams the canonical CSV (api::CsvStreamSink)
/// into a hash, folds row totals, and optionally each row's solve latency
/// into a FastestSolve.
class DigestSink final : public wdag::api::ResultSink {
 public:
  explicit DigestSink(FastestSolve* latencies_ms = nullptr);

  void row(const wdag::core::BatchEntry& entry) override;

  [[nodiscard]] std::uint64_t digest() const { return buf_.digest(); }
  [[nodiscard]] std::size_t bytes() const { return buf_.bytes(); }
  [[nodiscard]] const RowTotals& totals() const { return totals_; }

 protected:
  void on_begin(const wdag::api::BatchStreamInfo& info) override;
  void on_end(const wdag::core::BatchReport& report) override;

 private:
  HashBuf buf_;
  std::ostream out_;
  wdag::api::CsvStreamSink csv_;
  RowTotals totals_;
  FastestSolve* latencies_ms_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = a single derived value
  std::string note;
};

/// What one run prints: metrics, the verdict of every output check,
/// and the run's labels.
class Result {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {});

  /// Records an output check; a failing check marks the run incorrect
  /// and counts `failures` operations as failed.
  void check(bool ok, const std::string& what, std::size_t failures = 1);

  /// Records one host-probe reading (see host_probe_mops), printed with
  /// the labels.
  void probe(double mops) { probes_.push_back(mops); }

  void attempt(std::size_t n) { attempted_ += n; }
  void fail(std::size_t n) { failed_ += n; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  /// Prints the human-readable table, the labels line and, last, the
  /// one-line JSON result.
  void print(const Args& args) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::vector<double> probes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// The host-speed reference: a fixed integer workload on load_threads()
/// threads at once, in million operations per second (fastest of three).
/// It tracks how fast the shared host runs right now; it explains drift
/// between runs and divides no metric.
double host_probe_mops();

/// Timed set-ups per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// Runs `step` until --seconds have passed (at least once), and around it
/// the host probe at the run's start, middle and end and, when `setup` is
/// set, kSetups timed set-ups spread evenly across the run (set-up i is
/// due at i / kSetups of it; any not yet run follow the last step).
/// Returns the set-up times in seconds.
std::vector<double> run_for(const Args& args, Result& res,
                            const std::function<double()>& setup,
                            const std::function<void()>& step);

/// One field of /proc/<pid>/status in kB ("VmHWM", "VmSize", ...), or the
/// plain number for "Threads"; -1 when unreadable. pid 0 = this process.
long proc_status(int pid, const std::string& field);

/// Open file descriptors of a process (pid 0 = this one); -1 on error.
long proc_fd_count(int pid);

/// This process's peak resident set, in MB.
double peak_rss_mb();

}  // namespace wbench
