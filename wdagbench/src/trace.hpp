#pragma once
// The traced pass: in-memory spans around the calls into each layer,
// recorded from outside the library.
//
// A Capture wraps a batch's generator callback: it times every
// gen::workload_instance call and keeps the instance. replay() then runs
// each captured instance through the public solve pipeline one stage at
// a time (classify, dispatch, strategy, conflict build / DSATUR / exact
// certification, max_load, validation), exactly as api::solve_with
// sequences them, with a span around each call. Its rows go through the
// same CSV sink as the untraced run, so the caller can require equal
// bytes (the faithfulness check) before trusting the spans.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace wbench {

enum class Stage : std::uint8_t {
  kGen,          ///< gen::workload_instance
  kPipeline,     ///< one instance's whole replay (the span root)
  kClassify,     ///< dag::classify
  kDispatch,     ///< StrategyRegistry::dispatch
  kTheorem1,     ///< the theorem1 strategy (core::color_equal_load)
  kSplitMerge,   ///< the split-merge strategy (core::color_upp_split_merge)
  kStrategy,     ///< any other registered strategy's solve()
  kBuild,        ///< ConflictGraph::rebuild
  kDsatur,       ///< conflict::dsatur_coloring + normalize_colors
  kExact,        ///< conflict::chromatic_number (certification)
  kMaxLoad,      ///< paths::max_load
  kValidate,     ///< conflict::is_valid_assignment + num_colors
  // Client-side spans of the serve and drive workloads (not part of the
  // solver shares).
  kRequest,      ///< one serve request, connect to reply
  kConnect,      ///< TcpConn::connect
  kSend,         ///< writing the request line
  kReceive,      ///< waiting for and reading the reply line
  kDrive,        ///< one core::drive call
  kShard,        ///< one shard attempt, dispatch to complete
  kCount,
};

const char* stage_name(Stage s);

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  Stage stage = Stage::kPipeline;
  std::uint32_t instance = 0;  ///< the instance (request) id shared by
                               ///< every span of one solve
  std::int32_t parent = -1;    ///< index of the causing span, -1 = root
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

struct StageTotals {
  double self_ns = 0.0;
  std::size_t calls = 0;
};

/// Spans of one traced pass, kept in memory and written out at the end.
class Trace {
 public:
  int begin(Stage s, std::uint32_t instance, int parent);
  void end(int span) { spans_[static_cast<std::size_t>(span)].t1 = now_ns(); }
  void add(const Span& s) { spans_.push_back(s); }

  /// Self time (duration minus direct children) and calls per stage.
  [[nodiscard]] std::array<StageTotals, static_cast<std::size_t>(Stage::kCount)>
  totals() const;

  /// Sum of the root pipeline spans, in ns.
  [[nodiscard]] double pipeline_ns() const;

  /// Writes one TSV line per span: stage, instance, parent, start and end
  /// in ns relative to the first span.
  void write_tsv(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Generator wrapper for an unsharded batch: instance `index` is built by
/// `make`, timed, and kept in slot `index`. Safe to call from all pool
/// workers at once (each writes its own slot).
class Capture {
 public:
  using Make = std::function<wdag::gen::Instance(wdag::util::Xoshiro256&,
                                                 std::size_t)>;
  Capture(std::size_t count, Make make);

  [[nodiscard]] wdag::core::InstanceGenerator generator();

  /// Appends the gen spans to `trace` (instance ids offset by `id_base`).
  void export_spans(Trace& trace, std::uint32_t id_base) const;

  [[nodiscard]] std::size_t size() const { return instances_.size(); }
  [[nodiscard]] const wdag::gen::Instance& at(std::size_t i) const {
    return instances_[i];
  }

 private:
  Make make_;
  std::vector<wdag::gen::Instance> instances_;
  std::vector<std::int64_t> t0_;
  std::vector<std::int64_t> t1_;
};

/// Counters of the certification step the spans cannot express.
struct ReplayCounters {
  std::size_t instances = 0;
  std::size_t exact_runs = 0;    ///< certifications run
  std::size_t exact_useful = 0;  ///< ... that proved or improved the result
};

/// Replays one instance through the solve pipeline stage by stage and
/// returns its batch row (failures captured, never thrown).
wdag::core::BatchEntry replay_one(const wdag::api::StrategyRegistry& registry,
                                  const wdag::paths::DipathFamily& family,
                                  std::size_t index,
                                  const wdag::core::SolveOptions& options,
                                  wdag::core::SolveScratch& scratch,
                                  Trace& trace, std::uint32_t instance_id,
                                  ReplayCounters& counters);

/// Replays every captured instance into `sink` (begin / rows / end, like
/// a batch of the same seed) and returns the rows' totals.
RowTotals replay_capture(const wdag::api::StrategyRegistry& registry,
                         const Capture& capture, std::uint64_t seed,
                         wdag::api::ResultSink& sink, Trace& trace,
                         std::uint32_t id_base, ReplayCounters& counters);

/// Everything the per-layer metrics are computed from. Fields a workload
/// does not exercise stay 0, so every run prints the same metric set.
struct LayerReport {
  const Trace* trace = nullptr;
  ReplayCounters counters;
  /// Untraced solve time of the replayed instances (sum of the engine's
  /// own per-instance latencies), for the tracing overhead.
  double untraced_solve_ms = 0.0;
  /// Trace-file path, printed with the report.
  std::string trace_file;

  double batch_busy_share = 0.0;

  double serve_connect_ms = 0.0;
  double serve_send_ms = 0.0;
  double serve_receive_ms = 0.0;
  double serve_service_ms = 0.0;
  double serve_overhead_ms = 0.0;
  double serve_gen_late_ms = 0.0;
  double serve_rejected = 0.0;
  double serve_threads_end = 0.0;
  double serve_vsz_mb_end = 0.0;
  double serve_fds_end = 0.0;

  double shard_s_p50 = 0.0;
  double shard_s_max = 0.0;
  double dispatch_to_complete_s = 0.0;
  double merge_tail_s = 0.0;
  double teardown_s = 0.0;
  double shards_per_attempt = 0.0;
  double retries = 0.0;
  double redispatches = 0.0;
  double bytes_committed = 0.0;
};

/// Adds every per-layer metric to `result`.
void add_layer_metrics(Result& result, const LayerReport& report);

}  // namespace wbench
