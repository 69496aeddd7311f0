#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "conflict/exact_color.hpp"

namespace wbench {

namespace {

using wdag::core::kStrategyDsatur;
using wdag::core::kStrategyExact;
using wdag::core::kStrategySplitMerge;
using wdag::core::kStrategyTheorem1;

constexpr std::size_t kStages = static_cast<std::size_t>(Stage::kCount);

std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }

}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kGen: return "gen.workload_instance";
    case Stage::kPipeline: return "api.pipeline";
    case Stage::kClassify: return "dag.classify";
    case Stage::kDispatch: return "api.dispatch";
    case Stage::kTheorem1: return "core.theorem1";
    case Stage::kSplitMerge: return "core.split_merge";
    case Stage::kStrategy: return "api.strategy";
    case Stage::kBuild: return "conflict.build";
    case Stage::kDsatur: return "conflict.dsatur";
    case Stage::kExact: return "conflict.exact";
    case Stage::kMaxLoad: return "paths.max_load";
    case Stage::kValidate: return "conflict.validate";
    case Stage::kRequest: return "serve.request";
    case Stage::kConnect: return "serve.connect";
    case Stage::kSend: return "serve.send";
    case Stage::kReceive: return "serve.receive";
    case Stage::kDrive: return "core.driver.drive";
    case Stage::kShard: return "remote.shard";
    case Stage::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int Trace::begin(Stage s, std::uint32_t instance, int parent) {
  const std::int64_t t = now_ns();
  spans_.push_back(Span{s, instance, parent, t, t});
  return static_cast<int>(spans_.size() - 1);
}

std::array<StageTotals, kStages> Trace::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.t1 - s.t0);
    }
  }
  std::array<StageTotals, kStages> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    StageTotals& t = out[idx(spans_[i].stage)];
    t.self_ns += static_cast<double>(spans_[i].t1 - spans_[i].t0) - child_ns[i];
    ++t.calls;
  }
  return out;
}

double Trace::pipeline_ns() const {
  double ns = 0.0;
  for (const Span& s : spans_) {
    if (s.stage == Stage::kPipeline) ns += static_cast<double>(s.t1 - s.t0);
  }
  return ns;
}

void Trace::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  out << "stage\tinstance\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << stage_name(s.stage) << '\t' << s.instance << '\t' << s.parent
        << '\t' << (s.t0 - origin) << '\t' << (s.t1 - origin) << '\n';
  }
}

Capture::Capture(std::size_t count, Make make)
    : make_(std::move(make)),
      instances_(count),
      t0_(count, 0),
      t1_(count, 0) {}

wdag::core::InstanceGenerator Capture::generator() {
  return [this](wdag::util::Xoshiro256& rng, std::size_t index) {
    const std::int64_t t0 = now_ns();
    wdag::gen::Instance inst = make_(rng, index);
    const std::int64_t t1 = now_ns();
    instances_.at(index) = inst;
    t0_[index] = t0;
    t1_[index] = t1;
    return inst;
  };
}

void Capture::export_spans(Trace& trace, std::uint32_t id_base) const {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    trace.add(Span{Stage::kGen, id_base + static_cast<std::uint32_t>(i), -1,
                   t0_[i], t1_[i]});
  }
}

wdag::core::BatchEntry replay_one(const wdag::api::StrategyRegistry& registry,
                                  const wdag::paths::DipathFamily& family,
                                  std::size_t index,
                                  const wdag::core::SolveOptions& options,
                                  wdag::core::SolveScratch& scratch,
                                  Trace& trace, std::uint32_t id,
                                  ReplayCounters& counters) {
  namespace api = wdag::api;
  namespace conflict = wdag::conflict;
  wdag::core::BatchEntry entry;
  entry.index = index;
  entry.paths = family.size();
  ++counters.instances;
  const int root = trace.begin(Stage::kPipeline, id, -1);
  // Each span closes right after its call, the same order as
  // api::solve_with; an exception leaves the open spans zero-length.
  const auto timed = [&](Stage stage, auto&& fn) {
    const int s = trace.begin(stage, id, root);
    auto out = fn();
    trace.end(s);
    return out;
  };
  try {
    const wdag::dag::DagReport report =
        timed(Stage::kClassify, [&] { return wdag::dag::classify(family.graph()); });
    if (!report.is_dag) throw std::runtime_error("the host graph must be a DAG");
    const api::StrategyId chosen =
        timed(Stage::kDispatch, [&] { return registry.dispatch(report); });
    const api::StrategyContext ctx{report, options, scratch,
                                   /*preverified=*/true};
    const api::SolverStrategy& strategy = registry.at(chosen);

    conflict::Coloring coloring;
    std::size_t wavelengths = 0;
    std::optional<std::size_t> load;
    bool optimal = false;
    if (chosen == kStrategyDsatur) {
      // The DSATUR strategy's body, split into its two conflict calls.
      timed(Stage::kBuild, [&] {
        scratch.conflict_graph.rebuild(family);
        return 0;
      });
      coloring = timed(Stage::kDsatur, [&] {
        conflict::Coloring c = conflict::dsatur_coloring(scratch.conflict_graph);
        wavelengths = conflict::normalize_colors(c);
        return c;
      });
    } else {
      const Stage stage = chosen == kStrategyTheorem1     ? Stage::kTheorem1
                          : chosen == kStrategySplitMerge ? Stage::kSplitMerge
                                                          : Stage::kStrategy;
      api::StrategyResult r =
          timed(stage, [&] { return strategy.solve(family, ctx); });
      coloring = std::move(r.coloring);
      wavelengths = r.wavelengths;
      load = r.load;
      optimal = r.optimal;
    }
    const std::size_t pi = load.has_value()
                               ? *load
                               : timed(Stage::kMaxLoad, [&] {
                                   return wdag::paths::max_load(family);
                                 });
    optimal = optimal || wavelengths == pi;
    bool validated = strategy.self_validating();
    api::StrategyId winner = chosen;

    if (!optimal && options.exact_threshold > 0 &&
        family.size() <= options.exact_threshold && chosen != kStrategyExact) {
      ++counters.exact_runs;
      timed(Stage::kBuild, [&] {
        scratch.conflict_graph.rebuild(family);
        return 0;
      });
      conflict::ChromaticResult e = timed(Stage::kExact, [&] {
        return conflict::chromatic_number(scratch.conflict_graph,
                                          options.exact_node_budget);
      });
      if (e.proven && e.chromatic_number <= wavelengths) {
        ++counters.exact_useful;
        coloring = std::move(e.coloring);
        wavelengths = e.chromatic_number;
        winner = kStrategyExact;
        optimal = true;
        validated = registry.at(kStrategyExact).self_validating();
      }
    }
    if (!validated) {
      const bool valid = timed(Stage::kValidate, [&] {
        return conflict::is_valid_assignment(family, coloring) &&
               conflict::num_colors(coloring) == wavelengths;
      });
      if (!valid) throw std::runtime_error("invalid assignment");
    }
    entry.strategy = winner;
    entry.load = pi;
    entry.wavelengths = wavelengths;
    entry.optimal = optimal;
  } catch (const std::exception& e) {
    entry.failed = true;
    entry.error = e.what();
  }
  trace.end(root);
  return entry;
}

RowTotals replay_capture(const wdag::api::StrategyRegistry& registry,
                         const Capture& capture, std::uint64_t seed,
                         wdag::api::ResultSink& sink, Trace& trace,
                         std::uint32_t id_base, ReplayCounters& counters) {
  const std::vector<std::string> names = registry.names();
  sink.begin(wdag::api::BatchStreamInfo{capture.size(), seed, &names});
  const wdag::core::SolveOptions options;  // the engine default
  wdag::core::SolveScratch scratch;
  RowTotals totals;
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const wdag::core::BatchEntry e =
        replay_one(registry, capture.at(i).family, i, options,
                   scratch, trace, id_base + static_cast<std::uint32_t>(i),
                   counters);
    totals.add(e);
    sink.row(e);
  }
  sink.end(wdag::core::BatchReport{});
  return totals;
}

void add_layer_metrics(Result& result, const LayerReport& r) {
  const auto totals = r.trace->totals();
  // Shares are of the solver stages only (generation and the replayed
  // pipeline); client-side spans overlap across connections.
  double all_ns = 0.0;
  for (std::size_t s = 0; s <= idx(Stage::kValidate); ++s) {
    all_ns += totals[s].self_ns;
  }
  const double n = static_cast<double>(std::max<std::size_t>(r.counters.instances, 1));
  const auto us = [&](Stage s) { return totals[idx(s)].self_ns / n / 1e3; };
  const auto share = [&](Stage s) {
    return all_ns > 0 ? totals[idx(s)].self_ns / all_ns : 0.0;
  };
  const auto calls = [&](Stage s) {
    return static_cast<double>(totals[idx(s)].calls) / n;
  };
  const auto per_inst = [&](const std::string& name, Stage s) {
    result.add(name + ".us", us(s), "us/inst", r.counters.instances);
  };

  result.add("trace.instances", static_cast<double>(r.counters.instances),
             "count", 0, r.trace_file);
  result.add("trace.overhead_ratio",
             r.untraced_solve_ms > 0
                 ? r.trace->pipeline_ns() / 1e6 / r.untraced_solve_ms
                 : 0.0,
             "x", r.counters.instances, "traced / untraced solve wall");
  per_inst("gen.workload_instance", Stage::kGen);
  result.add("gen.share", share(Stage::kGen), "share");
  per_inst("dag.classify", Stage::kClassify);
  result.add("dag.classify.share", share(Stage::kClassify), "share");
  per_inst("api.dispatch", Stage::kDispatch);
  per_inst("core.theorem1", Stage::kTheorem1);
  result.add("core.theorem1.calls", calls(Stage::kTheorem1), "calls/inst");
  result.add("core.theorem1.share", share(Stage::kTheorem1), "share");
  per_inst("core.split_merge", Stage::kSplitMerge);
  result.add("core.split_merge.calls", calls(Stage::kSplitMerge), "calls/inst");
  result.add("core.split_merge.share", share(Stage::kSplitMerge), "share");
  per_inst("conflict.build", Stage::kBuild);
  per_inst("conflict.dsatur", Stage::kDsatur);
  result.add("conflict.dsatur.calls", calls(Stage::kDsatur), "calls/inst");
  per_inst("conflict.exact", Stage::kExact);
  result.add("conflict.exact.calls", calls(Stage::kExact), "calls/inst");
  result.add("conflict.exact.share", share(Stage::kExact), "share");
  result.add("conflict.exact.useful_share",
             r.counters.exact_runs > 0
                 ? static_cast<double>(r.counters.exact_useful) /
                       static_cast<double>(r.counters.exact_runs)
                 : 0.0,
             "share", r.counters.exact_runs);
  per_inst("conflict.validate", Stage::kValidate);
  result.add("conflict.share",
             share(Stage::kBuild) + share(Stage::kDsatur) +
                 share(Stage::kExact) + share(Stage::kValidate),
             "share");
  per_inst("paths.max_load", Stage::kMaxLoad);

  result.add("core.batch.busy_share", r.batch_busy_share, "share");

  result.add("serve.connect_ms", r.serve_connect_ms, "ms");
  result.add("serve.send_ms", r.serve_send_ms, "ms");
  result.add("serve.receive_ms", r.serve_receive_ms, "ms");
  result.add("serve.service_ms", r.serve_service_ms, "ms");
  result.add("serve.overhead_ms", r.serve_overhead_ms, "ms");
  result.add("serve.gen_late_ms", r.serve_gen_late_ms, "ms");
  result.add("serve.rejected", r.serve_rejected, "count");
  result.add("serve.threads_end", r.serve_threads_end, "count");
  result.add("serve.vsz_mb_end", r.serve_vsz_mb_end, "MB");
  result.add("serve.fds_end", r.serve_fds_end, "count");

  result.add("remote.shard_s.p50", r.shard_s_p50, "s");
  result.add("remote.shard_s.max", r.shard_s_max, "s");
  result.add("core.driver.dispatch_to_complete_s", r.dispatch_to_complete_s, "s");
  result.add("core.driver.merge_tail_s", r.merge_tail_s, "s");
  result.add("core.driver.teardown_s", r.teardown_s, "s");
  result.add("core.driver.shards_per_attempt", r.shards_per_attempt, "ratio");
  result.add("core.driver.retries", r.retries, "count");
  result.add("core.driver.redispatches", r.redispatches, "count");
  result.add("core.driver.bytes_committed", r.bytes_committed, "bytes");
}

}  // namespace wbench
