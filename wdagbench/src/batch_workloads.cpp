// upp-batch and conflict-batch: batches through api::Engine::run_batch on
// load_threads() engine threads, rows streaming into the digesting sink.
//
// A run is a closed loop of identical requests of `count` instances on
// one engine (after one unmeasured warm-up request). Every request's CSV
// bytes must equal the first one's, every row must satisfy w >= pi, and
// the canary request run on each freshly built engine during a set-up
// must match its pinned digest.

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace wbench {

namespace {

using wdag::api::BatchRequest;
using wdag::api::Engine;
using wdag::api::EngineOptions;

/// The traced pass stops after this many instances (or at the deadline).
constexpr std::size_t kMaxTraced = 65536;

struct BatchWorkload {
  std::size_t threads = 1;
  std::size_t count = 0;         ///< instances per request
  std::size_t canary_count = 0;  ///< instances of the set-up canary
  std::uint64_t canary_digest = 0;
  /// The request of `count` instances at `seed`, sinks left empty.
  std::function<BatchRequest(std::uint64_t seed, std::size_t count)> request;
  /// The same instances as a generator callback, for the traced pass.
  std::function<Capture::Make(std::size_t count)> make;
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_rows(Result& res, const RowTotals& t, const std::string& what) {
  res.check(t.failed == 0, what + ": " + std::to_string(t.failed) + " rows failed",
            t.failed);
  res.check(t.below_load == 0,
            what + ": " + std::to_string(t.below_load) + " rows with w < pi",
            t.below_load);
}

/// Fresh engine + canary request, timed; checked against the pin.
double timed_setup(Result& res, const BatchWorkload& w) {
  const Clock::time_point t0 = Clock::now();
  Engine engine(EngineOptions{w.threads, {}});
  DigestSink sink;
  BatchRequest req = w.request(kCanarySeed, w.canary_count);
  req.sinks = {&sink};
  (void)engine.run_batch(req);
  const double s = seconds_between(t0, Clock::now());
  res.attempt(w.canary_count);
  check_rows(res, sink.totals(), "canary");
  res.check(sink.digest() == w.canary_digest,
            "canary CSV digest " + hex(sink.digest()) + " != pinned " +
                hex(w.canary_digest),
            w.canary_count);
  return s;
}

Result run_untraced(const Args& args, const BatchWorkload& w) {
  Result res;
  Engine engine(EngineOptions{w.threads, {}});
  BatchRequest req = w.request(args.seed, w.count);
  {
    DigestSink warm;
    req.sinks = {&warm};
    (void)engine.run_batch(req);
  }

  FastestSolve fastest(w.count);
  std::vector<double> rates;
  std::uint64_t digest0 = 0;
  RowTotals first;
  std::size_t bad_reps = 0;
  const std::vector<double> setup_s = run_for(
      args, res, [&] { return timed_setup(res, w); },
      [&] {
        DigestSink sink(&fastest);
        req.sinks = {&sink};
        const Clock::time_point t0 = Clock::now();
        (void)engine.run_batch(req);
        const double wall = seconds_between(t0, Clock::now());
        rates.push_back(static_cast<double>(w.count) / wall);
        res.attempt(w.count);
        if (rates.size() == 1) {
          digest0 = sink.digest();
          first = sink.totals();
          check_rows(res, first, "request");
        } else if (sink.digest() != digest0) {
          ++bad_reps;
          res.fail(w.count);
        }
      });
  res.check(bad_reps == 0, std::to_string(bad_reps) +
                               " requests streamed other CSV bytes than the first",
            0);
  // Every request solves the same instances, so each instance's latency
  // is its fastest solve of the run; the percentiles run over instances.
  const std::vector<double> latencies_ms = fastest.values();
  const std::string per_instance =
      "over instances, each its fastest of " + std::to_string(rates.size()) +
      " solves";

  res.add("setup_s", median(setup_s), "s", setup_s.size(),
          "fresh engine + canary batch, spread over the run");
  res.add("inst_per_s", median(rates), "1/s", rates.size(),
          "median over requests of " + std::to_string(w.count) + " on " +
              std::to_string(w.threads) + " threads");
  res.add("lat_p50_ms", median(latencies_ms), "ms", latencies_ms.size(),
          per_instance);
  res.add("lat_p99_ms", quantile(latencies_ms, 0.99), "ms", latencies_ms.size(),
          per_instance);
  res.add("wavelengths_per_load",
          static_cast<double>(first.wavelengths) / static_cast<double>(first.load),
          "ratio", first.rows);
  res.add("optimal_share",
          static_cast<double>(first.optimal) / static_cast<double>(first.rows),
          "share", first.rows);
  res.add("ok_share",
          1.0 - static_cast<double>(res.failed()) /
                    static_cast<double>(res.attempted()),
          "share", res.attempted());
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

Result run_traced(const Args& args, const BatchWorkload& w) {
  Result res;
  res.probe(host_probe_mops());
  Engine engine(EngineOptions{w.threads, {}});
  BatchRequest req = w.request(args.seed, w.count);
  {
    DigestSink warm;
    req.sinks = {&warm};
    (void)engine.run_batch(req);
  }

  // Untraced reference: the bytes the replay must reproduce, the solve
  // time it is compared with, and the scheduler's busy share.
  const Clock::time_point start = Clock::now();
  const double untraced_budget = 0.3 * args.seconds;
  std::vector<double> busy;
  RowTotals ref;
  std::uint64_t ref_digest = 0;
  do {
    DigestSink sink;
    req.sinks = {&sink};
    const Clock::time_point t0 = Clock::now();
    const wdag::core::BatchReport report = engine.run_batch(req);
    const double wall = seconds_between(t0, Clock::now());
    res.attempt(w.count);
    busy.push_back(sink.totals().solve_ms / 1e3 /
                   (static_cast<double>(report.threads_used) * wall));
    if (busy.size() == 1) {
      ref = sink.totals();
      ref_digest = sink.digest();
      check_rows(res, ref, "request");
    } else {
      res.check(sink.digest() == ref_digest, "untraced request bytes differ",
                w.count);
    }
  } while (seconds_between(start, Clock::now()) < untraced_budget);
  res.probe(host_probe_mops());

  Trace trace;
  LayerReport layers;
  layers.trace = &trace;
  layers.batch_busy_share = median(busy);
  std::uint32_t id_base = 0;
  do {
    Capture capture(w.count, w.make(w.count));
    BatchRequest traced = w.request(args.seed, w.count);
    traced.generator.reset();
    traced.generate = capture.generator();
    DigestSink captured;
    traced.sinks = {&captured};
    (void)engine.run_batch(traced);
    res.attempt(w.count);
    capture.export_spans(trace, id_base);

    DigestSink replayed;
    const RowTotals rt = replay_capture(engine.strategies(), capture, args.seed,
                                        replayed, trace, id_base,
                                        layers.counters);
    // Faithfulness: the capturing batch and the replay must both reproduce
    // the untraced bytes and sum of wavelengths, or the trace is rejected.
    res.check(captured.digest() == ref_digest,
              "capturing batch bytes differ from the untraced run", w.count);
    res.check(replayed.digest() == ref_digest && rt.wavelengths == ref.wavelengths,
              "replay rows differ from the untraced run (trace rejected)",
              w.count);
    layers.untraced_solve_ms += ref.solve_ms;
    id_base += static_cast<std::uint32_t>(w.count);
  } while (id_base < kMaxTraced &&
           seconds_between(start, Clock::now()) < args.seconds);
  res.probe(host_probe_mops());

  layers.trace_file = args.work_dir + "/trace-" + args.workload + ".tsv";
  trace.write_tsv(layers.trace_file);
  add_layer_metrics(res, layers);
  return res;
}

Result run(const Args& args, const BatchWorkload& w) {
  return args.trace ? run_traced(args, w) : run_untraced(args, w);
}

// ---------------------------------------------------------------------------
// conflict-batch: a fixed, index-keyed mix. Dense DSATUR hosts (fat-chain; a
// 6x8 grid with 64 paths, above the exact-certification threshold), exact
// gadgets (havet h=2, odd-cycle k=20), and a trailing run of havet h=3
// stragglers that the batch scheduler has to absorb.
// ---------------------------------------------------------------------------

wdag::gen::Instance conflict_mix(wdag::util::Xoshiro256& rng,
                                 std::size_t index, std::size_t count) {
  using wdag::gen::WorkloadParams;
  using wdag::gen::workload_instance;
  const std::size_t stragglers = std::max<std::size_t>(count / 128, 1);
  if (index + stragglers >= count) {
    WorkloadParams p;
    p.h = 3;
    return workload_instance("havet", p, rng);
  }
  switch (index % 4) {
    case 0:
      return workload_instance("fat-chain", WorkloadParams{}, rng);
    case 1: {
      WorkloadParams p;
      p.rows = 6;
      p.cols = 8;
      p.paths = 64;
      return workload_instance("grid", p, rng);
    }
    case 2: {
      WorkloadParams p;
      p.h = 2;
      return workload_instance("havet", p, rng);
    }
    default: {
      WorkloadParams p;
      p.k = 20;
      return workload_instance("odd-cycle", p, rng);
    }
  }
}

Capture::Make conflict_make(std::size_t count) {
  return [count](wdag::util::Xoshiro256& rng, std::size_t index) {
    return conflict_mix(rng, index, count);
  };
}

}  // namespace

Result run_upp_batch(const Args& args) {
  BatchWorkload w;
  w.threads = load_threads();
  w.count = 16384;
  w.canary_count = 2000;
  w.canary_digest = kUppCanaryDigest;
  w.request = [](std::uint64_t seed, std::size_t count) {
    BatchRequest r = BatchRequest::generated("random-upp", count);
    r.options.seed = seed;
    return r;
  };
  w.make = [](std::size_t) -> Capture::Make {
    return [](wdag::util::Xoshiro256& rng, std::size_t) {
      return wdag::gen::workload_instance("random-upp", {}, rng);
    };
  };
  return run(args, w);
}

Result run_conflict_batch(const Args& args) {
  BatchWorkload w;
  w.threads = load_threads();
  w.count = 4096;
  w.canary_count = 512;
  w.canary_digest = kConflictCanaryDigest;
  w.request = [](std::uint64_t seed, std::size_t count) {
    BatchRequest r;
    r.generate = conflict_make(count);
    r.count = count;
    r.options.seed = seed;
    return r;
  };
  w.make = conflict_make;
  return run(args, w);
}

}  // namespace wbench
