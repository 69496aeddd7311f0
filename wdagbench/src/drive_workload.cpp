// drive-remote: two remote::ShardWorker peers (two engine threads each) on
// loopback, driven by core::drive over a contiguous random-upp plan. Every
// validated shard is committed to disk (tmp + fsync + rename) and
// journaled before the merge streams it out.
//
// The merged bytes of every drive must equal an unsharded run_batch of
// the same request; the canary drive of each set-up must match the same
// pinned digest as the upp-batch canary batch (the byte-identity contract
// across transports and shard layouts).

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "remote/worker.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace wbench {

namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kCanaryCount = 2000;

/// Two in-process workers, started on construction, stopped on
/// destruction.
class Workers {
 public:
  Workers() {
    for (auto& w : workers_) {
      wdag::remote::ShardWorkerOptions o;
      o.engine_threads = 2;
      w = std::make_unique<wdag::remote::ShardWorker>(o);
      w->start();
      endpoints_.push_back("127.0.0.1:" + std::to_string(w->port()));
    }
  }
  ~Workers() {
    // Stop both before joining either: each notices within one poll tick.
    for (auto& w : workers_) w->request_stop();
    for (auto& w : workers_) w->join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  [[nodiscard]] const std::vector<std::string>& endpoints() const {
    return endpoints_;
  }

 private:
  std::unique_ptr<wdag::remote::ShardWorker> workers_[2];
  std::vector<std::string> endpoints_;
};

wdag::core::ShardSpec spec(std::uint64_t seed, std::size_t count) {
  wdag::core::ShardSpec s;
  s.family = "random-upp";
  s.count = count;
  s.seed = seed;
  return s;
}

/// One drive's outcome.
struct DriveRun {
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  std::size_t bytes = 0;
  double wall = 0.0;  ///< the whole drive() call
  wdag::core::DriveReport report;  ///< wall_seconds: start to the merged
                                   ///< output's last byte ("done")
  std::vector<wdag::core::DriveEvent> events;
};

DriveRun run_drive(const Args& args, const Workers& workers,
                   const wdag::core::ShardPlan& plan) {
  DriveRun run;
  wdag::core::DriveOptions o;
  o.remote_workers = workers.endpoints();
  o.wdag_binary = args.wdag_bin.empty() ? "wdag" : args.wdag_bin;
  o.work_dir = args.work_dir + "/drive-" + std::to_string(::getpid());
  std::filesystem::create_directories(o.work_dir);
  HashBuf buf;
  std::ostream out(&buf);
  const Clock::time_point t0 = Clock::now();
  try {
    run.report = wdag::core::drive(plan, o, out, [&](const wdag::core::DriveEvent& e) {
      run.events.push_back(e);
    });
    run.ok = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.wall = seconds_between(t0, Clock::now());
  run.digest = buf.digest();
  run.bytes = buf.bytes();
  std::filesystem::remove_all(o.work_dir);
  return run;
}

/// Fresh workers + the canary drive up to its merged output, timed;
/// checked against the pin.
double timed_setup(Result& res, const Args& args) {
  const Clock::time_point t0 = Clock::now();
  const Workers workers;
  const double started = seconds_between(t0, Clock::now());
  const DriveRun run =
      run_drive(args, workers, wdag::core::ShardPlan(spec(kCanarySeed, kCanaryCount), 2));
  const double s = started + run.report.wall_seconds;
  res.attempt(kCanaryCount);
  res.check(run.ok, "canary drive failed: " + run.error, kCanaryCount);
  res.check(run.digest == kUppCanaryDigest,
            "canary drive bytes differ from the pinned random-upp canary",
            kCanaryCount);
  return s;
}

}  // namespace

Result run_drive_remote(const Args& args) {
  Result res;
  const std::size_t count = 32768;
  const wdag::core::ShardPlan plan(spec(args.seed, count), kShards);

  // The unsharded reference: the bytes every drive must merge into. The
  // traced pass captures its instances for the stage-by-stage replay.
  wdag::api::Engine engine(wdag::api::EngineOptions{load_threads(), {}});
  wdag::api::BatchRequest req = wdag::api::BatchRequest::generated("random-upp", count);
  req.options.seed = args.seed;
  Capture capture(args.trace ? count : 0,
                  [](wdag::util::Xoshiro256& rng, std::size_t) {
                    return wdag::gen::workload_instance("random-upp", {}, rng);
                  });
  if (args.trace) {
    req.generator.reset();
    req.generate = capture.generator();
    req.count = count;
  }
  DigestSink reference;
  req.sinks = {&reference};
  (void)engine.run_batch(req);
  const RowTotals ref = reference.totals();
  res.check(ref.failed == 0 && ref.below_load == 0,
            "reference batch has failed rows or w < pi", ref.failed + ref.below_load);

  const Workers workers;
  (void)run_drive(args, workers, plan);  // warm-up
  // Every connection leaks a session thread stack in the workers, so the
  // peak grows with the number of drives, and a set-up's extra workers
  // raise it too: read it after the warm-up, before any set-up.
  const double rss_mb = peak_rss_mb();
  std::vector<double> rates, done_ms, shard_s, dispatch_to_complete, merge_tail,
      teardown;
  std::size_t attempts = 0, retries = 0, redispatches = 0, bytes = 0;
  Trace trace;
  std::uint32_t drive_id = 0;
  // The traced pass leaves half its time to the replay.
  Args timing = args;
  if (args.trace) timing.seconds *= 0.5;
  const auto step = [&] {
    const std::int64_t t0 = now_ns();
    const DriveRun run = run_drive(args, workers, plan);
    res.attempt(count);
    if (!run.ok) {
      res.check(false, "drive failed: " + run.error, count);
      return;
    }
    res.check(run.digest == reference.digest(),
              "merged drive bytes differ from the unsharded batch", count);
    // The answer is complete at "done"; drive() then stops the transports'
    // probers, which sleep in 50 ms ticks (reported as teardown_s).
    rates.push_back(static_cast<double>(count) / run.report.wall_seconds);
    done_ms.push_back(run.report.wall_seconds * 1e3);
    teardown.push_back(run.wall - run.report.wall_seconds);
    bytes = run.bytes;
    retries += run.report.retries;
    redispatches += run.report.redispatches;
    double last_complete = 0.0;
    const int root = static_cast<int>(trace.size());
    trace.add(Span{Stage::kDrive, drive_id, -1, t0,
                   t0 + static_cast<std::int64_t>(run.wall * 1e9)});
    for (const wdag::core::DriveEvent& e : run.events) {
      if (e.kind == "dispatch" || e.kind == "speculate") ++attempts;
      if (e.kind == "complete") {
        dispatch_to_complete.push_back(e.elapsed_seconds);
        last_complete = std::max(last_complete, e.at_seconds);
        const auto end = t0 + static_cast<std::int64_t>(e.at_seconds * 1e9);
        trace.add(Span{Stage::kShard, drive_id, root,
                       end - static_cast<std::int64_t>(e.elapsed_seconds * 1e9), end});
      }
      if (e.kind == "done") merge_tail.push_back(e.at_seconds - last_complete);
    }
    for (const wdag::core::DriveShardStats& s : run.report.shards) {
      shard_s.push_back(s.seconds);
    }
    ++drive_id;
  };
  const std::vector<double> setup_s = run_for(
      timing, res,
      args.trace ? std::function<double()>{} : [&] { return timed_setup(res, args); },
      step);

  if (!args.trace) {
    res.add("setup_s", median(setup_s), "s", setup_s.size(),
            "two fresh workers + canary drive to done, spread over the run");
    res.add("inst_per_s", median(rates), "1/s", rates.size(),
            "median over drives of " + std::to_string(count) + ", to done");
    res.add("lat_p50_ms", median(done_ms), "ms", done_ms.size(),
            "per drive, start to done");
    // p90, not p99: a 20-s run makes only 30-60 drives, and a fixed
    // percentile keeps a slower build from reporting a lower one.
    res.add("lat_p99_ms", quantile(done_ms, 0.9), "ms", done_ms.size(),
            "p90 over drives, start to done");
    res.add("wavelengths_per_load",
            static_cast<double>(ref.wavelengths) / static_cast<double>(ref.load),
            "ratio", ref.rows);
    res.add("optimal_share",
            static_cast<double>(ref.optimal) / static_cast<double>(ref.rows),
            "share", ref.rows);
    res.add("ok_share",
            1.0 - static_cast<double>(res.failed()) /
                      static_cast<double>(res.attempted()),
            "share", res.attempted());
    res.add("peak_rss_mb", rss_mb, "MB", 0,
            "after the reference batch and the warm-up drive");
    return res;
  }

  // Traced pass: driver spans from the events above, plus the replay of
  // the reference instances, which must reproduce the merged bytes.
  LayerReport layers;
  layers.trace = &trace;
  capture.export_spans(trace, drive_id);
  DigestSink replayed;
  const RowTotals rt = replay_capture(engine.strategies(), capture, args.seed,
                                      replayed, trace, drive_id, layers.counters);
  res.check(replayed.digest() == reference.digest() && rt.wavelengths == ref.wavelengths,
            "replay rows differ from the drive's merged bytes (trace rejected)",
            count);
  layers.untraced_solve_ms = ref.solve_ms;
  double shard_sum = 0.0;
  for (const double s : shard_s) shard_sum += s;
  double drive_sum = 0.0;
  for (const double r : rates) drive_sum += static_cast<double>(count) / r;
  layers.batch_busy_share = drive_sum > 0 ? shard_sum / (2.0 * drive_sum) : 0.0;
  layers.shard_s_p50 = median(shard_s);
  layers.shard_s_max = quantile(shard_s, 1.0);
  layers.dispatch_to_complete_s = median(dispatch_to_complete);
  layers.merge_tail_s = median(merge_tail);
  layers.teardown_s = median(teardown);
  layers.shards_per_attempt =
      attempts > 0 ? static_cast<double>(kShards * drive_id) / static_cast<double>(attempts)
                   : 0.0;
  layers.retries = static_cast<double>(retries);
  layers.redispatches = static_cast<double>(redispatches);
  layers.bytes_committed = static_cast<double>(bytes);
  layers.trace_file = args.work_dir + "/trace-" + args.workload + ".tsv";
  trace.write_tsv(layers.trace_file);
  add_layer_metrics(res, layers);
  return res;
}

}  // namespace wbench
