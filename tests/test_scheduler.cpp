// Scheduler determinism and cost-model coverage for the batch engine
// (core/batch.hpp + core/cost_model.hpp + util/thread_pool.hpp):
//
//   * streamed CSV is byte-identical across threads {1, 2, 8} x chunk
//     bounds {1, cost-sized, 256} x seeds {42, 4242} — the scheduler
//     moves where work runs, never what it computes;
//   * a straggler chunk that waits until every other chunk has run does
//     not stall the batch (no wall clock: the wait is on a condition);
//   * the cost model's chunk suggestions respect their bounds and move
//     the right way (cheap observations -> coarser chunks, exact-solver
//     observations -> finer).

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/sink.hpp"
#include "core/batch.hpp"
#include "core/cost_model.hpp"
#include "gen/instance.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag;
using core::BatchOptions;
using core::BatchReport;
using core::CostModel;
using core::CostSample;
using gen::Instance;
using util::Xoshiro256;

/// The shared mixed-regime stream (tests/helpers.hpp) as a generator.
Instance mixed_instance(Xoshiro256& rng, std::size_t index) {
  return test::mixed_regime_instance(rng, index);
}

/// Chunk bounds of one byte-identity cell.
struct ChunkBounds {
  std::size_t min_chunk;
  std::size_t max_chunk;
};

/// Streams a generated batch through a CsvStreamSink and returns the bytes.
std::string batch_csv(api::Engine& engine, std::uint64_t seed,
                      ChunkBounds bounds, std::size_t count) {
  std::ostringstream out;
  api::CsvStreamSink sink(out);
  api::BatchRequest request;
  request.generate = mixed_instance;
  request.count = count;
  request.options.seed = seed;
  request.options.min_chunk = bounds.min_chunk;
  request.options.max_chunk = bounds.max_chunk;
  request.options.keep_entries = false;
  request.sinks = {&sink};
  const BatchReport report = engine.run_batch(request);
  EXPECT_EQ(report.instance_count, count);
  EXPECT_GE(report.chunk_size, bounds.min_chunk);
  EXPECT_LE(report.chunk_size, bounds.max_chunk);
  return out.str();
}

TEST(SchedulerDeterminismTest, CsvBytesIgnoreThreadsAndChunkBounds) {
  constexpr std::size_t kCount = 120;
  const BatchOptions defaults;
  const ChunkBounds cells[] = {
      {1, 1}, {defaults.min_chunk, defaults.max_chunk}, {256, 256}};
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{4242}}) {
    // Reference: one thread, one instance per chunk.
    api::EngineOptions ref_options;
    ref_options.threads = 1;
    api::Engine reference_engine(ref_options);
    const std::string want =
        batch_csv(reference_engine, seed, {1, 1}, kCount);
    ASSERT_FALSE(want.empty());

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      api::EngineOptions options;
      options.threads = threads;
      api::Engine engine(options);
      for (const ChunkBounds& bounds : cells) {
        // Run each cell twice: the second run sizes its chunks from the
        // now-trained cost model (likely another chunk size) — the bytes
        // still cannot move.
        for (int run = 0; run < 2; ++run) {
          EXPECT_EQ(batch_csv(engine, seed, bounds, kCount), want)
              << "seed=" << seed << " threads=" << threads
              << " chunk=[" << bounds.min_chunk << ", " << bounds.max_chunk
              << "] run=" << run;
        }
      }
    }
  }
}

TEST(SchedulerStragglerTest, ChunkZeroWaitingOnAllOthersFinishes) {
  // Chunk 0 (instance 0) blocks until every other instance has been
  // solved. With 2+ workers claiming chunks in ascending order the rest
  // of the range runs past it, and the 63 buffered chunks stay under the
  // reorder window's 256-chunk bound, so nothing waits on chunk 0 but
  // chunk 0's own rows. A scheduler that tied chunk 0 to the range
  // behind it would hang here; no assertion reads a clock.
  constexpr std::size_t kCount = 64;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t others_done = 0;
  const core::BatchItemSolver item =
      [&](util::Xoshiro256&, std::size_t i, core::BatchEntry& entry,
          core::SolveScratch&) {
        entry.strategy = core::kStrategyTheorem1;
        entry.paths = i;
        std::unique_lock<std::mutex> lock(mu);
        if (i == 0) {
          cv.wait(lock, [&] { return others_done == kCount - 1; });
        } else if (++others_done == kCount - 1) {
          cv.notify_all();
        }
      };
  std::ostringstream out;
  api::CsvStreamSink sink(out);
  api::ResultSink* sinks[] = {&sink};
  BatchOptions options;
  options.threads = 2;
  options.min_chunk = 1;
  options.max_chunk = 1;
  options.keep_entries = false;
  const BatchReport report = core::run_batch_items(
      kCount, item, options, core::builtin_strategy_names(), sinks);
  EXPECT_EQ(report.instance_count, kCount);
  EXPECT_EQ(report.chunk_size, 1u);
  // Rows still arrive in instance order.
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << i;
    EXPECT_EQ(line.substr(0, line.find(',')), std::to_string(i));
  }
}

/// A request for a generated mixed-regime batch of `count` instances.
api::BatchRequest generated_request(std::size_t count,
                                    const BatchOptions& options) {
  api::BatchRequest request;
  request.generate = mixed_instance;
  request.count = count;
  request.options = options;
  return request;
}

TEST(SchedulerReportTest, ReportsTheCostSizedChunk) {
  api::EngineOptions engine_options;
  engine_options.threads = 2;
  api::Engine engine(engine_options);
  BatchOptions options;
  options.min_chunk = 16;
  options.max_chunk = 16;
  const BatchReport report = engine.run_batch(generated_request(64, options));
  EXPECT_EQ(report.chunk_size, 16u);
  EXPECT_EQ(report.failure_count, 0u);
  EXPECT_NE(report.to_json().find("\"chunk\":16"), std::string::npos);
}

TEST(SchedulerOptionsTest, RejectsInvertedChunkBounds) {
  BatchOptions options;
  options.min_chunk = 8;
  options.max_chunk = 4;
  api::Engine engine(api::EngineOptions{});
  EXPECT_THROW((void)engine.run_batch(generated_request(16, options)),
               wdag::InvalidArgument);
}

TEST(SchedulerBackpressureTest, BoundedReorderWindowStaysCorrectBehindAStraggler) {
  // 600 one-instance chunks, instance 0 sleeping long enough for the
  // other workers to race past the 256-chunk reorder window: the
  // dispatcher must backpressure (bounded memory) and still emit every
  // row in order. A deadlock here shows up as a test timeout.
  const core::BatchItemSolver item =
      [](util::Xoshiro256&, std::size_t i, core::BatchEntry& entry,
         core::SolveScratch&) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        entry.strategy = core::kStrategyTheorem1;
        entry.paths = i;
      };
  std::ostringstream out;
  api::CsvStreamSink sink(out);
  api::ResultSink* sinks[] = {&sink};
  BatchOptions options;
  options.threads = 4;
  options.min_chunk = 1;
  options.max_chunk = 1;
  options.keep_entries = false;
  const core::BatchReport report = core::run_batch_items(
      600, item, options, core::builtin_strategy_names(), sinks);
  EXPECT_EQ(report.instance_count, 600u);
  // Rows arrived strictly in instance order despite the straggler.
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << i;
    EXPECT_EQ(line.substr(0, line.find(',')), std::to_string(i));
  }
}

TEST(SchedulerBackpressureTest, ThrowingSinkFailsTheBatchInsteadOfDeadlocking) {
  // A sink that dies mid-stream poisons the bounded reorder window: the
  // batch must surface the error (after letting the remaining chunks
  // run), not block the other submitters forever behind the chunk whose
  // delivery never completed. A regression here shows up as a timeout.
  class ExplodingSink final : public api::ResultSink {
   public:
    void row(const core::BatchEntry& entry) override {
      if (entry.index == 5) throw std::runtime_error("disk full");
    }
  };
  ExplodingSink sink;
  api::ResultSink* sinks[] = {&sink};
  const core::BatchItemSolver item =
      [](util::Xoshiro256&, std::size_t, core::BatchEntry& entry,
         core::SolveScratch&) { entry.strategy = core::kStrategyTheorem1; };
  BatchOptions options;
  options.threads = 4;
  options.min_chunk = 1;
  options.max_chunk = 1;
  options.keep_entries = false;
  EXPECT_THROW(core::run_batch_items(600, item, options,
                                     core::builtin_strategy_names(), sinks),
               std::runtime_error);
}

TEST(LatencyPercentileTest, NearestRankValuesAreExact) {
  // Inject a known latency sample through the driver's item callback
  // (millis is whatever the item wrote): (i * 37) mod 1000 is a
  // permutation of 0..999, shifted to 1..1000. Nearest-rank percentiles
  // of 1..1000 are exact: p50 = 500, p90 = 900, p99 = 990, max = 1000.
  const core::BatchItemSolver item =
      [](util::Xoshiro256&, std::size_t i, core::BatchEntry& entry,
         core::SolveScratch&) {
        entry.strategy = core::kStrategyTheorem1;
        entry.millis = static_cast<double>((i * 37) % 1000 + 1);
      };
  BatchOptions options;
  options.threads = 2;
  const core::BatchReport report = core::run_batch_items(
      1000, item, options, core::builtin_strategy_names());
  EXPECT_DOUBLE_EQ(report.latency.p50, 500.0);
  EXPECT_DOUBLE_EQ(report.latency.p90, 900.0);
  EXPECT_DOUBLE_EQ(report.latency.p99, 990.0);
  EXPECT_DOUBLE_EQ(report.latency.max, 1000.0);
  EXPECT_DOUBLE_EQ(report.latency.mean, 500.5);

  // Same sample through the streaming (keep_entries = false) path.
  BatchOptions streaming = options;
  streaming.keep_entries = false;
  const core::BatchReport lean = core::run_batch_items(
      1000, item, streaming, core::builtin_strategy_names());
  EXPECT_DOUBLE_EQ(lean.latency.p50, 500.0);
  EXPECT_DOUBLE_EQ(lean.latency.p90, 900.0);
  EXPECT_DOUBLE_EQ(lean.latency.p99, 990.0);
  EXPECT_DOUBLE_EQ(lean.latency.max, 1000.0);
}

TEST(CostModelTest, SuggestChunkRespectsBounds) {
  const CostModel model;
  for (std::size_t count : {std::size_t{10}, std::size_t{1000},
                            std::size_t{100000}}) {
    const std::size_t chunk = model.suggest_chunk(count, 4, 10, 16);
    EXPECT_GE(chunk, 10u) << count;
    EXPECT_LE(chunk, 16u) << count;
  }
}

TEST(CostModelTest, CheapWorkBatchesCoarseExpensiveWorkSplitsFine) {
  CostModel cheap;
  CostModel expensive;
  std::vector<CostSample> cheap_samples(200,
                                        {core::kStrategyTheorem1, 32, 5.0});
  std::vector<CostSample> costly_samples(200,
                                         {core::kStrategyExact, 32, 5000.0});
  cheap.observe(cheap_samples);
  expensive.observe(costly_samples);

  EXPECT_LT(cheap.expected_micros(), expensive.expected_micros());
  const std::size_t coarse = cheap.suggest_chunk(100000, 4, 1, 4096);
  const std::size_t fine = expensive.suggest_chunk(100000, 4, 1, 4096);
  EXPECT_GT(coarse, fine);
  EXPECT_EQ(fine, 1u);  // 5ms instances: one straggler per chunk
  // Coarse chunks still leave ~8 chunks per worker to steal.
  EXPECT_LE(coarse, 100000u / (8 * 4));
}

TEST(CostModelTest, StragglerGuardSplitsFineEvenWhenCheapWorkDominates) {
  // Cheap observations across three strategies drag the mean down, but
  // two observed ~12ms exact solves are enough for the guard: a chunk
  // must never hold more than ~8ms of worst-case (all-straggler) work.
  CostModel model;
  for (const core::StrategyId s : {core::kStrategyTheorem1,
                                   core::kStrategySplitMerge,
                                   core::kStrategyDsatur}) {
    std::vector<CostSample> cheap(200, {s, 32, 5.0});
    model.observe(cheap);
  }
  std::vector<CostSample> heavy(2, {core::kStrategyExact, 32, 12000.0});
  model.observe(heavy);
  EXPECT_LT(model.expected_micros(), 500.0);  // mean alone would batch coarse
  EXPECT_EQ(model.suggest_chunk(100000, 4, 1, 4096), 1u);
}

TEST(CostModelTest, EstimatesTrackObservationsPerStrategy) {
  CostModel model;
  std::vector<CostSample> samples(64, {core::kStrategyDsatur, 32, 250.0});
  model.observe(samples);
  EXPECT_NEAR(model.estimate_micros(core::kStrategyDsatur, 32), 250.0, 60.0);
  // A nearby size bucket falls back to the nearest observed one.
  EXPECT_NEAR(model.estimate_micros(core::kStrategyDsatur, 64), 250.0, 60.0);
  // User-registered strategies past the built-ins are accepted.
  std::vector<CostSample> custom(8, {CostSample{7, 16, 90.0}});
  model.observe(custom);
  EXPECT_NEAR(model.estimate_micros(7, 16), 90.0, 30.0);
}

}  // namespace
