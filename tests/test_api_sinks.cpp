// Result sinks: byte-equivalence of CsvStreamSink with the in-memory --csv
// path across thread counts and seeds, in-order delivery, JSON shape,
// aggregate folding, and multi-sink fan-out in one pass.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "wdag/wdag.hpp"

namespace {

using namespace wdag;

constexpr std::size_t kCount = 97;

/// The engine-side batch request every test in this file runs.
BatchRequest request_for(std::uint64_t seed) {
  BatchRequest request = BatchRequest::generated("random-upp", kCount);
  request.options.seed = seed;
  request.options.min_chunk = request.options.max_chunk = 8;
  return request;
}

/// The in-memory reference: same workload through a custom generator on
/// one thread, rendered via rows_table — the pre-sink `--csv` code path.
std::string in_memory_csv(std::uint64_t seed) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  Engine engine(engine_options);
  BatchRequest request;
  request.generate = [](util::Xoshiro256& rng, std::size_t) {
    return gen::workload_instance("random-upp", {}, rng);
  };
  request.count = kCount;
  request.options.seed = seed;
  request.options.min_chunk = request.options.max_chunk = 8;
  const core::BatchReport report = engine.run_batch(request);
  return report.rows_table(/*with_latency=*/false).to_csv();
}

/// Reads a whole file into a string.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Records the sink lifecycle: begin/end counts and every row index.
class RecordingSink final : public ResultSink {
 public:
  std::vector<std::size_t> indices;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t rows_before_begin = 0;
  std::size_t instance_count_at_end = 0;

  void row(const core::BatchEntry& entry) override {
    if (begins == 0) ++rows_before_begin;
    indices.push_back(entry.index);
  }

 protected:
  void on_begin(const BatchStreamInfo&) override { ++begins; }
  void on_end(const core::BatchReport& report) override {
    ++ends;
    instance_count_at_end = report.instance_count;
  }
};

TEST(CsvStreamSinkTest, ByteIdenticalToLegacyCsvAcrossThreadsAndSeeds) {
  for (const std::uint64_t seed : {std::uint64_t{4242}, std::uint64_t{99}}) {
    const std::string want = in_memory_csv(seed);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions options;
      options.threads = threads;
      Engine engine(options);
      std::ostringstream out;
      CsvStreamSink sink(out);
      BatchRequest request = request_for(seed);
      request.sinks = {&sink};
      const core::BatchReport report = engine.run_batch(request);
      EXPECT_EQ(out.str(), want) << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(report.instance_count, kCount);
    }
  }
}

TEST(CsvStreamSinkTest, FileBackedSinkProducesTheSameBytes) {
  const std::string path = testing::TempDir() + "/wdag_api_stream.csv";
  EngineOptions options;
  options.threads = 4;
  Engine engine(options);

  BatchRequest streamed = request_for(4242);
  streamed.options.keep_entries = false;
  {
    std::ofstream out(path);
    CsvStreamSink sink(out);
    streamed.sinks = {&sink};
    (void)engine.run_batch(streamed);
  }

  EXPECT_EQ(slurp(path), in_memory_csv(4242));
  std::remove(path.c_str());
}

TEST(CsvStreamSinkTest, ConstantMemoryModeStreamsTheSameBytes) {
  Engine engine(EngineOptions{});
  std::ostringstream kept, dropped;
  CsvStreamSink kept_sink(kept), dropped_sink(dropped);

  BatchRequest keep = request_for(7);
  keep.sinks = {&kept_sink};
  BatchRequest drop = request_for(7);
  drop.options.keep_entries = false;
  drop.sinks = {&dropped_sink};

  const core::BatchReport keep_report = engine.run_batch(keep);
  const core::BatchReport drop_report = engine.run_batch(drop);
  EXPECT_EQ(kept.str(), dropped.str());
  EXPECT_FALSE(keep_report.entries.empty());
  EXPECT_TRUE(drop_report.entries.empty());
  EXPECT_EQ(keep_report.strategy_counts, drop_report.strategy_counts);
}

TEST(ResultSinkTest, RowsArriveInInstanceOrderAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    Engine engine(options);
    RecordingSink sink;
    BatchRequest request = request_for(123);
    // Many chunks to reorder.
    request.options.min_chunk = request.options.max_chunk = 4;
    request.sinks = {&sink};
    (void)engine.run_batch(request);

    EXPECT_EQ(sink.begins, 1u);
    EXPECT_EQ(sink.ends, 1u);
    EXPECT_EQ(sink.rows_before_begin, 0u);
    EXPECT_EQ(sink.instance_count_at_end, kCount);
    ASSERT_EQ(sink.indices.size(), kCount);
    for (std::size_t i = 0; i < sink.indices.size(); ++i) {
      EXPECT_EQ(sink.indices[i], i) << "threads=" << threads;
    }
  }
}

TEST(AggregateSinkTest, TotalsMatchTheReportWithoutEntries) {
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  AggregateSink sink;
  BatchRequest request = request_for(777);
  request.options.keep_entries = false;  // aggregates must survive anyway
  request.sinks = {&sink};
  const core::BatchReport report = engine.run_batch(request);

  const AggregateSink::Totals& totals = sink.totals();
  EXPECT_EQ(totals.instances, report.instance_count);
  EXPECT_EQ(totals.failures, report.failure_count);
  EXPECT_EQ(totals.optimal, report.optimal_count);
  EXPECT_EQ(totals.total_wavelengths, report.total_wavelengths);
  EXPECT_EQ(totals.total_load, report.total_load);
  EXPECT_EQ(totals.strategy_counts, report.strategy_counts);
  // The rendered table names every registry strategy.
  const std::string table = sink.table().to_csv();
  EXPECT_NE(table.find("theorem1"), std::string::npos);
  EXPECT_NE(table.find("dsatur"), std::string::npos);
}

TEST(AggregateSinkTest, OutlivesTheBatchReportItWasFilledFrom) {
  Engine engine(EngineOptions{});
  AggregateSink sink;
  BatchRequest request = request_for(3);
  request.sinks = {&sink};
  // Discard the report: the sink must not dangle into it (it owns a copy
  // of the strategy names).
  (void)engine.run_batch(request);
  EXPECT_EQ(sink.totals().instances, kCount);
  const std::string table = sink.table().to_csv();
  EXPECT_NE(table.find("theorem1"), std::string::npos);
}

TEST(JsonSinkTest, StreamsOneObjectPerRowPlusTheAggregateReport) {
  Engine engine(EngineOptions{});
  std::ostringstream out;
  JsonSink sink(out);
  BatchRequest request = request_for(5);
  request.sinks = {&sink};
  const core::BatchReport report = engine.run_batch(request);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  std::string last;
  while (std::getline(lines, line)) {
    ++n;
    last = line;
    EXPECT_EQ(line.front(), '{') << n;
    EXPECT_EQ(line.back(), '}') << n;
  }
  EXPECT_EQ(n, kCount + 1);  // one per row + the final report
  EXPECT_NE(out.str().find("\"index\":0,"), std::string::npos);
  EXPECT_NE(out.str().find("\"strategy\":"), std::string::npos);
  EXPECT_EQ(last, report.to_json());
}

TEST(ResultSinkTest, MultipleSinksShareOnePassOverTheBatch) {
  Engine engine(EngineOptions{});
  std::ostringstream csv_out, json_out;
  CsvStreamSink csv(csv_out);
  JsonSink json(json_out);
  AggregateSink aggregate;

  BatchRequest request = request_for(4242);
  request.sinks = {&csv, &json, &aggregate};
  const core::BatchReport report = engine.run_batch(request);

  EXPECT_EQ(csv_out.str(), in_memory_csv(4242));
  EXPECT_EQ(aggregate.totals().instances, report.instance_count);
  EXPECT_FALSE(json_out.str().empty());
}

}  // namespace
