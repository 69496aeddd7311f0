// Example: drive the parallel batch engine through the public API.
//
// One wdag::Engine owns the pool and the per-worker arenas for the whole
// process. A BatchRequest names a generated workload; result sinks
// receive every per-instance row in strict instance order — here an
// AggregateSink folds per-strategy totals while a CsvStreamSink captures
// the deterministic row bytes, both in one pass over the batch.

#include <cstddef>
#include <iostream>
#include <sstream>

#include "wdag/wdag.hpp"

int main() {
  using namespace wdag;

  Engine engine;  // hardware-concurrency pool

  BatchRequest request = BatchRequest::generated("random-upp", 400);
  request.options.seed = 42;

  // Sinks see rows in instance order at any thread count.
  AggregateSink aggregate;
  std::ostringstream csv;
  CsvStreamSink csv_sink(csv);
  request.sinks = {&aggregate, &csv_sink};

  const core::BatchReport report = engine.run_batch(request);

  std::cout << report.histogram_table();
  std::cout << aggregate.table();
  std::cout << "throughput: " << report.instances_per_second()
            << " instances/sec on " << report.threads_used << " threads\n";
  std::cout << report.to_json() << "\n";

  // The streamed rows are reproducible: the same seed gives byte-identical
  // CSV on any machine and thread count.
  std::ostringstream again;
  CsvStreamSink again_sink(again);
  BatchRequest rerun = BatchRequest::generated("random-upp", 400);
  rerun.options.seed = 42;
  rerun.options.keep_entries = false;  // constant memory: sinks only
  rerun.sinks = {&again_sink};
  (void)engine.run_batch(rerun);

  std::cout << "deterministic: "
            << (csv.str() == again.str() ? "yes" : "NO — this is a bug")
            << "\n";
  return 0;
}
