// wdagbench — the wdag benchmark binary.
//
//   wdagbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--wdag-bin PATH] [--work-dir DIR]
//
// Prints a table of every metric (value, unit, sample count), a labels
// line, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced pass prints the per-layer ones. wdagbench/README.md
// describes the workloads.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "util/socket.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wdagbench: %s\nusage: wdagbench --workload "
               "upp-batch|conflict-batch|serve-churn|drive-remote --seed N "
               "--seconds S --trace 0|1 [--commit ID] "
               "[--wdag-bin PATH] [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

wbench::Args parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  wbench::Args a;
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") a.workload = v;
      else if (k == "seed") a.seed = std::stoull(v);
      else if (k == "seconds") a.seconds = std::stod(v);
      else if (k == "trace") a.trace = std::stoi(v) != 0;
      else if (k == "commit") a.commit = v;
      else if (k == "wdag-bin") a.wdag_bin = v;
      else if (k == "work-dir") a.work_dir = v;
      else usage("unknown flag --" + k);
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const wbench::Args args = parse(argc, argv);
  using Run = wbench::Result (*)(const wbench::Args&);
  const std::map<std::string, Run> workloads = {
      {"upp-batch", wbench::run_upp_batch},
      {"conflict-batch", wbench::run_conflict_batch},
      {"serve-churn", wbench::run_serve_churn},
      {"drive-remote", wbench::run_drive_remote},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) usage("unknown workload " + args.workload);
  wdag::util::ignore_sigpipe();
  try {
    std::filesystem::create_directories(args.work_dir);
    const wbench::Result result = it->second(args);
    result.print(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wdagbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
