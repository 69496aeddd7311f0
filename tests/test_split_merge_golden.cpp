// Byte-identity pin for the solve pipeline on UPP workloads.
//
// An FNV-1a digest over (strategy, w, pi, optimal, every coloring entry)
// of api::solve_with on a fixed-seed stream of random-upp instances and
// the fixed paper instances. The digest was recorded before the
// split-merge recursion moved onto its per-depth arena; any change to a
// single wavelength of a single instance changes it. Rewrites of the
// structural colorers must keep it.
//
// The same loop checks the split recursion's depth against the host's
// cyclomatic internal-cycle count: each split removes exactly one
// internal cycle, so SplitMergeResult::levels == DagReport::internal_cycles.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "api/strategy.hpp"
#include "core/split_merge.hpp"
#include "gen/workloads.hpp"
#include "util/rng.hpp"

namespace {

using wdag::gen::WorkloadParams;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Digest {
  std::uint64_t h = kFnvOffset;
  std::size_t split_merge_checks = 0;

  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= kFnvPrime;
    }
  }

  /// Folds one solve into the digest and checks the split depth.
  void solve(const wdag::gen::Instance& inst) {
    const auto r = wdag::api::solve_with(wdag::api::builtin_registry(),
                                         inst.family, {});
    word(r.strategy);
    word(r.wavelengths);
    word(r.load);
    word(r.optimal ? 1 : 0);
    word(r.coloring.size());
    for (const std::uint32_t c : r.coloring) word(c);

    if (r.report.is_dag && r.report.is_upp) {
      const auto sm = wdag::core::color_upp_split_merge(inst.family);
      EXPECT_EQ(sm.levels, r.report.internal_cycles);
      ++split_merge_checks;
    }
  }

  void draws(const std::string& name, const WorkloadParams& params,
             std::uint64_t seed, std::size_t count) {
    wdag::util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      solve(wdag::gen::workload_instance(name, params, rng));
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(SplitMergeGoldenTest, RandomUppColoringsArePinned) {
  Digest d;
  d.draws("random-upp", WorkloadParams{}, 20261019, 20'000);
  // Deeper gadgets: more cycle pairs, longer runs and chains.
  WorkloadParams deep;
  deep.k = 5;
  deep.run_len = 2;
  deep.chain = 2;
  deep.paths = 48;
  d.draws("random-upp", deep, 7, 2'000);
  EXPECT_GT(d.split_merge_checks, 15'000u);
  EXPECT_EQ(hex(d.h), "0xbcc55cbed25045d9");
}

TEST(SplitMergeGoldenTest, NoInternalColoringsArePinned) {
  // Hosts without internal cycles: every solve is a Theorem 1 replay, so
  // this pins the removal order the replay derives from the Kahn order.
  Digest d;
  d.draws("no-internal", WorkloadParams{}, 20261021, 5'000);
  EXPECT_EQ(hex(d.h), "0xa6d72a4f41fb60e8");
}

TEST(SplitMergeGoldenTest, PaperInstanceColoringsArePinned) {
  Digest d;
  for (const char* name : {"havet", "figure3", "c5", "c7"}) {
    d.draws(name, WorkloadParams{}, 1, 1);
  }
  EXPECT_EQ(hex(d.h), "0x8fd7c0598e40eab2");
}

}  // namespace
