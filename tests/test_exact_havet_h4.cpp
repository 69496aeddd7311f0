// Regression: the exact certifier proves havet h=4 within its budget.
//
// The conflict graph has 32 vertices, under SolveOptions::exact_threshold,
// so every solve certifies split-merge's 12 wavelengths. A k-search
// started at the clique number (8) ran out of node budget (about 20 s)
// refuting the k below 11 and left split-merge's coloring unproven. The
// counting bound ceil(n / alpha) = 11 (Theorem 7) skips those k, and the
// search at k = 11 finds the optimum. Labelled stress: the k = 11 search
// takes about 2.5 s in a Debug build.

#include <gtest/gtest.h>

#include "api/strategy.hpp"
#include "gen/workloads.hpp"
#include "util/rng.hpp"

namespace {

// load 8, split-merge 12, chi = ceil(8h/3) = 11 (the Theorem 7 series
// test_exact_color checks up to h = 3).
TEST(ExactHavetH4Test, HavetH4IsCertifiedByTheCountingBound) {
  wdag::gen::WorkloadParams p;
  p.h = 4;
  wdag::util::Xoshiro256 rng(1);
  const auto inst = wdag::gen::workload_instance("havet", p, rng);
  const auto r = wdag::api::solve_with(wdag::api::builtin_registry(),
                                       inst.family, wdag::core::SolveOptions{});
  EXPECT_EQ(r.strategy_name, "exact");
  EXPECT_EQ(r.load, 8u);
  EXPECT_EQ(r.wavelengths, 11u);
  EXPECT_TRUE(r.optimal);
}

}  // namespace
