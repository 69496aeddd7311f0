// Heap-allocation guard for instance generation, the load query, the
// structural classification, the split-merge recursion and the exact
// certifier.
//
// This binary replaces the global operator new/delete with counting
// versions. After one warm-up solve per instance (which sizes the
// per-thread arena to the largest instance), a steady-state
// color_upp_split_merge on a classified host must allocate no more than a
// small constant, independent of the instance's size and its number of
// internal cycles. A warm dag::classify allocates only the two vectors
// its report returns: its Kahn in-degrees and union-find are per-thread.
// Likewise a warm exact certification allocates only the coloring it
// returns: its bound searches and k-search run in per-thread buffers.
// Generating a random-upp instance allocates a few buffers of its flat
// family (and, for a fresh out-tree, its host), not one vector per path;
// pi counts into per-thread storage.
// The count is deterministic; no wall clock is involved.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/exact_color.hpp"
#include "core/split_merge.hpp"
#include "dag/classify.hpp"
#include "gen/family_gen.hpp"
#include "gen/paper_instances.hpp"
#include "gen/upp_gen.hpp"
#include "gen/workloads.hpp"
#include "paths/family.hpp"
#include "paths/load.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using wdag::gen::Instance;
using wdag::gen::UppCycleParams;

/// Heap allocations a steady-state split-merge solve may make: the
/// returned coloring. (Before the per-depth arena this family took
/// 599-8,964 allocations per solve.)
constexpr std::size_t kMaxSteadyAllocations = 1;

/// Multi-cycle UPP skeletons (2-4 internal cycles): the small gadget's
/// all-to-all family, and random request families with repeated routes
/// on the small and on a larger gadget.
std::vector<Instance> skeleton_family() {
  std::vector<Instance> out;
  wdag::util::Xoshiro256 rng(11);
  for (std::size_t cycles : {2u, 3u, 4u}) {
    Instance all =
        wdag::gen::upp_multi_cycle_skeleton(cycles, UppCycleParams{2, 1, 1, 1});
    all.family = wdag::gen::all_to_all_family(*all.graph);
    out.push_back(all);
    for (const UppCycleParams p :
         {UppCycleParams{2, 1, 1, 1}, UppCycleParams{3, 2, 1, 2}}) {
      Instance random = wdag::gen::upp_multi_cycle_skeleton(cycles, p);
      random.family =
          wdag::gen::random_request_family(rng, *random.graph, 40);
      out.push_back(random);
    }
  }
  return out;
}

std::size_t allocations_of_solve(const Instance& inst,
                                 const wdag::dag::DagReport& report,
                                 wdag::core::SplitMergeResult& out) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  out = wdag::core::color_upp_split_merge(inst.family, report);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Allocations of one dag::classify call on g.
std::size_t allocations_of_classify(const wdag::graph::Digraph& g,
                                    wdag::dag::DagReport& out) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  out = wdag::dag::classify(g);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SplitMergeAllocTest, CounterSeesAllocations) {
  const std::size_t before = g_allocations.load();
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(g_allocations.load() - before, 2u);
}

TEST(SplitMergeAllocTest, SteadyStateSolveAllocatesAConstant) {
  const auto instances = skeleton_family();
  std::vector<wdag::dag::DagReport> reports;
  for (const Instance& inst : instances) {
    reports.push_back(wdag::dag::classify(*inst.graph));
  }
  wdag::core::SplitMergeResult res;
  // Warm-up: the arena grows to the largest instance seen.
  for (std::size_t i = 0; i < instances.size(); ++i) {
    allocations_of_solve(instances[i], reports[i], res);
  }

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const std::size_t n = allocations_of_solve(inst, reports[i], res);
    ASSERT_GE(res.levels, 2u);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(inst.family,
                                                    res.coloring));
    EXPECT_LE(n, kMaxSteadyAllocations)
        << "allocations=" << n << " paths=" << inst.family.size() << " levels=" << res.levels
        << " wavelengths=" << res.wavelengths << " load=" << res.load;
  }
}

/// Allocations of one workload_instance("random-upp") draw.
std::size_t allocations_of_draw(const wdag::gen::WorkloadParams& params,
                                wdag::util::Xoshiro256& rng,
                                Instance& out) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  out = wdag::gen::workload_instance("random-upp", params, rng);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(GenerationAllocTest, RandomUppDrawsAllocateTheirBuffersNotTheirPaths) {
  const wdag::gen::WorkloadParams params;
  wdag::util::Xoshiro256 rng(3);
  Instance inst;
  // Warm-up: every skeleton pool and fixed instance of the mix gets built.
  for (int i = 0; i < 2'000; ++i) allocations_of_draw(params, rng, inst);

  constexpr int kDraws = 20'000;
  std::size_t total = 0, cached = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::size_t n = allocations_of_draw(params, rng, inst);
    total += n;
    // A host shared with a per-thread pool or instance cache: only the
    // family's buffers are new (36 allocations per draw before the
    // family was stored flat).
    if (inst.graph.use_count() > 1) {
      ++cached;
      EXPECT_LE(n, 4u) << "draw " << i << " paths=" << inst.family.size();
    }
  }
  EXPECT_GT(cached, kDraws / 2);
  const double mean = static_cast<double>(total) / kDraws;
  EXPECT_LE(mean, 8.0);
  std::printf("random-upp: %.2f allocations per draw (%zu of %d cached)\n",
              mean, cached, kDraws);
}

TEST(LoadAllocTest, WarmMaxLoadAllocatesNothing) {
  const auto havet = wdag::gen::havet_instance().replicate(3);
  EXPECT_EQ(wdag::paths::max_load(havet.family), 6u);  // warm-up
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const std::size_t pi = wdag::paths::max_load(havet.family);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(pi, 6u);
}

TEST(ClassifyAllocTest, WarmClassifyAllocatesOnlyItsReportVectors) {
  const auto instances = skeleton_family();
  wdag::dag::DagReport report;
  // Warm-up: the per-thread Kahn, union-find and UPP buffers grow to the
  // largest host seen.
  for (const Instance& inst : instances) {
    allocations_of_classify(*inst.graph, report);
  }
  for (const Instance& inst : instances) {
    const std::size_t n = allocations_of_classify(*inst.graph, report);
    ASSERT_TRUE(report.is_upp);
    EXPECT_FALSE(report.topo_order.empty());
    EXPECT_FALSE(report.internal_arcs.empty());
    // topo_order and internal_arcs, one allocation each.
    EXPECT_LE(n, 2u) << "vertices=" << report.num_vertices;
  }
}

/// Allocations of one chromatic_number call on cg.
std::size_t allocations_of_certify(const wdag::conflict::ConflictGraph& cg,
                                   const wdag::conflict::ExactBounds& bounds,
                                   wdag::conflict::ChromaticResult& out) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  out = wdag::conflict::chromatic_number(cg, 1'000'000, bounds);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ExactCertifyAllocTest, WarmCertificationAllocatesOnlyItsColoring) {
  // havet h=2: pi = omega = 4 on this UPP host, DSATUR uses 6, and the
  // counting bound ceil(16 / alpha) = ceil(16/3) = 6 closes the gap.
  const auto havet = wdag::gen::havet_instance().replicate(2);
  const wdag::conflict::ConflictGraph cg(havet.family);
  const wdag::conflict::ExactBounds bounds{
      wdag::paths::max_load(havet.family), /*load_is_clique_number=*/true};
  // The Groetzsch graph (chi 4, omega 2, alpha 5 on 11 vertices) leaves a
  // gap after every bound, so the k-search runs too.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < 5; ++i) {
    edges.emplace_back(i, (i + 1) % 5);
    edges.emplace_back(5 + i, (i + 1) % 5);
    edges.emplace_back(5 + i, (i + 4) % 5);
    edges.emplace_back(10, 5 + i);
  }
  const wdag::conflict::ConflictGraph grotzsch(11, edges);

  wdag::conflict::ChromaticResult res;
  allocations_of_certify(cg, bounds, res);  // warm-up
  allocations_of_certify(grotzsch, {}, res);
  EXPECT_EQ(allocations_of_certify(cg, bounds, res), 1u);
  EXPECT_TRUE(res.proven);
  EXPECT_EQ(res.chromatic_number, 6u);
  EXPECT_EQ(res.nodes, 0u);  // the bounds met DSATUR: no search

  EXPECT_EQ(allocations_of_certify(grotzsch, {}, res), 1u);
  EXPECT_TRUE(res.proven);
  EXPECT_EQ(res.chromatic_number, 4u);
  EXPECT_GT(res.nodes, 0u);
}

}  // namespace
