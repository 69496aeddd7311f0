// Tests for the named workload factory (gen/workloads.hpp) the CLI,
// benches and batch driver all share.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "conflict/coloring.hpp"
#include "core/solver.hpp"
#include "dag/classify.hpp"
#include "gen/workloads.hpp"
#include "helpers.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag;
using gen::Instance;
using gen::WorkloadParams;
using util::Xoshiro256;

TEST(WorkloadsTest, EveryNamedFamilyBuildsASolvableInstance) {
  const WorkloadParams params;
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(7);
    const Instance inst = gen::workload_instance(name, params, rng);
    ASSERT_NE(inst.graph, nullptr) << name;
    EXPECT_GT(inst.graph->num_vertices(), 0u) << name;
    // Every family must produce an instance the dispatcher accepts.
    const auto result = test::solve_builtin(inst.family);
    EXPECT_TRUE(conflict::is_valid_assignment(inst.family, result.coloring))
        << name;
    EXPECT_GE(result.wavelengths, result.load) << name;
  }
}

TEST(WorkloadsTest, SameSeedSameInstanceStream) {
  const WorkloadParams params;
  for (const std::string& name : {std::string("random-upp"),
                                  std::string("random-dag"),
                                  std::string("grid")}) {
    Xoshiro256 a(123), b(123);
    for (int i = 0; i < 8; ++i) {
      const Instance x = gen::workload_instance(name, params, a);
      const Instance y = gen::workload_instance(name, params, b);
      ASSERT_EQ(x.graph->num_vertices(), y.graph->num_vertices()) << name;
      ASSERT_EQ(x.graph->num_arcs(), y.graph->num_arcs()) << name;
      ASSERT_EQ(x.family.size(), y.family.size()) << name;
      for (std::size_t p = 0; p < x.family.size(); ++p) {
        EXPECT_TRUE(
            std::ranges::equal(x.family.path(static_cast<paths::PathId>(p)),
                               y.family.path(static_cast<paths::PathId>(p))))
            << name << " instance " << i << " path " << p;
      }
    }
  }
}

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;

  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// Every path of `inst` is the BFS shortest route between its endpoints.
void expect_shortest_routes(const Instance& inst, const std::string& what) {
  const graph::Digraph& g = *inst.graph;
  for (paths::PathId p = 0; p < inst.family.size(); ++p) {
    const auto arcs = inst.family.path(p);
    const auto route =
        paths::shortest_route(g, g.tail(arcs.front()), g.head(arcs.back()));
    ASSERT_TRUE(route.has_value()) << what << " path " << p;
    EXPECT_TRUE(std::ranges::equal(arcs, route->arcs)) << what << " path " << p;
  }
}

TEST(WorkloadsTest, InstanceStreamDigestIsPinned) {
  // Byte-identity pin for generation: an FNV-1a digest over 2,000
  // fixed-seed draws of every named family, folding in the host's arcs,
  // every path's arcs and the next RNG word after each draw (so a change
  // in how much randomness a draw consumes shows too). Recorded before
  // the family moved to flat storage and tree requests to a parent walk;
  // any rewrite of the generators must keep it.
  const WorkloadParams params;
  constexpr int kDraws = 2000;
  Fnv1a digest;
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(20);
    for (int i = 0; i < kDraws; ++i) {
      const Instance inst = gen::workload_instance(name, params, rng);
      const graph::Digraph& g = *inst.graph;
      digest.word(g.num_vertices());
      digest.word(g.num_arcs());
      for (graph::ArcId a = 0; a < g.num_arcs(); ++a) {
        digest.word(g.tail(a));
        digest.word(g.head(a));
      }
      digest.word(inst.family.size());
      for (paths::PathId p = 0; p < inst.family.size(); ++p) {
        const auto arcs = inst.family.path(p);
        digest.word(arcs.size());
        for (const graph::ArcId a : arcs) digest.word(a);
      }
      digest.word(rng());
      // The tree family and random-upp (UPP hosts, so every route is
      // unique) must route each request along the shortest dipath.
      if (name == "tree" || name == "random-upp") {
        expect_shortest_routes(inst, name + " draw " + std::to_string(i));
      }
    }
  }
  EXPECT_EQ(digest.h, 0xd0e7dda8c4190bc2ull) << std::hex << "digest=0x" << digest.h;
}

TEST(WorkloadsTest, RandomUppMixStaysUpp) {
  // Everything the "random-upp" family emits must actually be UPP — the
  // mix spans regimes (trees, skeletons, gadgets) but never leaves the
  // unique-dipath class it is named for.
  const WorkloadParams params;
  Xoshiro256 rng(31);
  for (int i = 0; i < 40; ++i) {
    const Instance inst = gen::workload_instance("random-upp", params, rng);
    const auto report = dag::classify(*inst.graph);
    EXPECT_TRUE(report.is_dag) << "instance " << i;
    EXPECT_TRUE(report.is_upp) << "instance " << i;
  }
}

TEST(WorkloadsTest, PaperInstancesIgnoreTheRng) {
  const WorkloadParams params;
  Xoshiro256 a(1), b(999);
  const Instance x = gen::workload_instance("figure3", params, a);
  const Instance y = gen::workload_instance("figure3", params, b);
  EXPECT_EQ(x.family.size(), y.family.size());
  EXPECT_EQ(x.graph->num_arcs(), y.graph->num_arcs());
}

TEST(WorkloadsTest, KnobsReachTheGenerators) {
  WorkloadParams params;
  params.rows = 2;
  params.cols = 3;
  Xoshiro256 rng(5);
  const Instance grid = gen::workload_instance("grid", params, rng);
  EXPECT_EQ(grid.graph->num_vertices(), 6u);

  params.h = 3;
  const Instance havet = gen::workload_instance("havet", params, rng);
  EXPECT_EQ(havet.family.size(), 24u);  // 8 dipaths replicated 3x
}

TEST(WorkloadsTest, UnknownNameThrows) {
  const WorkloadParams params;
  Xoshiro256 rng(1);
  EXPECT_THROW(gen::workload_instance("no-such-family", params, rng),
               wdag::InvalidArgument);
}

}  // namespace
