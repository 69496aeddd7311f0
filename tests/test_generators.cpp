// Tests for the random instance generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "dag/classify.hpp"
#include "dag/internal_cycle.hpp"
#include "dag/upp.hpp"
#include "gen/family_gen.hpp"
#include "gen/random_dag.hpp"
#include "gen/upp_gen.hpp"
#include "graph/reachability.hpp"
#include "graph/topo.hpp"
#include "paths/dipath.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag::gen;
using wdag::graph::Digraph;
using wdag::graph::VertexId;
using wdag::paths::DipathFamily;
using wdag::paths::PathId;
using wdag::util::Xoshiro256;

TEST(RandomDagTest, AlwaysAcyclic) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    EXPECT_TRUE(wdag::graph::is_dag(random_dag(rng, 25, 0.2)));
  }
}

TEST(RandomDagTest, Determinism) {
  Xoshiro256 a(9), b(9);
  const auto g1 = random_dag(a, 20, 0.2);
  const auto g2 = random_dag(b, 20, 0.2);
  ASSERT_EQ(g1.num_arcs(), g2.num_arcs());
  EXPECT_EQ(g1.arcs(), g2.arcs());
}

TEST(RandomLayeredDagTest, ShapeAndAcyclicity) {
  Xoshiro256 rng(2);
  const auto g = random_layered_dag(rng, 5, 4, 0.3);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_TRUE(wdag::graph::is_dag(g));
  // Every non-final-layer vertex has at least one out-arc.
  for (wdag::graph::VertexId v = 0; v < 16; ++v) {
    EXPECT_GE(g.out_degree(v), 1u) << v;
  }
  // Final layer is all sinks.
  for (wdag::graph::VertexId v = 16; v < 20; ++v) {
    EXPECT_EQ(g.out_degree(v), 0u);
  }
}

TEST(RandomTreeTest, OutTreeInvariants) {
  Xoshiro256 rng(3);
  const auto g = random_out_tree(rng, 30);
  EXPECT_EQ(g.num_arcs(), 29u);
  EXPECT_EQ(g.in_degree(0), 0u);
  for (wdag::graph::VertexId v = 1; v < 30; ++v) EXPECT_EQ(g.in_degree(v), 1u);
  EXPECT_TRUE(wdag::dag::is_upp(g));
  EXPECT_FALSE(wdag::dag::has_internal_cycle(g));
}

TEST(RandomTreeTest, InTreeInvariants) {
  Xoshiro256 rng(4);
  const auto g = random_in_tree(rng, 30);
  EXPECT_EQ(g.out_degree(0), 0u);
  for (wdag::graph::VertexId v = 1; v < 30; ++v) EXPECT_EQ(g.out_degree(v), 1u);
  EXPECT_TRUE(wdag::dag::is_upp(g));
}

TEST(NoInternalCycleGenTest, NeverHasInternalCycles) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const auto g = random_no_internal_cycle_dag(rng, 25, 0.25);
    EXPECT_TRUE(wdag::graph::is_dag(g));
    EXPECT_FALSE(wdag::dag::has_internal_cycle(g));
  }
}

TEST(UppGenTest, SkeletonClassification) {
  for (std::size_t k : {2u, 3u, 5u}) {
    const auto inst = upp_one_cycle_skeleton(UppCycleParams{k, 2, 2, 2});
    const auto r = wdag::dag::classify(*inst.graph);
    EXPECT_TRUE(r.theorem6_applies()) << "k=" << k;
  }
}

TEST(UppGenTest, ParamValidation) {
  EXPECT_THROW(upp_one_cycle_skeleton(UppCycleParams{1, 1, 1, 1}),
               wdag::InvalidArgument);
  EXPECT_THROW(upp_one_cycle_skeleton(UppCycleParams{2, 0, 1, 1}),
               wdag::InvalidArgument);
}

TEST(UppGenTest, MultiCycleCounts) {
  for (std::size_t c : {1u, 2u, 4u}) {
    const auto inst = upp_multi_cycle_skeleton(c, UppCycleParams{2, 1, 1, 1});
    EXPECT_EQ(wdag::dag::internal_cycle_count(*inst.graph), c);
    EXPECT_TRUE(wdag::dag::is_upp(*inst.graph));
  }
}

TEST(UppGenTest, RandomInstanceFamiliesAreValidRoutes) {
  Xoshiro256 rng(6);
  const auto inst =
      random_upp_one_cycle_instance(rng, UppCycleParams{3, 1, 1, 1}, 30);
  EXPECT_EQ(inst.family.size(), 30u);
  for (wdag::paths::PathId id = 0; id < inst.family.size(); ++id) {
    const auto p = inst.family.path(id);
    EXPECT_TRUE(wdag::paths::is_valid_dipath(*inst.graph, p));
  }
}

TEST(FamilyGenTest, RandomWalksRespectLengthBounds) {
  Xoshiro256 rng(7);
  const auto g = random_layered_dag(rng, 6, 3, 0.5);
  const auto fam = random_walk_family(rng, g, 40, 2, 4);
  EXPECT_EQ(fam.size(), 40u);
  for (wdag::paths::PathId id = 0; id < fam.size(); ++id) {
    const auto p = fam.path(id);
    EXPECT_GE(p.size(), 1u);  // min_len is best-effort at sinks
    EXPECT_LE(p.size(), 4u);
    EXPECT_TRUE(wdag::paths::is_valid_dipath(g, p));
  }
}

TEST(FamilyGenTest, AllToAllOnUppSkeleton) {
  const auto inst = upp_one_cycle_skeleton(UppCycleParams{2, 1, 1, 1});
  const auto fam = all_to_all_family(*inst.graph);
  EXPECT_GT(fam.size(), 0u);
  // One dipath per reachable ordered pair; endpoints must be unique pairs.
  std::set<std::pair<unsigned, unsigned>> seen;
  for (wdag::paths::PathId id = 0; id < fam.size(); ++id) {
    const auto p = fam.path(id);
    const auto key = std::make_pair(
        wdag::paths::path_source(*inst.graph, p),
        wdag::paths::path_target(*inst.graph, p));
    EXPECT_TRUE(seen.insert(key).second);
  }
}

TEST(FamilyGenTest, MulticastFromRoot) {
  Xoshiro256 rng(8);
  const auto g = random_out_tree(rng, 25);
  const auto fam = multicast_family(g, 0);
  EXPECT_EQ(fam.size(), 24u);  // root reaches everyone in an out-tree
  for (wdag::paths::PathId id = 0; id < fam.size(); ++id) {
    const auto p = fam.path(id);
    EXPECT_EQ(wdag::paths::path_source(g, p), 0u);
  }
}

TEST(FamilyGenTest, RandomRequestsAreRoutable) {
  Xoshiro256 rng(9);
  const auto g = random_layered_dag(rng, 4, 4, 0.4);
  const auto fam = random_request_family(rng, g, 25);
  EXPECT_EQ(fam.size(), 25u);
}

Digraph from_arcs(std::size_t n,
                  const std::vector<std::pair<VertexId, VertexId>>& arcs) {
  wdag::graph::DigraphBuilder b(n);
  for (const auto& [u, v] : arcs) b.add_arc(u, v);
  return b.build();
}

/// random_request_family as a closure scan plus one BFS per request: the
/// reference its out-forest parent walk must reproduce.
DipathFamily reference_requests(Xoshiro256& rng, const Digraph& g,
                                std::size_t count) {
  const auto closure = wdag::graph::transitive_closure(g);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u != v && closure[u].test(v)) pairs.emplace_back(u, v);
    }
  }
  DipathFamily fam(g);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [u, v] = pairs[rng.index(pairs.size())];
    fam.add(*wdag::paths::shortest_route(g, u, v));
  }
  return fam;
}

TEST(FamilyGenTest, RandomRequestsMatchTheClosureAndBfsReference) {
  Xoshiro256 shapes(12);
  std::vector<Digraph> hosts;
  for (int i = 0; i < 20; ++i) {
    hosts.push_back(random_out_tree(shapes, 2 + shapes.index(30)));
    hosts.push_back(random_in_tree(shapes, 2 + shapes.index(30)));
    hosts.push_back(random_layered_dag(shapes, 4, 3, 0.5));
  }
  // An out-forest whose parents carry larger ids than their children,
  // with two roots and an isolated vertex.
  hosts.push_back(from_arcs(
      7, {{5, 2}, {5, 4}, {2, 0}, {6, 3}, {3, 1}}));
  // Every in-degree is 1 but the arcs close a directed cycle: not a
  // forest, so the closure path routes it.
  hosts.push_back(from_arcs(
      4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}}));
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const Digraph& g = hosts[h];
    Xoshiro256 a(h), b(h);
    const DipathFamily got = random_request_family(a, g, 25);
    const DipathFamily want = reference_requests(b, g, 25);
    ASSERT_EQ(got.size(), want.size()) << "host " << h;
    for (PathId p = 0; p < got.size(); ++p) {
      EXPECT_TRUE(std::ranges::equal(got.path(p), want.path(p)))
          << "host " << h << " path " << p;
    }
    EXPECT_EQ(a(), b()) << "host " << h;
  }
}

TEST(FamilyGenTest, InputValidation) {
  Xoshiro256 rng(10);
  const auto g = wdag::graph::DigraphBuilder(3).build();  // no arcs
  EXPECT_THROW(random_walk_family(rng, g, 5, 1, 3), wdag::InvalidArgument);
  EXPECT_THROW(random_request_family(rng, g, 5), wdag::InvalidArgument);
}

}  // namespace
