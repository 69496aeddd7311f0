// Unit tests for the Digraph substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/digraph.hpp"
#include "helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using wdag::graph::Arc;
using wdag::graph::Digraph;
using wdag::graph::DigraphBuilder;
using wdag::graph::kNoArc;

TEST(DigraphBuilderTest, EmptyGraph) {
  const Digraph g = DigraphBuilder().build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(DigraphBuilderTest, PreallocatedVertices) {
  DigraphBuilder b(5);
  EXPECT_EQ(b.num_vertices(), 5u);
  const Digraph g = b.build();
  EXPECT_EQ(g.num_vertices(), 5u);
}

TEST(DigraphBuilderTest, ImplicitVertexCreation) {
  DigraphBuilder b;
  b.add_arc(2, 7);
  const Digraph g = b.build();
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_EQ(g.tail(0), 2u);
  EXPECT_EQ(g.head(0), 7u);
}

TEST(DigraphBuilderTest, SelfLoopRejected) {
  DigraphBuilder b(3);
  EXPECT_THROW(b.add_arc(1, 1), wdag::InvalidArgument);
}

TEST(DigraphBuilderTest, NamedVerticesRoundTrip) {
  DigraphBuilder b;
  const auto u = b.vertex("alpha");
  const auto v = b.vertex("beta");
  EXPECT_EQ(b.vertex("alpha"), u);  // idempotent lookup
  b.add_arc(u, v);
  const Digraph g = b.build();
  EXPECT_EQ(g.vertex_by_name("alpha"), u);
  EXPECT_EQ(g.vertex_by_name("beta"), v);
  EXPECT_FALSE(g.vertex_by_name("gamma").has_value());
  EXPECT_EQ(g.vertex_label(u), "alpha");
}

TEST(DigraphBuilderTest, UnnamedLabelFallsBack) {
  const Digraph g = wdag::test::chain(2);
  EXPECT_EQ(g.vertex_label(0), "v0");
}

TEST(DigraphBuilderTest, UnnamedVerticesHaveEmptyNames) {
  // Named and unnamed vertices mixed: names are kept only up to the last
  // named vertex, and the rest read as unnamed.
  DigraphBuilder b;
  const auto u = b.add_vertex();
  const auto v = b.add_vertex("beta");
  b.add_arc(u, v);
  b.add_arc(v, 4);  // implicit unnamed vertices 2..4
  const Digraph g = b.build();
  ASSERT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.vertex_name(u), "");
  EXPECT_EQ(g.vertex_label(u), "v0");
  EXPECT_EQ(g.vertex_label(v), "beta");
  EXPECT_EQ(g.vertex_name(4), "");
  EXPECT_EQ(g.vertex_label(4), "v4");
  EXPECT_EQ(g.vertex_by_name("beta"), v);
  EXPECT_FALSE(g.vertex_by_name("").has_value());
  EXPECT_FALSE(wdag::test::chain(3).vertex_by_name("").has_value());
}

TEST(DigraphBuilderTest, NamedArcAddition) {
  DigraphBuilder b;
  b.add_arc("x", "y");
  b.add_arc("y", "z");
  const Digraph g = b.build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_arcs(), 2u);
}

TEST(DigraphBuilderTest, RvalueBuildMatchesCopyingBuild) {
  DigraphBuilder b;
  b.add_arc("x", "y");
  b.add_arc("y", "z");
  b.add_arc("x", "y");  // parallel
  b.add_arc(0, 5);      // implicit unnamed vertices 3..5
  const Digraph copied = b.build();
  const Digraph moved = std::move(b).build();
  ASSERT_EQ(moved.num_vertices(), copied.num_vertices());
  EXPECT_EQ(moved.arcs(), copied.arcs());
  for (wdag::graph::VertexId v = 0; v < moved.num_vertices(); ++v) {
    EXPECT_EQ(moved.vertex_name(v), copied.vertex_name(v));
    EXPECT_TRUE(std::ranges::equal(moved.out_arcs(v), copied.out_arcs(v)));
    EXPECT_TRUE(std::ranges::equal(moved.in_arcs(v), copied.in_arcs(v)));
  }
  // The moved-from builder is empty and can be used again.
  EXPECT_EQ(b.num_vertices(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.num_arcs(), 0u);
  b.add_arc(0, 1);
  EXPECT_EQ(std::move(b).build().num_arcs(), 1u);
}

/// The split of g along ab, rebuilt arc by arc: the arcs other than ab in
/// id order, then (a,s) and (t,b) on two fresh vertices.
Digraph rebuilt_split(const Digraph& g, wdag::graph::ArcId ab) {
  DigraphBuilder b(g.num_vertices());
  for (wdag::graph::ArcId e = 0; e < g.num_arcs(); ++e) {
    if (e != ab) b.add_arc(g.tail(e), g.head(e));
  }
  const auto s = b.add_vertex();
  const auto t = b.add_vertex();
  b.add_arc(g.tail(ab), s);
  b.add_arc(t, g.head(ab));
  return b.build();
}

void expect_same_graph(const Digraph& got, const Digraph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.arcs(), want.arcs());
  for (wdag::graph::VertexId v = 0; v < want.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(got.out_arcs(v), want.out_arcs(v)))
        << "out-arcs of " << v;
    EXPECT_TRUE(std::ranges::equal(got.in_arcs(v), want.in_arcs(v)))
        << "in-arcs of " << v;
    EXPECT_EQ(got.vertex_name(v), "");
  }
}

TEST(DigraphBuilderTest, SplitIntoMatchesARebuildForEveryArc) {
  // Random DAGs (arcs from lower to higher ids) with parallel arcs and
  // tails of several out-arcs; every arc is split, the first and the last
  // id included, and each split is split again along its first, a middle
  // and its last arc, as the split-merge recursion splits split graphs.
  wdag::util::Xoshiro256 rng(17);
  Digraph split, again;  // reused across splits, like a recursion level
  std::size_t parallel = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.below(9);
    const std::size_t m = 1 + rng.below(3 * n);
    DigraphBuilder b(n);
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<wdag::graph::VertexId>(rng.below(n - 1));
      const auto v = static_cast<wdag::graph::VertexId>(
          u + 1 + rng.below(n - 1 - u));
      b.add_arc(u, v);
      if (i > 0 && rng.below(4) == 0) {
        b.add_arc(u, v);
        ++parallel;
      }
    }
    const Digraph g = b.build();
    for (wdag::graph::ArcId ab = 0; ab < g.num_arcs(); ++ab) {
      DigraphBuilder::split_into(g, ab, split);
      expect_same_graph(split, rebuilt_split(g, ab));
      const std::size_t sm = split.num_arcs();
      for (const wdag::graph::ArcId e : {std::size_t{0}, sm / 2, sm - 1}) {
        const auto id = static_cast<wdag::graph::ArcId>(e);
        DigraphBuilder::split_into(split, id, again);
        expect_same_graph(again, rebuilt_split(split, id));
      }
    }
  }
  EXPECT_GT(parallel, 20u);
}

TEST(DigraphBuilderTest, SplitIntoOfANamedHostIsUnnamed) {
  DigraphBuilder b;
  b.add_arc("x", "y");
  b.add_arc("y", "z");
  const Digraph g = b.build();
  Digraph split;
  DigraphBuilder::split_into(g, 1, split);
  ASSERT_EQ(split.num_vertices(), 5u);
  EXPECT_EQ(split.arc(1), (Arc{1, 3}));  // (y,s)
  EXPECT_EQ(split.arc(2), (Arc{4, 2}));  // (t,z)
  EXPECT_EQ(split.vertex_label(0), "v0");
  EXPECT_FALSE(split.vertex_by_name("x").has_value());
  EXPECT_THROW(DigraphBuilder::split_into(g, 2, split), wdag::InvalidArgument);
}

TEST(DigraphTest, AdjacencyLists) {
  const Digraph g = wdag::test::diamond();
  ASSERT_EQ(g.out_degree(0), 2u);
  ASSERT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  EXPECT_EQ(g.in_degree(0), 0u);
  // Out-arcs of 0 are arcs 0 (0->1) and 1 (0->2) in insertion order.
  const auto out = g.out_arcs(0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(g.head(out[0]), 1u);
  EXPECT_EQ(g.head(out[1]), 2u);
}

TEST(DigraphTest, InArcsMatchOutArcs) {
  const Digraph g = wdag::test::diamond();
  std::size_t total_in = 0, total_out = 0;
  for (wdag::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    total_in += g.in_degree(v);
    total_out += g.out_degree(v);
  }
  EXPECT_EQ(total_in, g.num_arcs());
  EXPECT_EQ(total_out, g.num_arcs());
}

TEST(DigraphTest, FindArc) {
  const Digraph g = wdag::test::diamond();
  EXPECT_NE(g.find_arc(0, 1), kNoArc);
  EXPECT_NE(g.find_arc(2, 3), kNoArc);
  EXPECT_EQ(g.find_arc(1, 0), kNoArc);
  EXPECT_EQ(g.find_arc(0, 3), kNoArc);
}

TEST(DigraphTest, FindArcReturnsSmallestParallel) {
  DigraphBuilder b(2);
  const auto a1 = b.add_arc(0, 1);
  const auto a2 = b.add_arc(0, 1);
  const Digraph g = b.build();
  EXPECT_EQ(g.find_arc(0, 1), std::min(a1, a2));
}

TEST(DigraphTest, ParallelArcsAreDistinct) {
  DigraphBuilder b(2);
  b.add_arc(0, 1);
  b.add_arc(0, 1);
  const Digraph g = b.build();
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 2u);
}

TEST(DigraphTest, BoundsChecking) {
  const Digraph g = wdag::test::chain(3);
  EXPECT_THROW((void)g.arc(99), wdag::InvalidArgument);
  EXPECT_THROW((void)g.out_arcs(3), wdag::InvalidArgument);
  EXPECT_THROW((void)g.in_arcs(3), wdag::InvalidArgument);
  EXPECT_THROW((void)g.vertex_name(3), wdag::InvalidArgument);
}

TEST(DigraphTest, ArcEndpoints) {
  const Digraph g = wdag::test::chain(4);
  for (wdag::graph::ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(g.tail(a), a);
    EXPECT_EQ(g.head(a), a + 1);
  }
}

}  // namespace
