// Unit tests for the Digraph substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/digraph.hpp"
#include "helpers.hpp"
#include "util/check.hpp"

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
