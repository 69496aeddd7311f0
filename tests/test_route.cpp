// Unit tests for routing.

#include <gtest/gtest.h>

#include "gen/paper_instances.hpp"
#include "helpers.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"

namespace {

using namespace wdag::paths;
using wdag::graph::Digraph;
using wdag::graph::DigraphBuilder;

TEST(UniqueRouteTest, ChainRoute) {
  const Digraph g = wdag::test::chain(5);
  const auto r = unique_route(g, 1, 4);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->arcs, (std::vector<wdag::graph::ArcId>{1, 2, 3}));
}

TEST(UniqueRouteTest, UnreachableIsNullopt) {
  const Digraph g = wdag::test::chain(4);
  EXPECT_FALSE(unique_route(g, 3, 0).has_value());
}

TEST(UniqueRouteTest, AmbiguousPairThrows) {
  const Digraph g = wdag::test::diamond();
  EXPECT_THROW(unique_route(g, 0, 3), wdag::DomainError);
}

TEST(UniqueRouteTest, UnambiguousPairInNonUppGraphWorks) {
  // The diamond is not UPP globally, but 0 -> 1 is still a unique route.
  const Digraph g = wdag::test::diamond();
  const auto r = unique_route(g, 0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length(), 1u);
}

TEST(UniqueRouteTest, SameEndpointsRejected) {
  const Digraph g = wdag::test::chain(3);
  EXPECT_THROW(unique_route(g, 1, 1), wdag::InvalidArgument);
}

TEST(ShortestRouteTest, PicksFewestArcs) {
  // 0 -> 1 -> 2 -> 3 and shortcut 0 -> 2.
  DigraphBuilder b(4);
  b.add_arc(0, 1);
  b.add_arc(1, 2);
  b.add_arc(2, 3);
  b.add_arc(0, 2);
  const Digraph g = b.build();
  const auto r = shortest_route(g, 0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length(), 2u);  // 0 -> 2 -> 3
  EXPECT_EQ(g.tail(r->arcs[0]), 0u);
  EXPECT_EQ(g.head(r->arcs[0]), 2u);
}

TEST(ShortestRouteTest, LexicographicTieBreak) {
  const Digraph g = wdag::test::diamond();
  const auto r = shortest_route(g, 0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length(), 2u);
  // Both 0->1->3 and 0->2->3 are shortest; the smaller first arc id wins.
  EXPECT_EQ(r->arcs[0], g.find_arc(0, 1));
}

TEST(ShortestRouteTest, UnreachableIsNullopt) {
  const Digraph g = wdag::test::chain(3);
  EXPECT_FALSE(shortest_route(g, 2, 0).has_value());
}

TEST(RouteRequestsTest, UniquePolicyOnUppGraph) {
  const auto inst = wdag::gen::havet_instance();
  const auto& g = *inst.graph;
  const auto a1 = *g.vertex_by_name("a1");
  const auto d1 = *g.vertex_by_name("d1");
  const auto fam = route_requests(g, {{a1, d1}}, RoutePolicy::kUnique);
  ASSERT_EQ(fam.size(), 1u);
  EXPECT_EQ(fam.path(0).size(), 3u);
}

TEST(RouteRequestsTest, ShortestPolicyOnAnyDag) {
  const Digraph g = wdag::test::diamond();
  const auto fam =
      route_requests(g, {{0, 3}, {0, 1}}, RoutePolicy::kShortest);
  EXPECT_EQ(fam.size(), 2u);
}

TEST(RouteRequestsTest, UnroutableThrows) {
  const Digraph g = wdag::test::chain(3);
  EXPECT_THROW(route_requests(g, {{2, 0}}, RoutePolicy::kShortest),
               wdag::InvalidArgument);
}

}  // namespace
