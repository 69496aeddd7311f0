// Unit tests for the structural classifier driving solver dispatch.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dag/classify.hpp"
#include "dag/internal_cycle.hpp"
#include "dag/upp.hpp"
#include "gen/paper_instances.hpp"
#include "gen/upp_gen.hpp"
#include "gen/workloads.hpp"
#include "graph/topo.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag::dag;
using wdag::graph::ArcId;
using wdag::graph::Digraph;

TEST(ClassifyTest, Chain) {
  const auto r = classify(wdag::test::chain(5));
  EXPECT_TRUE(r.is_dag);
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 0u);
  EXPECT_TRUE(r.wavelengths_equal_load());
  EXPECT_FALSE(r.theorem6_applies());
  EXPECT_EQ(r.num_vertices, 5u);
  EXPECT_EQ(r.num_arcs, 4u);
  EXPECT_EQ(r.num_sources, 1u);
  EXPECT_EQ(r.num_sinks, 1u);
}

TEST(ClassifyTest, DiamondEqualityRegimeButNotUpp) {
  const auto r = classify(wdag::test::diamond());
  EXPECT_TRUE(r.is_dag);
  EXPECT_FALSE(r.is_upp);
  EXPECT_TRUE(r.wavelengths_equal_load());
}

TEST(ClassifyTest, GuardedDiamondLeavesEqualityRegime) {
  const auto r = classify(wdag::test::guarded_diamond());
  EXPECT_FALSE(r.wavelengths_equal_load());
  EXPECT_EQ(r.internal_cycles, 1u);
}

TEST(ClassifyTest, Theorem6Regime) {
  const auto inst = wdag::gen::theorem2_instance(3);
  const auto r = classify(*inst.graph);
  EXPECT_TRUE(r.theorem6_applies());
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 1u);
}

TEST(ClassifyTest, MultiCycleUpp) {
  const auto inst =
      wdag::gen::upp_multi_cycle_skeleton(3, wdag::gen::UppCycleParams{});
  const auto r = classify(*inst.graph);
  EXPECT_TRUE(r.is_dag);
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 3u);
  EXPECT_FALSE(r.theorem6_applies());
}

TEST(ClassifyTest, NonDag) {
  const auto r = classify(wdag::test::directed_triangle());
  EXPECT_FALSE(r.is_dag);
  EXPECT_FALSE(r.wavelengths_equal_load());
  EXPECT_FALSE(r.theorem6_applies());
}

/// The report's kept passes equal the standalone queries they replace.
void expect_report_matches_queries(const Digraph& g, const std::string& what) {
  const DagReport r = classify(g);
  const auto order = wdag::graph::topological_sort(g);
  ASSERT_TRUE(order.has_value()) << what;
  EXPECT_EQ(r.topo_order, *order) << what;
  std::vector<ArcId> internal;
  internal_arcs_into(g, internal);
  EXPECT_EQ(r.internal_arcs, internal) << what;
  EXPECT_EQ(r.internal_cycles, internal_cycle_count(g)) << what;
  EXPECT_EQ(r.is_upp, is_upp(g)) << what;
}

TEST(ClassifyReportTest, KeptPassesMatchTheStandaloneQueries) {
  wdag::util::Xoshiro256 rng(20261021);
  for (const char* name :
       {"random-upp", "random-dag", "no-internal", "fat-chain"}) {
    for (int i = 0; i < 50; ++i) {
      const auto inst = wdag::gen::workload_instance(name, {}, rng);
      expect_report_matches_queries(*inst.graph,
                                    name + std::string(" #") +
                                        std::to_string(i));
    }
  }
  for (const char* name : {"havet", "figure3", "c5", "c7"}) {
    const auto inst = wdag::gen::workload_instance(name, {}, rng);
    expect_report_matches_queries(*inst.graph, name);
  }
  expect_report_matches_queries(*wdag::gen::theorem2_instance(3).graph,
                                "theorem2");
  expect_report_matches_queries(
      *wdag::gen::figure1_pathological(4).graph, "figure1");
}

TEST(ClassifyReportTest, CyclicDigraphKeepsNoOrder) {
  const auto r = classify(wdag::test::directed_triangle());
  EXPECT_FALSE(r.is_dag);
  EXPECT_TRUE(r.topo_order.empty());
  EXPECT_TRUE(r.internal_arcs.empty());
  EXPECT_EQ(r.internal_cycles, 0u);
  EXPECT_FALSE(r.is_upp);
}

TEST(ClassifyTest, ReportStringMentionsRegime) {
  const auto r1 = report_to_string(classify(wdag::test::chain(3)));
  EXPECT_NE(r1.find("Theorem 1"), std::string::npos);
  const auto r2 =
      report_to_string(classify(*wdag::gen::theorem2_instance(2).graph));
  EXPECT_NE(r2.find("Theorem 6"), std::string::npos);
  const auto r3 = report_to_string(classify(wdag::test::directed_triangle()));
  EXPECT_NE(r3.find("is DAG:          no"), std::string::npos);
  const auto r4 =
      report_to_string(classify(*wdag::gen::figure1_pathological(3).graph));
  EXPECT_NE(r4.find("unbounded"), std::string::npos);
}

}  // namespace
