// Unit tests for DipathFamily and load computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/paper_instances.hpp"
#include "helpers.hpp"
#include "paths/family.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"

namespace {

using namespace wdag::paths;
using wdag::graph::Digraph;

TEST(FamilyTest, AddValidatesAgainstHost) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  EXPECT_EQ(fam.add(Dipath({0, 1})), 0u);
  EXPECT_EQ(fam.add(Dipath({1, 2})), 1u);
  EXPECT_THROW(fam.add(Dipath({0, 2})), wdag::InvalidArgument);
  EXPECT_THROW(fam.add(Dipath{}), wdag::InvalidArgument);
  EXPECT_EQ(fam.size(), 2u);
}

TEST(FamilyTest, MultisetSemantics) {
  const Digraph g = wdag::test::chain(3);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  fam.add(Dipath({0, 1}));  // identical copy is kept
  EXPECT_EQ(fam.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(fam.path(0), fam.path(1)));
}

TEST(FamilyTest, StoresEveryPathInOneFlatBuffer) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1, 2}));
  fam.add(Dipath({1}));
  // Adding one of the family's own paths copies it, even when the buffer
  // grows under the copy.
  for (int i = 0; i < 20; ++i) fam.add(fam.path(0));
  ASSERT_EQ(fam.size(), 22u);
  const FlatFamily& flat = fam.flat();
  EXPECT_EQ(flat.offsets.size(), 23u);
  EXPECT_EQ(flat.arcs.size(), 4u + 20u * 3u);
  EXPECT_EQ(std::vector<wdag::graph::ArcId>(flat.arcs.begin(), flat.arcs.begin() + 4),
            (std::vector<wdag::graph::ArcId>{0, 1, 2, 1}));
  for (PathId id = 2; id < fam.size(); ++id) {
    EXPECT_TRUE(std::ranges::equal(fam.path(id), fam.path(0))) << id;
  }
  EXPECT_THROW((void)fam.path(22), wdag::InvalidArgument);
}

TEST(FamilyTest, DeprecatedPathsShimCopiesEveryPath) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  fam.add(Dipath({2}));
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  const std::vector<Dipath> copies = fam.paths();
#pragma GCC diagnostic pop
  EXPECT_EQ(copies, (std::vector<Dipath>{Dipath({0, 1}), Dipath({2})}));
}

TEST(FamilyTest, DefaultConstructedThrowsOnUse) {
  DipathFamily fam;
  EXPECT_THROW((void)fam.graph(), wdag::InvalidArgument);
  EXPECT_THROW(fam.add(Dipath({0})), wdag::InvalidArgument);
}

TEST(FamilyTest, ReplicateBlocks) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  fam.add(Dipath({0}));
  fam.add(Dipath({1, 2}));
  const DipathFamily r = fam.replicate(3);
  ASSERT_EQ(r.size(), 6u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(std::ranges::equal(r.path(static_cast<PathId>(c)), fam.path(0)));
    EXPECT_TRUE(
        std::ranges::equal(r.path(static_cast<PathId>(3 + c)), fam.path(1)));
  }
}

TEST(FamilyTest, FilterKeepsOrder) {
  const Digraph g = wdag::test::chain(5);
  DipathFamily fam(g);
  fam.add(Dipath({0}));
  fam.add(Dipath({1}));
  fam.add(Dipath({2}));
  const auto f = fam.filter({true, false, true});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(f.path(0), fam.path(0)));
  EXPECT_TRUE(std::ranges::equal(f.path(1), fam.path(2)));
  EXPECT_THROW(fam.filter({true}), wdag::InvalidArgument);
}

TEST(LoadTest, ChainLoads) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  fam.add(Dipath({1, 2}));
  fam.add(Dipath({1}));
  const auto loads = arc_loads(fam);
  EXPECT_EQ(loads, (std::vector<std::size_t>{1, 3, 1}));
  EXPECT_EQ(max_load(fam), 3u);
  EXPECT_EQ(max_load_arc(fam), 1u);
}

TEST(LoadTest, EmptyFamily) {
  const Digraph g = wdag::test::chain(3);
  DipathFamily fam(g);
  EXPECT_EQ(max_load(fam), 0u);
  EXPECT_EQ(max_load_arc(fam), wdag::graph::kNoArc);
}

TEST(LoadTest, ReplicationScalesLoadLinearly) {
  const auto inst = wdag::gen::havet_instance();
  EXPECT_EQ(max_load(inst.family), 2u);
  for (std::size_t h : {2u, 3u, 5u}) {
    EXPECT_EQ(max_load(inst.family.replicate(h)), 2 * h);
  }
}

TEST(LoadTest, RestrictedLoad) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1, 2}));
  fam.add(Dipath({1, 2}));
  const auto r = max_load_on(fam, {0, 2});
  EXPECT_EQ(r.load, 2u);
  EXPECT_EQ(r.arc, 2u);
  const auto none = max_load_on(fam, {});
  EXPECT_EQ(none.load, 0u);
  EXPECT_EQ(none.arc, wdag::graph::kNoArc);
}

TEST(IncidenceTest, MatchesPaths) {
  const Digraph g = wdag::test::chain(4);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  fam.add(Dipath({1, 2}));
  const auto inc = arc_incidence(fam);
  ASSERT_EQ(inc.size(), 3u);
  EXPECT_EQ(inc[0], (std::vector<PathId>{0}));
  EXPECT_EQ(inc[1], (std::vector<PathId>{0, 1}));
  EXPECT_EQ(inc[2], (std::vector<PathId>{1}));
}

TEST(LoadTest, PaperPiValues) {
  EXPECT_EQ(max_load(wdag::gen::figure3_instance().family), 2u);
  EXPECT_EQ(max_load(wdag::gen::theorem2_instance(4).family), 2u);
  EXPECT_EQ(max_load(wdag::gen::figure1_pathological(6).family), 2u);
}

}  // namespace
