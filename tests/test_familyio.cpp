// Tests for instance serialization.

#include <gtest/gtest.h>

#include "gen/paper_instances.hpp"
#include "paths/familyio.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"

namespace {

using namespace wdag::paths;

TEST(FamilyIoTest, RoundTripFigure3) {
  const auto inst = wdag::gen::figure3_instance();
  const auto text = to_instance_text(inst.family);
  const auto parsed = parse_instance_text(text);
  EXPECT_EQ(parsed.graph->num_vertices(), inst.graph->num_vertices());
  EXPECT_EQ(parsed.graph->num_arcs(), inst.graph->num_arcs());
  ASSERT_EQ(parsed.family.size(), inst.family.size());
  EXPECT_EQ(max_load(parsed.family), max_load(inst.family));
}

TEST(FamilyIoTest, RoundTripPreservesPathLengths) {
  const auto inst = wdag::gen::havet_instance();
  const auto parsed = parse_instance_text(to_instance_text(inst.family));
  ASSERT_EQ(parsed.family.size(), 8u);
  for (PathId i = 0; i < 8; ++i) {
    EXPECT_EQ(parsed.family.path(i).size(), inst.family.path(i).size());
  }
}

TEST(FamilyIoTest, HandWrittenInstance) {
  const auto parsed = parse_instance_text(
      "# tiny instance\n"
      "arc a b\n"
      "arc b c\n"
      "path a b c\n"
      "path b c\n");
  EXPECT_EQ(parsed.graph->num_vertices(), 3u);
  EXPECT_EQ(parsed.family.size(), 2u);
  EXPECT_EQ(max_load(parsed.family), 2u);  // both cross b -> c
}

TEST(FamilyIoTest, RejectsUnknownKeyword) {
  EXPECT_THROW(parse_instance_text("edge a b\n"), wdag::InvalidArgument);
}

TEST(FamilyIoTest, RejectsShortPath) {
  EXPECT_THROW(parse_instance_text("arc a b\npath a\n"),
               wdag::InvalidArgument);
}

TEST(FamilyIoTest, RejectsUnknownPathVertex) {
  EXPECT_THROW(parse_instance_text("arc a b\npath a zzz\n"),
               wdag::InvalidArgument);
}

TEST(FamilyIoTest, RejectsPathWithoutArc) {
  EXPECT_THROW(parse_instance_text("arc a b\narc c d\npath a b c\n"),
               wdag::InvalidArgument);
}

TEST(FamilyIoTest, EmptyTextYieldsEmptyInstance) {
  const auto parsed = parse_instance_text("");
  EXPECT_EQ(parsed.graph->num_vertices(), 0u);
  EXPECT_TRUE(parsed.family.empty());
}

TEST(FamilyIoTest, NumericVertices) {
  const auto parsed = parse_instance_text("arc 0 1\narc 1 2\npath 0 1 2\n");
  EXPECT_EQ(parsed.family.size(), 1u);
  EXPECT_EQ(parsed.family.path(0).size(), 2u);
}

// Regression: an arc or path vertex beyond unsigned long used to escape
// as a bare std::out_of_range from std::stoul instead of the line-numbered
// InvalidArgument every other malformed input gets.
TEST(FamilyIoTest, OversizedVertexIdGetsALineNumberedDiagnostic) {
  const std::string text =
      "arc 0 1\n"
      "arc 1 18446744073709551616\n";  // ULONG_MAX + 1
  try {
    parse_instance_text(text);
    FAIL() << "expected InvalidArgument";
  } catch (const wdag::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

TEST(FamilyIoTest, OversizedPathVertexGetsALineNumberedDiagnostic) {
  const std::string text =
      "arc 0 1\n"
      "path 0 99999999999999999999\n";
  try {
    parse_instance_text(text);
    FAIL() << "expected InvalidArgument";
  } catch (const wdag::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

}  // namespace
