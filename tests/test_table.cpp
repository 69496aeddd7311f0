// Unit tests for the results-table renderer, and for the one JSON string
// escaper (util/json.hpp) that every emitter shares.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/driver.hpp"
#include "core/json_min.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

using wdag::util::Cell;
using wdag::util::Table;

TEST(TableTest, RejectsEmptyHeader) {
  EXPECT_THROW(Table("t", {}), wdag::InvalidArgument);
}

TEST(TableTest, RowWidthMustMatch) {
  Table t("t", {"a", "b"});
  EXPECT_THROW(t.add_row({Cell{1LL}}), wdag::InvalidArgument);
  t.add_row({Cell{1LL}, Cell{2LL}});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(TableTest, TextContainsTitleHeaderAndCells) {
  Table t("My Title", {"k", "pi", "w"});
  t.add_row({Cell{2LL}, Cell{2LL}, Cell{3LL}});
  const std::string s = t.to_text();
  EXPECT_NE(s.find("My Title"), std::string::npos);
  EXPECT_NE(s.find("pi"), std::string::npos);
  EXPECT_NE(s.find("3"), std::string::npos);
}

TEST(TableTest, CsvIsParseable) {
  Table t("x", {"name", "value"});
  t.add_row({Cell{std::string("alpha")}, Cell{1.5}});
  t.add_row({Cell{std::string("has,comma")}, Cell{2LL}});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
}

TEST(TableTest, CsvEscapesQuotes) {
  Table t("", {"v"});
  t.add_row({Cell{std::string("say \"hi\"")}});
  EXPECT_NE(t.to_csv().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, MarkdownShape) {
  Table t("T", {"a", "b"});
  t.add_row({Cell{1LL}, Cell{2LL}});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(TableTest, JsonRowsShape) {
  Table t("ignored title", {"name", "count", "ratio"});
  t.add_row({Cell{std::string("grid")}, Cell{3LL}, Cell{0.5}});
  t.add_row({Cell{std::string("tree")}, Cell{7LL}, Cell{1.0}});
  EXPECT_EQ(t.to_json_rows(),
            "[{\"name\":\"grid\",\"count\":3,\"ratio\":0.5},"
            "{\"name\":\"tree\",\"count\":7,\"ratio\":1.0}]");
}

TEST(TableTest, JsonRowsEscapesStrings) {
  Table t("", {"v"});
  t.add_row({Cell{std::string("say \"hi\"\nback\\slash")}});
  EXPECT_EQ(t.to_json_rows(),
            "[{\"v\":\"say \\\"hi\\\"\\nback\\\\slash\"}]");
}

TEST(TableTest, JsonRowsEmptyTable) {
  Table t("T", {"a"});
  EXPECT_EQ(t.to_json_rows(), "[]");
}

TEST(CellToStringTest, TrimsTrailingZeros) {
  EXPECT_EQ(wdag::util::cell_to_string(Cell{1.5}), "1.5");
  EXPECT_EQ(wdag::util::cell_to_string(Cell{2.0}), "2.0");
  EXPECT_EQ(wdag::util::cell_to_string(Cell{0.3333333}), "0.3333");
  EXPECT_EQ(wdag::util::cell_to_string(Cell{7LL}), "7");
  EXPECT_EQ(wdag::util::cell_to_string(Cell{std::string("s")}), "s");
}

// Quote, backslash, newline and two control bytes, escaped the same way
// by every JSON emitter: the table rows, JsonWriter (serve and wire
// protocol lines) and the drive event log.
TEST(JsonEscapeTest, EveryEmitterEscapesTheSameBytes) {
  const std::string raw = "a\"b\\c\nd\x01" "e\x1f";
  const std::string escaped = R"("a\"b\\c\nd\u0001e\u001f")";

  Table t("t", {raw});
  t.add_row({Cell{raw}});
  EXPECT_EQ(t.to_json_rows(), "[{" + escaped + ":" + escaped + "}]");

  EXPECT_EQ(std::move(wdag::core::minjson::JsonWriter().field(raw, raw)).str(),
            "{" + escaped + ":" + escaped + "}");

  wdag::core::DriveEvent event;
  event.kind = raw;
  event.worker = raw;
  event.detail = raw;
  EXPECT_EQ(event.to_json(),
            "{\"ev\":" + escaped +
                ",\"shard\":0,\"attempt\":0,\"t\":0.000,\"elapsed\":0.000,"
                "\"exit\":0,\"worker\":" +
                escaped + ",\"detail\":" + escaped + "}");
}

}  // namespace
