// Unit tests for the CLI flag parser, plus the retired scheduling flags
// through the wdag binary named by WDAG_CLI_BIN (the CTest registration
// passes $<TARGET_FILE:wdag_cli>; the binary case skips without it).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using wdag::util::Cli;

Cli parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Cli(static_cast<int>(v.size()), v.data());
}

TEST(CliTest, ProgramName) {
  const auto cli = parse({"prog"});
  EXPECT_EQ(cli.program(), "prog");
  EXPECT_TRUE(cli.positional().empty());
}

TEST(CliTest, EqualsSyntax) {
  const auto cli = parse({"prog", "--n=12", "--name=alpha"});
  EXPECT_EQ(cli.get_int("n", 0), 12);
  EXPECT_EQ(cli.get("name", ""), "alpha");
}

TEST(CliTest, SpaceSyntax) {
  const auto cli = parse({"prog", "--n", "7"});
  EXPECT_EQ(cli.get_int("n", 0), 7);
}

TEST(CliTest, BooleanFlag) {
  const auto cli = parse({"prog", "--verbose"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(CliTest, BooleanFlagBeforeAnotherFlag) {
  const auto cli = parse({"prog", "--verbose", "--n", "3"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("n", 0), 3);
}

TEST(CliTest, Positional) {
  const auto cli = parse({"prog", "input.txt", "--n", "1", "more"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(CliTest, Defaults) {
  const auto cli = parse({"prog"});
  EXPECT_EQ(cli.get("missing", "dft"), "dft");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
}

TEST(CliTest, DoubleParsing) {
  const auto cli = parse({"prog", "--p=0.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0), 0.25);
}

TEST(CliTest, NonNumericIntThrows) {
  const auto cli = parse({"prog", "--n=abc"});
  EXPECT_THROW((void)cli.get_int("n", 0), wdag::InvalidArgument);
}

TEST(CliTest, BareDoubleDashThrows) {
  EXPECT_THROW(parse({"prog", "--"}), wdag::InvalidArgument);
}

TEST(CliTest, NegativeNumbers) {
  const auto cli = parse({"prog", "--n=-5"});
  EXPECT_EQ(cli.get_int("n", 0), -5);
  const auto space = parse({"prog", "--p", "-0.5"});
  EXPECT_DOUBLE_EQ(space.get_double("p", 0), -0.5);
}

// Regression: strtoll saturates on overflow and only reports it via errno,
// so "9223372036854775808" used to parse silently as INT64_MAX.
TEST(CliTest, IntOverflowThrows) {
  const auto cli = parse({"prog", "--n=9223372036854775808"});
  EXPECT_THROW((void)cli.get_int("n", 0), wdag::InvalidArgument);
  const auto under = parse({"prog", "--n=-9223372036854775809"});
  EXPECT_THROW((void)under.get_int("n", 0), wdag::InvalidArgument);
}

// Regression: strtod turns "1e999" into +inf with errno=ERANGE, and
// accepts "inf"/"nan" outright; none of those are usable flag values.
TEST(CliTest, DoubleOverflowAndNonFiniteThrow) {
  for (const char* bad : {"--p=1e999", "--p=-1e999", "--p=inf", "--p=nan"}) {
    const auto cli = parse({"prog", bad});
    EXPECT_THROW((void)cli.get_double("p", 0), wdag::InvalidArgument)
        << bad;
  }
  // Small-but-representable values must keep parsing.
  const auto tiny = parse({"prog", "--p=1e-300"});
  EXPECT_DOUBLE_EQ(tiny.get_double("p", 0), 1e-300);
}

// Regression: `--a=--b` silently stored "--b" as the value of --a, hiding
// the typo'd flag; the space form `--a --b` already treats --a as boolean.
TEST(CliTest, EqualsSyntaxRejectsSwallowedFlag) {
  EXPECT_THROW(parse({"prog", "--out=--events"}), wdag::InvalidArgument);
}

TEST(CliTest, SpaceSyntaxDoesNotSwallowTheNextFlag) {
  const auto cli = parse({"prog", "--out", "--events", "log.jsonl"});
  EXPECT_TRUE(cli.has("out"));
  EXPECT_EQ(cli.get("out", "x"), "");  // boolean, not "--events"
  EXPECT_EQ(cli.get("events", ""), "log.jsonl");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --schedule and --chunk are retired (removed in 0.4.0): still accepted,
// each with one deprecation line on stderr, and the CSV bytes unchanged.
TEST(CliRetiredFlagsTest, ScheduleAndChunkWarnAndKeepTheCsvBytes) {
  const char* bin = std::getenv("WDAG_CLI_BIN");
  if (bin == nullptr) GTEST_SKIP() << "WDAG_CLI_BIN not set";
  const std::string dir = testing::TempDir() + "/wdag_cli_retired";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string batch = std::string("'") + bin +
                            "' batch --gen random-upp --count 200 "
                            "--threads 4 --seed 7";
  const auto run = [&](const std::string& extra, const std::string& tag) {
    const std::string cmd = batch + " " + extra + " --csv '" + dir + "/" +
                            tag + ".csv' > /dev/null 2> '" + dir + "/" +
                            tag + ".err'";
    return std::system(cmd.c_str());
  };
  ASSERT_EQ(run("", "plain"), 0);
  ASSERT_EQ(run("--schedule fixed --chunk 4", "retired"), 0);
  const std::string want = read_file(dir + "/plain.csv");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(read_file(dir + "/retired.csv"), want);
  EXPECT_EQ(read_file(dir + "/plain.err"), "");
  const std::string err = read_file(dir + "/retired.err");
  EXPECT_NE(err.find("--schedule is deprecated"), std::string::npos) << err;
  EXPECT_NE(err.find("--chunk is deprecated and read as --min-chunk 4 "
                     "--max-chunk 4"),
            std::string::npos)
      << err;
  std::filesystem::remove_all(dir);
}

}  // namespace
