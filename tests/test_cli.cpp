// Unit tests for the CLI flag parser, plus each verb's flag set through
// the wdag binary named by WDAG_CLI_BIN (the CTest registration passes
// $<TARGET_FILE:wdag_cli>; the binary cases skip without it).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>

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

/// Runs `wdag ARGS` through the shell; returns the exit status and
/// fills `out` / `err` with what it printed. A command that runs instead
/// of being refused (a server would listen for good) is stopped after
/// 10 s and reads as status 124.
int run_wdag(const std::string& args, std::string* out, std::string* err) {
  const std::string dir = testing::TempDir();
  const std::string out_path = dir + "/wdag_cli.out";
  const std::string err_path = dir + "/wdag_cli.err";
  const std::string cmd = std::string("timeout 10 '") +
                          std::getenv("WDAG_CLI_BIN") + "' " + args + " > '" +
                          out_path + "' 2> '" + err_path + "'";
  const int status = std::system(cmd.c_str());
  if (out != nullptr) *out = read_file(out_path);
  if (err != nullptr) *err = read_file(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A flag the verb does not take is a usage error: exit 2 and one line
// that names the flag and the verb. The scheduling flags removed in 0.4.0
// get no special treatment.
TEST(CliBinaryTest, EveryVerbRefusesAFlagItDoesNotTake) {
  if (std::getenv("WDAG_CLI_BIN") == nullptr) {
    GTEST_SKIP() << "WDAG_CLI_BIN not set";
  }
  for (const std::string verb :
       {"batch", "sweep", "shard run", "drive", "worker"}) {
    for (const std::string args :
         {"--schedule fixed", "--chunk 4", "--no-such-flag 1"}) {
      const std::string flag = args.substr(0, args.find(' '));
      std::string err;
      EXPECT_EQ(run_wdag(verb + " " + args, nullptr, &err), 2)
          << verb << " " << args;
      EXPECT_EQ(err, "wdag: unknown flag " + flag + " for 'wdag " + verb +
                         "' (see 'wdag " + verb + " --help')\n");
    }
  }
}

// Every flag a verb's --help lists is taken. Each flag goes with a
// trailing unknown one that sorts after every real flag, so the refusal
// names the first unknown flag in order and nothing runs: the error must
// name the sentinel, never the listed flag.
TEST(CliBinaryTest, EveryFlagAVerbsHelpListsIsTaken) {
  if (std::getenv("WDAG_CLI_BIN") == nullptr) {
    GTEST_SKIP() << "WDAG_CLI_BIN not set";
  }
  const std::regex flag_re("--[a-z][a-z0-9-]*");
  for (const std::string verb :
       {"solve", "batch", "sweep", "shard plan", "shard run", "shard merge",
        "drive", "worker", "serve", "request"}) {
    std::string help;
    ASSERT_EQ(run_wdag(verb + " --help", &help, nullptr), 0) << verb;
    std::set<std::string> flags(
        std::sregex_token_iterator(help.begin(), help.end(), flag_re),
        std::sregex_token_iterator());
    // Global: answered before the verb runs, whatever else is given.
    flags.erase("--help");
    flags.erase("--version");
    EXPECT_FALSE(flags.empty()) << verb;
    for (const std::string& flag : flags) {
      std::string err;
      EXPECT_EQ(run_wdag(verb + " " + flag + " --zz-not-a-flag", nullptr,
                         &err),
                2)
          << verb << " " << flag;
      EXPECT_NE(err.find("unknown flag --zz-not-a-flag"), std::string::npos)
          << verb << " " << flag << ": " << err;
    }
  }
}

// Precondition errors -- wdag's own argument checks, the flag parser's and
// the instance-file parser's -- are usage errors: exit 2 and the message
// alone, never a source file and line.
TEST(CliBinaryTest, UsageErrorsCarryNoSourceLocation) {
  if (std::getenv("WDAG_CLI_BIN") == nullptr) {
    GTEST_SKIP() << "WDAG_CLI_BIN not set";
  }
  const std::string bad_file = testing::TempDir() + "/wdag_cli_bad.txt";
  std::ofstream(bad_file) << "garbage\n";
  const std::pair<std::string, std::string> cases[] = {
      {"shard merge --out -",
       "wdag: shard merge needs at least one shard output file argument\n"},
      {"batch --count 4", "wdag: batch requires --gen NAME\n"},
      {"batch --gen c7 --threads -1",
       "wdag: --threads must be >= 0 (0 = hardware concurrency), got -1\n"},
      {"batch --gen c7 --count abc",
       "wdag: Cli: flag --count expects an integer, got 'abc'\n"},
      {"solve --gen c7 --force nosuch",
       "wdag: unknown strategy 'nosuch' (see Engine::strategies())\n"},
      {"solve --file '" + bad_file + "'",
       "wdag: parse_instance_text: line 1: unknown keyword 'garbage'\n"},
      {"drive --gen c7 --shards 2 --probe-interval 0.0001",
       "wdag: --probe-interval must be >= 0.001 seconds\n"},
  };
  for (const auto& [args, want] : cases) {
    std::string err;
    EXPECT_EQ(run_wdag(args, nullptr, &err), 2) << args;
    EXPECT_EQ(err, want) << args;
    EXPECT_EQ(err.find(".cpp:"), std::string::npos) << args << ": " << err;
  }
}

}  // namespace
