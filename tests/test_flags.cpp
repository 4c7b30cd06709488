// CLI flag parser: all accepted syntaxes and the error paths.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rasc::util {
namespace {

Flags make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(int(args.size()), args.data());
}

TEST(Flags, EqualsSyntax) {
  auto f = make({"--nodes=32", "--rate=150.5"});
  EXPECT_EQ(f.get_int("nodes", 0), 32);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 150.5);
  f.finish();
}

TEST(Flags, SpaceSyntax) {
  auto f = make({"--algorithm", "greedy"});
  EXPECT_EQ(f.get_string("algorithm", ""), "greedy");
  f.finish();
}

TEST(Flags, BooleanForms) {
  auto f = make({"--verbose", "--no-color", "--fast=false"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("color", true));
  EXPECT_FALSE(f.get_bool("fast", true));
  f.finish();
}

TEST(Flags, DefaultsWhenAbsent) {
  auto f = make({});
  EXPECT_EQ(f.get_int("nodes", 42), 42);
  EXPECT_EQ(f.get_string("name", "x"), "x");
  EXPECT_TRUE(f.get_bool("flag", true));
  f.finish();
}

TEST(Flags, DoubleList) {
  auto f = make({"--rates=50,100,150,200"});
  const auto v = f.get_double_list("rates", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 50);
  EXPECT_EQ(v[3], 200);
  f.finish();
}

TEST(Flags, Positional) {
  auto f = make({"input.txt", "--n=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
  f.get_int("n", 0);
  f.finish();
}

TEST(Flags, UnknownFlagThrowsOnFinish) {
  auto f = make({"--typo=1"});
  EXPECT_THROW(f.finish(), std::invalid_argument);
}

TEST(Flags, BadIntegerThrows) {
  auto f = make({"--n=abc"});
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);
}

TEST(Flags, BadBooleanThrows) {
  auto f = make({"--b=maybe"});
  EXPECT_THROW(f.get_bool("b", false), std::invalid_argument);
}

TEST(Flags, DuplicateFlagThrowsOnFinish) {
  auto f = make({"--n=1", "--n=2"});
  EXPECT_EQ(f.get_int("n", 0), 2) << "last occurrence wins before finish()";
  EXPECT_THROW(f.finish(), std::invalid_argument);

  // Mixed --name=value / --name value spellings are still duplicates.
  auto g = make({"--rate=5", "--rate", "7"});
  g.get_double("rate", 0);
  EXPECT_THROW(g.finish(), std::invalid_argument);

  // The error message names the duplicated flag.
  auto h = make({"--seed=1", "--seed=1"});
  h.get_int("seed", 0);
  try {
    h.finish();
    FAIL() << "duplicate --seed must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
}

TEST(Flags, EmptyListThrows) {
  auto f = make({"--rates=,"});
  EXPECT_THROW(f.get_double_list("rates", {}), std::invalid_argument);
}

TEST(Flags, HelpListsAskedFlagsWithDefaults) {
  auto f = make({"--help"});
  f.get_int("nodes", 32);
  f.get_double("rate", 1.5);
  f.get_string("csv", "");
  f.get_bool("supervise", false);
  try {
    f.finish();
    FAIL() << "--help must end the program through HelpRequested";
  } catch (const HelpRequested& help) {
    EXPECT_STREQ(help.what(),
                 "usage: prog [--flag=value ...]\n"
                 "  --nodes (default 32)\n"
                 "  --rate (default 1.5)\n"
                 "  --csv (default \"\")\n"
                 "  --supervise (default false)\n");
  }
}

int body_help(int argc, char** argv) {
  Flags f(argc, argv);
  f.get_int("nodes", 32);
  f.finish();
  return 5;
}

int body_throws(int, char**) { throw std::runtime_error("world failed"); }

int run(int (*body)(int, char**), std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return run_main(int(args.size()), const_cast<char**>(args.data()), body);
}

TEST(Flags, RunMainMapsOutcomesToExitCodes) {
  testing::internal::CaptureStdout();
  EXPECT_EQ(run(body_help, {"--help"}), 0);
  EXPECT_NE(testing::internal::GetCapturedStdout().find("--nodes"),
            std::string::npos);

  testing::internal::CaptureStderr();
  EXPECT_EQ(run(body_help, {"--nodes", "abc"}), 2);
  EXPECT_EQ(run(body_help, {"--typo=1"}), 2);
  EXPECT_EQ(run(body_throws, {}), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("prog: flag --nodes: not an integer: abc"),
            std::string::npos);
  EXPECT_NE(err.find("prog: unknown flags: --typo"), std::string::npos);
  EXPECT_NE(err.find("prog: world failed"), std::string::npos);

  EXPECT_EQ(run(body_help, {"--nodes=4"}), 5);
}

}  // namespace
}  // namespace rasc::util
