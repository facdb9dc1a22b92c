#include "src/common/flags.h"

#include <vector>

#include <gtest/gtest.h>

namespace cedar {
namespace {

// Builds an argv-style vector from string literals.
std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) {
    argv.push_back(s.data());
  }
  return argv;
}

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  FlagSet flags("test");
  double* d = flags.AddDouble("rate", 2.5, "rate");
  int64_t* n = flags.AddInt("count", 7, "count");
  bool* b = flags.AddBool("verbose", false, "verbose");
  std::string* s = flags.AddString("name", "x", "name");
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(*d, 2.5);
  EXPECT_EQ(*n, 7);
  EXPECT_FALSE(*b);
  EXPECT_EQ(*s, "x");
}

TEST(FlagsTest, EqualsSyntax) {
  FlagSet flags("test");
  double* d = flags.AddDouble("rate", 0.0, "rate");
  std::string* s = flags.AddString("name", "", "name");
  std::vector<std::string> args = {"prog", "--rate=3.25", "--name=cedar"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(*d, 3.25);
  EXPECT_EQ(*s, "cedar");
}

TEST(FlagsTest, SpaceSyntaxAndPositional) {
  FlagSet flags("test");
  int64_t* n = flags.AddInt("count", 0, "count");
  std::vector<std::string> args = {"prog", "--count", "42", "leftover"};
  auto argv = MakeArgv(args);
  auto positional = flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*n, 42);
  ASSERT_EQ(positional.size(), 1u);
  EXPECT_EQ(positional[0], "leftover");
}

TEST(FlagsTest, BoolForms) {
  FlagSet flags("test");
  bool* a = flags.AddBool("alpha", false, "a");
  bool* b = flags.AddBool("beta", true, "b");
  bool* c = flags.AddBool("gamma", false, "c");
  std::vector<std::string> args = {"prog", "--alpha", "--nobeta", "--gamma=true"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(*a);
  EXPECT_FALSE(*b);
  EXPECT_TRUE(*c);
}

TEST(FlagsTest, NegativeNumbers) {
  FlagSet flags("test");
  double* d = flags.AddDouble("shift", 0.0, "shift");
  int64_t* n = flags.AddInt("delta", 0, "delta");
  std::vector<std::string> args = {"prog", "--shift=-1.5", "--delta=-3"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(*d, -1.5);
  EXPECT_EQ(*n, -3);
}

TEST(FlagsDeathTest, UnknownFlagDies) {
  FlagSet flags("test");
  flags.AddInt("count", 0, "count");
  std::vector<std::string> args = {"prog", "--bogus=1"};
  auto argv = MakeArgv(args);
  EXPECT_DEATH(flags.Parse(static_cast<int>(argv.size()), argv.data()), "unknown flag");
}

TEST(FlagsDeathTest, MalformedValueDies) {
  FlagSet flags("test");
  flags.AddInt("count", 0, "count");
  std::vector<std::string> args = {"prog", "--count=abc"};
  auto argv = MakeArgv(args);
  EXPECT_DEATH(flags.Parse(static_cast<int>(argv.size()), argv.data()), "bad int");
}

TEST(FlagsTest, IntWithinBoundsAccepted) {
  FlagSet flags("test");
  int64_t* n = flags.AddInt("count", 1, "count", 0, 10);
  std::vector<std::string> args = {"prog", "--count=10"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*n, 10);
}

TEST(FlagsDeathTest, IntBelowMinDies) {
  FlagSet flags("test");
  flags.AddInt("threads", 0, "threads", 0, 2147483647);
  std::vector<std::string> args = {"prog", "--threads=-1"};
  auto argv = MakeArgv(args);
  EXPECT_DEATH(flags.Parse(static_cast<int>(argv.size()), argv.data()),
               "bad int for --threads: '-1' \\(want an integer in \\[0, 2147483647\\]\\)");
}

TEST(FlagsDeathTest, IntAboveMaxDies) {
  // 2^32 + 2 would wrap to 2 in an int.
  FlagSet flags("test");
  flags.AddInt("queries", 1, "queries", 1, 2147483647);
  std::vector<std::string> args = {"prog", "--queries=4294967298"};
  auto argv = MakeArgv(args);
  EXPECT_DEATH(flags.Parse(static_cast<int>(argv.size()), argv.data()),
               "bad int for --queries: '4294967298'");
}

TEST(FlagsTest, PositiveDoubleAccepted) {
  FlagSet flags("test");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "deadline");
  std::vector<std::string> args = {"prog", "--deadline=1e-3"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*deadline, 1e-3);
}

TEST(FlagsDeathTest, PositiveDoubleRejectsNonFiniteAndNonPositive) {
  // An infinite deadline used to reach the engines and die far from the
  // flag (the wait scan's step count, the event queue's clock).
  for (const std::string value : {"inf", "-inf", "nan", "0", "-5"}) {
    FlagSet flags("test");
    flags.AddPositiveDouble("deadline", 1000.0, "deadline");
    std::vector<std::string> args = {"prog", "--deadline=" + value};
    auto argv = MakeArgv(args);
    EXPECT_DEATH(flags.Parse(static_cast<int>(argv.size()), argv.data()),
                 "bad double for --deadline: '" + value + "' \\(want a finite number > 0\\)")
        << value;
  }
}

TEST(FlagsTest, UsageMentionsFlagsAndDefaults) {
  FlagSet flags("my tool doc");
  flags.AddInt("count", 5, "how many");
  std::string usage = flags.Usage();
  EXPECT_NE(usage.find("my tool doc"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("5"), std::string::npos);
}

}  // namespace
}  // namespace cedar
