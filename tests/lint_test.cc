// Drives every cedar_lint rule over the seeded fixtures in
// tests/lint_fixtures/: each rule must fire on its violation lines (marked
// "fires" in the fixture) and stay quiet on the allowlisted duplicates.
// CEDAR_LINT_FIXTURE_DIR is injected by tests/CMakeLists.txt.

#include "tools/lint/lint.h"

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/stripped_source.h"

namespace cedar {
namespace lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(CEDAR_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// Lines whose code or comment contains the word "fires" mark expected
// violations, so the expectations live next to the seeded code.
std::set<int> MarkedLines(const std::string& content) {
  std::set<int> lines;
  std::istringstream in(content);
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.find("fires") != std::string::npos) {
      lines.insert(number);
    }
  }
  return lines;
}

// Runs |rule| alone over the fixture registered under |virtual_path| and
// checks the diagnostics land exactly on the marked lines.
void CheckRule(const std::string& fixture, const std::string& virtual_path,
               const std::string& rule) {
  SCOPED_TRACE(fixture + " as " + virtual_path + " rule=" + rule);
  const std::string content = ReadFixture(fixture);
  const std::set<int> expected = MarkedLines(content);
  ASSERT_FALSE(expected.empty()) << "fixture has no 'fires' markers";

  LintRun run;
  run.SetRuleFilter(rule);
  run.AddFile(virtual_path, content);
  std::vector<Diagnostic> diagnostics = run.Run();

  std::set<int> reported;
  for (const Diagnostic& diagnostic : diagnostics) {
    EXPECT_EQ(diagnostic.rule, rule);
    EXPECT_EQ(diagnostic.file, virtual_path);
    reported.insert(diagnostic.line);
  }
  EXPECT_EQ(reported, expected);
}

// The allowlisted twin must produce nothing at all.
void CheckQuiet(const std::string& fixture, const std::string& virtual_path,
                const std::string& rule) {
  SCOPED_TRACE(fixture + " as " + virtual_path + " rule=" + rule);
  LintRun run;
  run.SetRuleFilter(rule);
  run.AddFile(virtual_path, ReadFixture(fixture));
  EXPECT_TRUE(run.Run().empty());
}

TEST(LintRules, WallclockFiresAndSuppresses) {
  CheckRule("wallclock.cc", "src/core/wallclock_fixture.cc", "wallclock");
}

TEST(LintRules, WallclockExemptInObsAndRt) {
  LintRun run;
  run.SetRuleFilter("wallclock");
  const std::string content = ReadFixture("wallclock.cc");
  run.AddFile("src/obs/wallclock_fixture.cc", content);
  run.AddFile("src/rt/wallclock_fixture.cc", content);
  EXPECT_TRUE(run.Run().empty());
}

TEST(LintRules, RngFiresAndSuppresses) {
  // Note the virtual basename must not start with "rng" (that spelling is
  // the seeded-helper exemption tested below).
  CheckRule("rng.cc", "src/core/randomness_fixture.cc", "rng");
}

TEST(LintRules, RngExemptInSeededHelpers) {
  LintRun run;
  run.SetRuleFilter("rng");
  run.AddFile("src/stats/rng.cc", ReadFixture("rng.cc"));
  EXPECT_TRUE(run.Run().empty());
}

TEST(LintRules, PtrHashFiresAndSuppresses) {
  CheckRule("ptr_hash.cc", "src/core/ptr_hash_fixture.cc", "ptr-hash");
}

TEST(LintRules, UnorderedIterFiresAndSuppresses) {
  CheckRule("unordered_iter.cc", "src/common/unordered_fixture.cc", "unordered-iter");
}

TEST(LintRules, StdoutFiresAndSuppresses) {
  CheckRule("stdout.cc", "src/core/stdout_fixture.cc", "stdout");
}

TEST(LintRules, StdoutOnlyAppliesToEngineCode) {
  LintRun run;
  run.SetRuleFilter("stdout");
  run.AddFile("bench/stdout_fixture.cc", ReadFixture("stdout.cc"));
  EXPECT_TRUE(run.Run().empty());
}

TEST(LintRules, SelfContainedFiresOnMissingDirectInclude) {
  CheckRule("self_contained.h", "src/core/self_contained_fixture.h", "self-contained");
}

TEST(LintRules, SelfContainedSuppressedFileWide) {
  CheckQuiet("self_contained_allowed.h", "src/core/self_contained_allowed_fixture.h",
             "self-contained");
}

// The escape hatch accepts several rules in one marker.
TEST(LintRules, AllowListsMultipleRules) {
  LintRun run;
  run.AddFile("src/core/multi.cc",
              "#include <iostream>\n"
              "void F() {\n"
              "  // cedar-lint: allow(stdout, rng)\n"
              "  std::cout << rand();\n"
              "}\n");
  EXPECT_TRUE(run.Run().empty());
}

// Rule tokens inside comments and string literals never fire.
TEST(LintRules, StrippingIgnoresCommentsAndStrings) {
  LintRun run;
  run.AddFile("src/core/strings.cc",
              "// calls rand() and system_clock::now() in prose\n"
              "const char* kText = \"rand() std::cout reinterpret_cast<uintptr_t>\";\n"
              "/* new int(3); delete p; for (auto& x : unordered) */\n");
  EXPECT_TRUE(run.Run().empty());
}

TEST(LintRules, AllRulesHaveKnownSlugs) {
  const std::vector<std::string>& rules = AllRules();
  EXPECT_EQ(rules.size(), 6u);
  for (const char* rule :
       {"wallclock", "rng", "ptr-hash", "unordered-iter", "stdout", "self-contained"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), rule), rules.end()) << rule;
  }
}

// Encoding-prefixed raw string literals (u8R"(...)") must not desync the
// lexer: the body, with its unbalanced '{' and bare '"', is blanked and the
// surrounding code survives.
TEST(StripSource, PrefixedRawStringBodyIsBlanked) {
  StrippedSource stripped = StripSource(
      "int before = 1;\n"
      "const char* s = u8R\"(unbalanced { \" brace)\";\n"
      "int after = 2;\n");
  ASSERT_EQ(stripped.lines.size(), 3u);
  EXPECT_EQ(stripped.lines[0], "int before = 1;");
  EXPECT_EQ(stripped.lines[1].find('{'), std::string::npos);
  EXPECT_NE(stripped.lines[1].find("u8R"), std::string::npos);
  EXPECT_EQ(stripped.lines[2], "int after = 2;");
}

// A rule token on the line after a prefixed raw string literal still fires
// on its own line: the literal's bare '"' and '{' do not desync the lexer.
TEST(LintRules, PrefixedRawStringDoesNotDesyncLines) {
  LintRun run;
  run.SetRuleFilter("rng");
  run.AddFile("src/core/raw_string_fixture.cc",
              "const char* kQuery = u8R\"sql(SELECT \" { FROM t)sql\";\n"
              "int Draw() { return rand(); }\n");
  std::vector<Diagnostic> diagnostics = run.Run();
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "rng");
  EXPECT_EQ(diagnostics[0].line, 2);
}

// Exit status of the cedar_lint binary (CEDAR_LINT_BINARY, injected by
// tests/CMakeLists.txt) for one --rule over the tools/ tree.
int LintCliExitCode(const std::string& rule) {
  const std::string root = std::string(CEDAR_LINT_FIXTURE_DIR) + "/../..";
  const std::string command = std::string("'") + CEDAR_LINT_BINARY + "' --root='" + root +
                              "' --dirs=tools --rule=" + rule + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// An unknown --rule would filter out every rule and report a clean tree, so
// the CLI rejects it as a usage error.
TEST(LintCli, UnknownRuleIsAUsageError) {
  EXPECT_EQ(LintCliExitCode("nosuchrule"), 2);
  EXPECT_EQ(LintCliExitCode("wallclok"), 2);
  EXPECT_EQ(LintCliExitCode("wallclock"), 0);
}

// The real tree must stay clean: the ctest-registered cedar_lint binary run
// enforces this too, but catching it here gives a friendlier failure inside
// the unit suite.
TEST(LintTree, RepositoryIsCleanWhenSourcesPresent) {
  const std::string root = std::string(CEDAR_LINT_FIXTURE_DIR) + "/../..";
  int files_scanned = 0;
  std::vector<Diagnostic> diagnostics =
      LintTree(root, {"src", "bench", "tools", "tests"}, "", &files_scanned);
  ASSERT_GT(files_scanned, 0);
  for (const Diagnostic& diagnostic : diagnostics) {
    ADD_FAILURE() << diagnostic.ToString();
  }
}

}  // namespace
}  // namespace lint
}  // namespace cedar
