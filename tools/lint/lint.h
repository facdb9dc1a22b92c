// cedar_lint: repo-specific static analysis enforcing Cedar's determinism
// and engineering invariants (DESIGN.md §10). The engine is a library so the
// fixture unit test (tests/lint_test.cc) can drive individual rules; the
// CLI driver (tools/cedar_lint.cc) scans the tree and is registered as the
// `cedar_lint` ctest test under the tier1_lint label.
//
// Rules (slug — invariant):
//   wallclock        — no system_clock/steady_clock/time()/clock() outside
//                      src/obs/ and src/rt/: engine results must never depend
//                      on wall-clock time (thread-count bit-identity).
//   rng              — no rand()/srand()/std::random_device/raw std engines
//                      outside the seeded Rng helpers (src/stats/rng.*):
//                      every random draw must flow from an experiment seed.
//   ptr-hash         — no pointer-address-based fingerprints or hashing
//                      (reinterpret_cast to integer, std::hash of a pointer):
//                      addresses are recycled between queries, the exact
//                      aliasing bug class fixed in CedarPolicy's table cache.
//   unordered-iter   — no iteration over unordered containers (range-for
//                      loops, begin()/cbegin() iterator ranges): iteration
//                      order is implementation-defined and silently leaks
//                      nondeterminism into CSV/trace/report output paths.
//   stdout           — no std::cout/printf writing from src/: libraries take
//                      a std::ostream& or use CEDAR_LOG so tools own stdout.
//   self-contained   — a header that names a common std:: type directly
//                      includes the std header that provides it (curated
//                      symbol table, not full IWYU).
//
// Escape hatch: `// cedar-lint: allow(rule-a, rule-b)` on the offending line
// or the line directly above suppresses those rules there; a justification
// comment is expected by review convention. `// cedar-lint: allow-file(rule)`
// anywhere in a file suppresses the rule for the whole file.

#ifndef CEDAR_TOOLS_LINT_LINT_H_
#define CEDAR_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/stripped_source.h"

namespace cedar {
namespace lint {

struct Diagnostic {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  // "file:line: error: [rule] message" — clickable in editors and CI logs.
  std::string ToString() const;
};

// All known rule slugs, in reporting order.
const std::vector<std::string>& AllRules();

// A linting pass over a set of files. The cross-file rule (unordered-iter,
// which pairs <name>.cc with <name>.h) sees every file added before Run(),
// so add the whole tree first.
class LintRun {
 public:
  LintRun() = default;

  // Restrict to one rule (fixture tests); empty = all rules.
  void SetRuleFilter(const std::string& rule);

  // Registers |content| under repo-relative |path| ("src/core/policy.h").
  // Path decides which rules apply.
  void AddFile(const std::string& path, const std::string& content);

  // Runs every applicable rule over the added files and returns the
  // unsuppressed diagnostics sorted by (file, line, rule).
  std::vector<Diagnostic> Run();

 private:
  // The stripped code (rule regexes never match inside prose or literals)
  // and its allow markers, plus what the cross-file rules need.
  struct FileState : StrippedSource {
    std::string path;
    std::set<std::string> includes;  // direct #include targets
  };

  bool RuleEnabled(const std::string& rule) const;
  void Report(const FileState& file, int line, const std::string& rule,
              const std::string& message);

  void CheckPatternRules(const FileState& file);
  void CheckUnorderedIteration(const FileState& file);
  void CheckSelfContained(const FileState& file);

  std::vector<FileState> files_;
  std::map<std::string, const FileState*> by_path_;
  std::string rule_filter_;
  std::vector<Diagnostic> diagnostics_;
};

// Convenience for the CLI driver: reads |root|-relative |dirs| recursively
// (.cc/.h files, skipping tests/lint_fixtures/ and build directories), feeds
// them to a LintRun, and returns the diagnostics. Paths that do not exist
// are ignored. |out_files_scanned| (optional) reports the file count.
std::vector<Diagnostic> LintTree(const std::string& root, const std::vector<std::string>& dirs,
                                 const std::string& rule_filter, int* out_files_scanned);

}  // namespace lint
}  // namespace cedar

#endif  // CEDAR_TOOLS_LINT_LINT_H_
