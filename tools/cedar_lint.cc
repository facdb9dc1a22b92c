// cedar_lint: scans the tree for violations of Cedar's determinism and
// engineering invariants (see tools/lint/lint.h for the rule table and
// DESIGN.md §10 for the policy). Registered with ctest as the `cedar_lint`
// test under the tier1_lint label, so every `ctest` run machine-checks the
// invariants the paper figures depend on.
//
//   cedar_lint --root=/path/to/repo            # lint src/ bench/ tools/ tests/
//   cedar_lint --root=. --rule=wallclock       # run a single rule
//   cedar_lint --list-rules
//
// Exit status: 0 when clean, 1 when any unsuppressed violation was found,
// 2 on usage errors (including a --rule that is not in --list-rules).
// Deliberately free of cedar library dependencies: the linter must stay
// buildable even when the code it lints is not.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace {

bool ConsumeFlag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string rule;
  std::string dirs_flag = "src,bench,tools,tests";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& name : cedar::lint::AllRules()) {
        std::cout << name << "\n";
      }
      return 0;
    }
    if (ConsumeFlag(arg, "root", &root) || ConsumeFlag(arg, "rule", &rule) ||
        ConsumeFlag(arg, "dirs", &dirs_flag)) {
      continue;
    }
    std::cerr << "cedar_lint: unknown argument '" << arg
              << "' (want --root=PATH [--rule=RULE] [--dirs=a,b] [--list-rules])\n";
    return 2;
  }
  const std::vector<std::string>& rules = cedar::lint::AllRules();
  if (!rule.empty() && std::find(rules.begin(), rules.end(), rule) == rules.end()) {
    // An unknown slug would filter out every rule and report a clean tree.
    std::cerr << "cedar_lint: unknown --rule='" << rule << "' (see --list-rules)\n";
    return 2;
  }

  std::vector<std::string> dirs;
  std::string dir;
  for (char c : dirs_flag + ",") {
    if (c == ',') {
      if (!dir.empty()) {
        dirs.push_back(dir);
      }
      dir.clear();
    } else {
      dir.push_back(c);
    }
  }

  int files_scanned = 0;
  std::vector<cedar::lint::Diagnostic> diagnostics =
      cedar::lint::LintTree(root, dirs, rule, &files_scanned);
  for (const cedar::lint::Diagnostic& diagnostic : diagnostics) {
    std::cout << diagnostic.ToString() << "\n";
  }
  if (files_scanned == 0) {
    std::cerr << "cedar_lint: no .cc/.h files found under --root=" << root
              << " (wrong --root?)\n";
    return 2;
  }
  std::cout << "cedar_lint: " << files_scanned << " files, " << diagnostics.size()
            << " violation" << (diagnostics.size() == 1 ? "" : "s") << "\n";
  return diagnostics.empty() ? 0 : 1;
}
