// Lexing layer of cedar_lint (lint.cc): blanks comments and string/char
// literals out of C++ source so rule logic only ever sees code, harvests
// `cedar-lint: allow(...)` markers from the comment text while doing so, and
// lists the tree's lintable files.

#ifndef CEDAR_TOOLS_LINT_STRIPPED_SOURCE_H_
#define CEDAR_TOOLS_LINT_STRIPPED_SOURCE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cedar {
namespace lint {

struct StrippedSource {
  // Code with comments and string/char literals blanked to spaces, one entry
  // per input line.
  std::vector<std::string> lines;
  // line (1-based) -> rules allowed on that line (`cedar-lint: allow(rule)`).
  std::map<int, std::set<std::string>> line_allows;
  // Rules allowed for the whole file (`cedar-lint: allow-file(rule)`).
  std::set<std::string> file_allows;
};

// Runs the comment/string-stripping state machine over |content|. Handles
// line and block comments, escaped string/char literals, C++14 digit
// separators, and raw string literals including the encoding-prefixed forms
// (R"(..)", u8R"(..)", uR"(..)", UR"(..)", LR"(..)").
StrippedSource StripSource(const std::string& content);

// True when the allow tables suppress |rule| at |line|: an allow on the line
// itself or the line directly above, or a file-wide allow.
bool IsAllowed(const StrippedSource& source, int line, const std::string& rule);

// Repo-relative paths of every .cc/.h file under |root|/|dirs|, sorted.
// Skips tests/lint_fixtures/ (rule violations on purpose) and build trees.
// Directories that do not exist are ignored.
std::vector<std::string> ListSourceFiles(const std::string& root,
                                         const std::vector<std::string>& dirs);

// Reads |root|/|relative| as bytes ("" when unreadable).
std::string ReadSourceFile(const std::string& root, const std::string& relative);

}  // namespace lint
}  // namespace cedar

#endif  // CEDAR_TOOLS_LINT_STRIPPED_SOURCE_H_
