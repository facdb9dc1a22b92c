#include "tools/lint/lint.h"

#include <algorithm>
#include <regex>
#include <sstream>
#include <utility>

#include "tools/lint/stripped_source.h"

namespace cedar {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Path predicates deciding which rules apply where.

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Wall-clock reads are the observability layer's and the realtime
// aggregator's job; everything else must be simulated-time only.
bool WallclockExempt(const std::string& path) {
  return StartsWith(path, "src/obs/") || StartsWith(path, "src/rt/");
}

// The seeded Rng wrappers (and their unit test, which cross-checks against
// the std engines) are the one sanctioned home for raw std randomness.
bool RngExempt(const std::string& path) {
  const std::string base = Basename(path);
  return StartsWith(base, "rng");
}

bool IsEngineCode(const std::string& path) { return StartsWith(path, "src/"); }

// ---------------------------------------------------------------------------
// Pattern-rule table.

struct PatternRule {
  const char* rule;
  std::regex pattern;
  const char* message;
  bool (*exempt)(const std::string& path);  // may be null
  bool engine_only;                         // restrict to src/
};

const std::vector<PatternRule>& PatternRules() {
  static const std::vector<PatternRule>* rules = new std::vector<PatternRule>{
      {"wallclock",
       std::regex("\\b(system_clock|steady_clock|high_resolution_clock)\\b|"
                  "\\b(time|clock|gettimeofday|clock_gettime)\\s*\\("),
       "wall-clock read outside src/obs/ and src/rt/; engine results must not depend on real "
       "time",
       &WallclockExempt, false},
      {"rng",
       std::regex("\\b(rand|srand)\\s*\\(|\\brandom_device\\b|\\bmt19937(_64)?\\b|"
                  "\\bdefault_random_engine\\b|\\bminstd_rand0?\\b"),
       "raw std randomness outside src/stats/rng; draw through a seeded cedar::Rng instead",
       &RngExempt, false},
      {"ptr-hash",
       std::regex("reinterpret_cast\\s*<\\s*(std::)?(uintptr_t|size_t|intptr_t)\\s*>|"
                  "std::hash\\s*<[^<>]*\\*\\s*>"),
       "pointer-address fingerprint/hash; addresses are recycled between queries — key by "
       "content or sequence id",
       nullptr, false},
      {"stdout",
       std::regex("\\bstd::cout\\b|\\bprintf\\s*\\(|\\bfprintf\\s*\\(\\s*stdout\\b|"
                  "\\bputs\\s*\\("),
       "direct stdout write from src/; take a std::ostream& or use CEDAR_LOG",
       nullptr, true},
  };
  return *rules;
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream out;
  out << file << ":" << line << ": error: [" << rule << "] " << message;
  return out.str();
}

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string>* rules = new std::vector<std::string>{
      "wallclock", "rng", "ptr-hash", "unordered-iter", "stdout", "self-contained",
  };
  return *rules;
}

void LintRun::SetRuleFilter(const std::string& rule) { rule_filter_ = rule; }

void LintRun::AddFile(const std::string& path, const std::string& content) {
  FileState state{StripSource(content), path, {}};
  // Include paths must come from the raw text: the stripper blanks string
  // literals, which erases the path inside #include "...".
  static const std::regex kInclude("^\\s*#\\s*include\\s*[<\"]([^>\"]+)[>\"]");
  std::istringstream raw(content);
  std::string raw_line;
  while (std::getline(raw, raw_line)) {
    std::smatch match;
    if (std::regex_search(raw_line, match, kInclude)) {
      state.includes.insert(match[1].str());
    }
  }
  files_.push_back(std::move(state));
}

bool LintRun::RuleEnabled(const std::string& rule) const {
  return rule_filter_.empty() || rule_filter_ == rule;
}

void LintRun::Report(const FileState& file, int line, const std::string& rule,
                     const std::string& message) {
  if (!RuleEnabled(rule) || IsAllowed(file, line, rule)) {
    return;
  }
  diagnostics_.push_back(Diagnostic{file.path, line, rule, message});
}

void LintRun::CheckPatternRules(const FileState& file) {
  for (const PatternRule& rule : PatternRules()) {
    if (rule.engine_only && !IsEngineCode(file.path)) {
      continue;
    }
    if (rule.exempt != nullptr && rule.exempt(file.path)) {
      continue;
    }
    for (size_t i = 0; i < file.lines.size(); ++i) {
      if (std::regex_search(file.lines[i], rule.pattern)) {
        Report(file, static_cast<int>(i) + 1, rule.rule, rule.message);
      }
    }
  }
}

void LintRun::CheckUnorderedIteration(const FileState& file) {
  // Names declared as unordered containers in this file and, for a .cc, in
  // its sibling header (members iterated in the implementation).
  static const std::regex kDecl(
      "\\bstd::unordered_(?:map|set|multimap|multiset)\\s*<[^;{}]*>\\s+(\\w+)\\s*[;={(]");
  static const std::regex kDeclOpen(  // declaration whose template args span lines
      "\\bstd::unordered_(?:map|set|multimap|multiset)\\s*<[^;{}>]*$");
  std::set<std::string> names;
  auto collect = [&](const FileState& source) {
    for (const std::string& line : source.lines) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kDecl);
           it != std::sregex_iterator(); ++it) {
        names.insert((*it)[1].str());
      }
    }
  };
  collect(file);
  if (!IsHeader(file.path)) {
    std::string sibling = file.path;
    const size_t dot = sibling.find_last_of('.');
    if (dot != std::string::npos) {
      sibling = sibling.substr(0, dot) + ".h";
      auto it = by_path_.find(sibling);
      if (it != by_path_.end()) {
        collect(*it->second);
      }
    }
  }
  if (names.empty()) {
    return;
  }
  std::string alternation;
  for (const std::string& name : names) {
    alternation += (alternation.empty() ? "" : "|") + name;
  }
  // A range-for loop, or an iterator range (begin()/cbegin()) that copies
  // the container out in its hash order.
  const std::regex iteration("\\bfor\\s*\\([^();]*:[^();]*\\b(" + alternation +
                             ")\\b|\\b(" + alternation + ")\\s*(?:\\.|->)\\s*c?begin\\s*\\(");
  for (size_t i = 0; i < file.lines.size(); ++i) {
    std::smatch match;
    if (std::regex_search(file.lines[i], match, iteration)) {
      Report(file, static_cast<int>(i) + 1, "unordered-iter",
             "iteration over unordered container '" +
                 (match[1].matched ? match[1] : match[2]).str() +
                 "'; order is implementation-defined — iterate a sorted copy or switch to an "
                 "ordered container before this feeds any output");
    }
  }
}

void LintRun::CheckSelfContained(const FileState& file) {
  if (!IsHeader(file.path)) {
    return;
  }
  struct Symbol {
    const char* display;
    std::regex use;
    std::vector<std::string> providers;  // any direct include satisfies
  };
  static const std::vector<Symbol>* symbols = new std::vector<Symbol>{
      {"std::string", std::regex("\\bstd::(string|to_string)\\b"), {"string"}},
      {"std::vector", std::regex("\\bstd::vector\\b"), {"vector"}},
      {"std::unique_ptr/std::shared_ptr",
       std::regex("\\bstd::(unique_ptr|shared_ptr|make_unique|make_shared|weak_ptr)\\b"),
       {"memory"}},
      {"std::function", std::regex("\\bstd::function\\b"), {"functional"}},
      {"std::unordered_map", std::regex("\\bstd::unordered_(map|multimap)\\b"),
       {"unordered_map"}},
      {"std::unordered_set", std::regex("\\bstd::unordered_(set|multiset)\\b"),
       {"unordered_set"}},
      {"std::map", std::regex("\\bstd::(map|multimap)\\b"), {"map"}},
      {"std::set", std::regex("\\bstd::(set|multiset)\\b"), {"set"}},
      {"std::pair", std::regex("\\bstd::(pair|make_pair|move|forward|swap)\\b"), {"utility"}},
      {"std::tuple", std::regex("\\bstd::(tuple|make_tuple|tie)\\b"), {"tuple"}},
      {"std::optional", std::regex("\\bstd::(optional|nullopt)\\b"), {"optional"}},
      {"std::array", std::regex("\\bstd::array\\b"), {"array"}},
      {"std::deque", std::regex("\\bstd::deque\\b"), {"deque"}},
      {"std::initializer_list", std::regex("\\bstd::initializer_list\\b"),
       {"initializer_list"}},
      {"std::mutex", std::regex("\\bstd::(mutex|lock_guard|unique_lock|scoped_lock)\\b"),
       {"mutex"}},
      {"std::condition_variable", std::regex("\\bstd::condition_variable\\b"),
       {"condition_variable"}},
      {"std::thread", std::regex("\\bstd::thread\\b"), {"thread"}},
      {"std::atomic", std::regex("\\bstd::atomic\\b"), {"atomic"}},
      {"std::ostream/std::istream", std::regex("\\bstd::(ostream|istream|iostream|endl)\\b"),
       {"iosfwd", "ostream", "istream", "iostream"}},
      {"std::ostringstream", std::regex("\\bstd::[io]?stringstream\\b"), {"sstream"}},
      {"fixed-width ints", std::regex("\\b(u?int(8|16|32|64)_t)\\b"),
       {"cstdint", "stdint.h"}},
      {"cedar::Mutex/MutexLock/CondVar",
       std::regex("\\bcedar::(Mutex|MutexLock|CondVar)\\b|"
                  "\\b(Mutex|MutexLock|CondVar)\\s+\\w+\\s*[;({]"),
       {"src/common/mutex.h"}},
      {"CEDAR_GUARDED_BY et al.",
       std::regex("\\bCEDAR_(CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY|REQUIRES|"
                  "ACQUIRE|RELEASE|TRY_ACQUIRE|EXCLUDES|RETURN_CAPABILITY|"
                  "NO_THREAD_SAFETY_ANALYSIS)\\b"),
       {"src/common/thread_annotations.h", "src/common/mutex.h"}},
  };
  for (const Symbol& symbol : *symbols) {
    bool provided = false;
    for (const std::string& provider : symbol.providers) {
      // A provider header is allowed to name its own symbols.
      if (file.includes.count(provider) != 0 || file.path == provider) {
        provided = true;
        break;
      }
    }
    if (provided) {
      continue;
    }
    for (size_t i = 0; i < file.lines.size(); ++i) {
      if (std::regex_search(file.lines[i], symbol.use)) {
        Report(file, static_cast<int>(i) + 1, "self-contained",
               std::string("header uses ") + symbol.display + " but does not include <" +
                   symbol.providers.front() + "> directly");
        break;  // one diagnostic per symbol per header
      }
    }
  }
}

std::vector<Diagnostic> LintRun::Run() {
  diagnostics_.clear();
  by_path_.clear();
  for (const FileState& file : files_) {
    by_path_[file.path] = &file;
  }
  for (const FileState& file : files_) {
    CheckPatternRules(file);
    CheckUnorderedIteration(file);
    CheckSelfContained(file);
  }
  std::sort(diagnostics_.begin(), diagnostics_.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });
  return diagnostics_;
}

std::vector<Diagnostic> LintTree(const std::string& root, const std::vector<std::string>& dirs,
                                 const std::string& rule_filter, int* out_files_scanned) {
  LintRun run;
  run.SetRuleFilter(rule_filter);
  int scanned = 0;
  for (const std::string& relative : ListSourceFiles(root, dirs)) {
    run.AddFile(relative, ReadSourceFile(root, relative));
    ++scanned;
  }
  if (out_files_scanned != nullptr) {
    *out_files_scanned = scanned;
  }
  return run.Run();
}

}  // namespace lint
}  // namespace cedar
