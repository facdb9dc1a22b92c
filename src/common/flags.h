// A tiny command-line flag parser for the bench harnesses and examples.
//
// Flags are registered on a FlagSet with a default value and a help string,
// then bound by Parse(). Accepted syntaxes: --name=value, --name value, and
// --name / --noname for booleans. Unknown flags are fatal (benches should not
// silently ignore typos); "--help" prints usage and exits.

#ifndef CEDAR_SRC_COMMON_FLAGS_H_
#define CEDAR_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cedar {

class FlagSet {
 public:
  // |program_doc| is printed at the top of --help output.
  explicit FlagSet(std::string program_doc);

  // Registration. The returned pointer stays valid for the FlagSet lifetime
  // and is updated by Parse(), which dies on an int outside [min, max].
  double* AddDouble(const std::string& name, double default_value, const std::string& help);
  // A double flag whose value must be finite and > 0 (a deadline).
  double* AddPositiveDouble(const std::string& name, double default_value,
                            const std::string& help);
  int64_t* AddInt(const std::string& name, int64_t default_value, const std::string& help,
                  int64_t min = std::numeric_limits<int64_t>::min(),
                  int64_t max = std::numeric_limits<int64_t>::max());
  bool* AddBool(const std::string& name, bool default_value, const std::string& help);
  std::string* AddString(const std::string& name, const std::string& default_value,
                         const std::string& help);

  // Parses argv, updating registered flags. Fatal on unknown flags or
  // malformed values. Returns leftover positional arguments.
  std::vector<std::string> Parse(int argc, char** argv);

  // Renders the usage text (also shown for --help).
  std::string Usage() const;

 private:
  enum class Type { kDouble, kInt, kBool, kString };

  struct Flag {
    Type type;
    std::string help;
    std::string default_text;
    double* double_value = nullptr;
    bool double_positive = false;
    int64_t* int_value = nullptr;
    int64_t int_min = 0;
    int64_t int_max = 0;
    bool* bool_value = nullptr;
    std::string* string_value = nullptr;
  };

  void SetFlagValue(const std::string& name, Flag& flag, const std::string& value);

  std::string program_doc_;
  std::string program_name_;
  std::map<std::string, Flag> flags_;
  // Flag storage: node-based deques keep pointers stable.
  std::vector<std::unique_ptr<double>> double_storage_;
  std::vector<std::unique_ptr<int64_t>> int_storage_;
  std::vector<std::unique_ptr<bool>> bool_storage_;
  std::vector<std::unique_ptr<std::string>> string_storage_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_FLAGS_H_
