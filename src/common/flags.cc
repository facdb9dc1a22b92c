#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/parse.h"

namespace cedar {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

FlagSet::FlagSet(std::string program_doc) : program_doc_(std::move(program_doc)) {}

double* FlagSet::AddDouble(const std::string& name, double default_value, const std::string& help) {
  double_storage_.push_back(std::make_unique<double>(default_value));
  Flag flag;
  flag.type = Type::kDouble;
  flag.help = help;
  flag.default_text = std::to_string(default_value);
  flag.double_value = double_storage_.back().get();
  flags_[name] = flag;
  return flag.double_value;
}

double* FlagSet::AddPositiveDouble(const std::string& name, double default_value,
                                   const std::string& help) {
  double* value = AddDouble(name, default_value, help);
  flags_[name].double_positive = true;
  return value;
}

int64_t* FlagSet::AddInt(const std::string& name, int64_t default_value, const std::string& help,
                         int64_t min, int64_t max) {
  int_storage_.push_back(std::make_unique<int64_t>(default_value));
  Flag flag;
  flag.type = Type::kInt;
  flag.help = help;
  flag.default_text = std::to_string(default_value);
  flag.int_value = int_storage_.back().get();
  flag.int_min = min;
  flag.int_max = max;
  flags_[name] = flag;
  return flag.int_value;
}

bool* FlagSet::AddBool(const std::string& name, bool default_value, const std::string& help) {
  bool_storage_.push_back(std::make_unique<bool>(default_value));
  Flag flag;
  flag.type = Type::kBool;
  flag.help = help;
  flag.default_text = default_value ? "true" : "false";
  flag.bool_value = bool_storage_.back().get();
  flags_[name] = flag;
  return flag.bool_value;
}

std::string* FlagSet::AddString(const std::string& name, const std::string& default_value,
                                const std::string& help) {
  string_storage_.push_back(std::make_unique<std::string>(default_value));
  Flag flag;
  flag.type = Type::kString;
  flag.help = help;
  flag.default_text = default_value.empty() ? "\"\"" : default_value;
  flag.string_value = string_storage_.back().get();
  flags_[name] = flag;
  return flag.string_value;
}

void FlagSet::SetFlagValue(const std::string& name, Flag& flag, const std::string& value) {
  switch (flag.type) {
    case Type::kDouble:
      *flag.double_value = flag.double_positive
                               ? ParsePositiveDouble(value, "double for --" + name)
                               : ParseDouble(value, "double for --" + name);
      break;
    case Type::kInt:
      *flag.int_value = ParseInt(value, "int for --" + name, flag.int_min, flag.int_max);
      break;
    case Type::kBool: {
      if (value == "true" || value == "1") {
        *flag.bool_value = true;
      } else if (value == "false" || value == "0") {
        *flag.bool_value = false;
      } else {
        CEDAR_LOG(FATAL) << "bad bool for --" << name << ": " << value;
      }
      break;
    }
    case Type::kString:
      *flag.string_value = value;
      break;
  }
}

std::vector<std::string> FlagSet::Parse(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "cedar";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      std::exit(0);
    }
    if (!StartsWith(arg, "--")) {
      positional.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    } else {
      name = body;
    }

    auto it = flags_.find(name);
    if (it == flags_.end() && !has_value && StartsWith(name, "no")) {
      // --noflag for booleans.
      auto no_it = flags_.find(name.substr(2));
      if (no_it != flags_.end() && no_it->second.type == Type::kBool) {
        *no_it->second.bool_value = false;
        continue;
      }
    }
    CEDAR_CHECK(it != flags_.end()) << "unknown flag --" << name << "\n" << Usage();

    Flag& flag = it->second;
    if (!has_value) {
      if (flag.type == Type::kBool) {
        *flag.bool_value = true;
        continue;
      }
      CEDAR_CHECK(i + 1 < argc) << "flag --" << name << " needs a value";
      value = argv[++i];
    }
    SetFlagValue(name, flag, value);
  }
  return positional;
}

std::string FlagSet::Usage() const {
  std::ostringstream out;
  out << program_doc_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.default_text << ")\n      " << flag.help
        << "\n";
  }
  return out.str();
}

}  // namespace cedar
