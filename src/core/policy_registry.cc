#include "src/core/policy_registry.h"

#include <sstream>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/core/policies.h"

namespace cedar {

std::vector<std::string> KnownPolicyNames() {
  return {"cedar",       "cedar-empirical", "cedar-offline", "prop-split",
          "equal-split", "mean-subtract",   "ideal"};
}

std::unique_ptr<WaitPolicy> MakePolicyByName(const std::string& name) {
  if (name == "cedar") {
    return std::make_unique<CedarPolicy>();
  }
  if (name == "cedar-empirical") {
    CedarPolicyOptions options;
    options.learner.use_empirical_estimates = true;
    return std::make_unique<CedarPolicy>(options);
  }
  if (name == "cedar-offline") {
    return std::make_unique<OfflineOptimalPolicy>();
  }
  if (name == "prop-split") {
    return std::make_unique<ProportionalSplitPolicy>();
  }
  if (name == "equal-split") {
    return std::make_unique<EqualSplitPolicy>();
  }
  if (name == "mean-subtract") {
    return std::make_unique<MeanSubtractPolicy>();
  }
  if (name == "ideal") {
    return std::make_unique<OraclePolicy>();
  }
  constexpr char kFixedPrefix[] = "fixed:";
  if (name.rfind(kFixedPrefix, 0) == 0) {
    const std::string value = name.substr(sizeof(kFixedPrefix) - 1);
    const double wait = ParseDouble(value, "fixed policy wait");
    CEDAR_CHECK(wait >= 0.0) << "bad fixed policy wait: '" << value << "'";
    return std::make_unique<FixedWaitPolicy>(wait);
  }

  std::ostringstream known;
  for (const auto& known_name : KnownPolicyNames()) {
    known << " " << known_name;
  }
  CEDAR_LOG(FATAL) << "unknown policy '" << name << "'; known:" << known.str()
                   << " fixed:<wait>";
  __builtin_unreachable();
}

std::vector<std::unique_ptr<WaitPolicy>> MakePolicyList(const std::string& comma_separated) {
  std::vector<std::unique_ptr<WaitPolicy>> policies;
  std::istringstream in(comma_separated);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) {
      policies.push_back(MakePolicyByName(token));
    }
  }
  CEDAR_CHECK(!policies.empty()) << "empty policy list: '" << comma_separated << "'";
  return policies;
}

}  // namespace cedar
