#include "src/sim/experiment.h"

#include "src/common/logging.h"
#include "src/sim/experiment_engine.h"

namespace cedar {

const PolicyOutcome& ExperimentResult::Outcome(const std::string& policy_name) const {
  for (const auto& outcome : outcomes) {
    if (outcome.policy_name == policy_name) {
      return outcome;
    }
  }
  CEDAR_LOG(FATAL) << "no outcome for policy '" << policy_name << "'";
  __builtin_unreachable();
}

double ExperimentResult::ImprovementPercent(const std::string& baseline,
                                            const std::string& treatment) const {
  return PercentImprovement(Outcome(baseline).MeanQuality(), Outcome(treatment).MeanQuality());
}

std::vector<double> ExperimentResult::PerQueryImprovementPercent(
    const std::string& baseline, const std::string& treatment,
    double min_baseline_quality) const {
  const auto& base = Outcome(baseline).quality.values();
  const auto& treat = Outcome(treatment).quality.values();
  CEDAR_CHECK_EQ(base.size(), treat.size());
  std::vector<double> improvements;
  improvements.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i] < min_baseline_quality) {
      continue;
    }
    improvements.push_back(PercentImprovement(base[i], treat[i]));
  }
  return improvements;
}

double PercentImprovement(double baseline, double treatment) {
  CEDAR_CHECK_GT(baseline, 0.0) << "baseline quality must be positive for an improvement %";
  return 100.0 * (treatment - baseline) / baseline;
}

std::vector<const WaitPolicy*> PolicyPointers(
    const std::vector<std::unique_ptr<WaitPolicy>>& policies) {
  std::vector<const WaitPolicy*> pointers;
  pointers.reserve(policies.size());
  for (const auto& policy : policies) {
    pointers.push_back(policy.get());
  }
  return pointers;
}

ExperimentResult RunExperiment(const Workload& workload,
                               const std::vector<const WaitPolicy*>& policies,
                               const ExperimentConfig& config) {
  return RunExperimentDriver<ExperimentResult>(
      "sim", workload, policies, config, config.sim,
      [&config](const TreeSpec& offline_tree, const TreeSimulationOptions& options) {
        return TreeSimulation(offline_tree, config.deadline, options);
      },
      [](ExperimentResult&, const QueryResult&) {});
}

}  // namespace cedar
