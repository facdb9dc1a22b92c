#include "src/sim/experiment.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"

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
  CEDAR_CHECK(!policies.empty());
  CEDAR_CHECK_GT(config.num_queries, 0);
  CEDAR_CHECK(std::isfinite(config.deadline) && config.deadline > 0.0)
      << "deadline " << config.deadline << " must be finite and > 0";

  ExperimentResult result;
  result.outcomes.resize(policies.size());
  AssignOutcomeNames(policies, result.outcomes);

  TreeSpec offline_tree = workload.OfflineTree();
  TreeSimulationOptions sim_options = config.sim;
  if (config.wait_table_store != nullptr) {
    sim_options.table_store = config.wait_table_store;
  }
  TreeSimulation simulation(offline_tree, config.deadline, sim_options);

  std::vector<QueryResult> grid = RunExperimentGrid<QueryResult>(
      workload, offline_tree, policies, config,
      [&simulation](const WaitPolicy& policy, const QueryRealization& realization) {
        return simulation.RunQuery(policy, realization);
      });

  // Merge in query order: paired samples stay aligned and the accumulation
  // order is fixed, independent of which worker ran which query.
  const size_t num_policies = policies.size();
  for (int q = 0; q < config.num_queries; ++q) {
    for (size_t p = 0; p < num_policies; ++p) {
      const QueryResult& query_result = grid[static_cast<size_t>(q) * num_policies + p];
      result.outcomes[p].quality.Add(query_result.quality);
      result.outcomes[p].tier0_send_time.Add(query_result.mean_tier0_send_time);
      result.outcomes[p].root_arrivals_late += query_result.root_arrivals_late;
    }
  }

  RecordDriverMetrics("sim", config, result.outcomes);
  return result;
}

}  // namespace cedar
