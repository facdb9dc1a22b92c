// cedar_plan: compute the optimal wait plan and quality curve for a tree
// described on the command line — the "what would Cedar do" calculator.
//
//   cedar_plan --stages="lognormal:2.77:0.84:50,lognormal:3.25:0.95:50"
//              --deadline=1000
//   cedar_plan --stages="normal:40:80:50,normal:40:10:50" --deadline=200
//              --target_quality=0.9
//
// Each stage is family:p1:p2:fanout, bottom first. Prints the per-tier
// optimal waits, the expected quality, a q_n(d) curve, and (optionally) the
// dual-problem answer for --target_quality.

#include <climits>
#include <iostream>
#include <sstream>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/common/table.h"
#include "src/core/dual.h"
#include "src/core/wait_optimizer.h"
#include "src/obs/obs_flags.h"

namespace {

cedar::TreeSpec ParseStages(const std::string& text) {
  using namespace cedar;
  std::vector<StageSpec> stages;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    std::istringstream stage_in(token);
    std::string family;
    std::string p1;
    std::string p2;
    std::string fanout;
    CEDAR_CHECK(std::getline(stage_in, family, ':') && std::getline(stage_in, p1, ':') &&
                std::getline(stage_in, p2, ':') && std::getline(stage_in, fanout, ':'))
        << "bad stage spec '" << token << "' (want family:p1:p2:fanout)";
    DistributionSpec spec;
    spec.family = DistributionFamilyFromName(family);
    spec.p1 = ParseDouble(p1, "p1 in stage '" + token + "'");
    spec.p2 = ParseDouble(p2, "p2 in stage '" + token + "'");
    stages.emplace_back(
        std::shared_ptr<const Distribution>(MakeDistribution(spec)),
        static_cast<int>(ParseInt(fanout, "fanout in stage '" + token + "'", 1, INT_MAX)));
  }
  return TreeSpec(std::move(stages));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("cedar_plan: optimal wait plan for a described aggregation tree.");
  std::string* stages_text = flags.AddString(
      "stages", "lognormal:2.77:0.84:50,lognormal:3.25:0.95:50",
      "comma-separated stages, bottom first, each family:p1:p2:fanout");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "end-to-end deadline");
  double* target = flags.AddDouble("target_quality", 0.0,
                                   "if > 0, also solve min deadline for this quality");
  int64_t* curve_points = flags.AddInt("curve_points", 12, "points of q_n(d) to print");
  ObservabilityFlags obs = AddObservabilityFlags(flags);
  flags.Parse(argc, argv);
  // --metrics-report exposes the CEDAR_PROFILE_SCOPE timings of the wait
  // optimizer / curve stack this tool exercises; --trace-out is accepted for
  // interface parity (planning alone emits no query-lifecycle spans).
  ObservabilityScope obs_scope = InitObservability(obs);

  TreeSpec tree = ParseStages(*stages_text);
  PrintBanner(std::cout, "cedar_plan: " + tree.ToString());

  TreePlan plan = PlanTree(tree, *deadline);
  TablePrinter waits({"tier", "absolute_wait", "share_of_deadline_%"});
  for (size_t tier = 0; tier < plan.absolute_waits.size(); ++tier) {
    waits.AddRow({std::to_string(tier),
                  TablePrinter::FormatDouble(plan.absolute_waits[tier], 2),
                  TablePrinter::FormatDouble(100.0 * plan.absolute_waits[tier] / *deadline, 1)});
  }
  waits.Print(std::cout);
  auto stack = BuildQualityCurveStack(tree, *deadline);
  std::cout << "expected quality q_n(" << *deadline
            << ") = " << TablePrinter::FormatDouble(stack[0](*deadline), 4) << "\n";

  PrintBanner(std::cout, "maximum expected quality vs deadline");
  TablePrinter curve({"deadline", "q_n"});
  for (int i = 1; i <= *curve_points; ++i) {
    double d = *deadline * static_cast<double>(i) / static_cast<double>(*curve_points);
    curve.AddNumericRow({d, stack[0](d)}, 4);
  }
  curve.Print(std::cout);

  if (*target > 0.0) {
    DualSolution dual = SolveDeadlineForQuality(tree, *target, 100.0 * *deadline);
    PrintBanner(std::cout, "dual problem");
    if (dual.feasible) {
      std::cout << "smallest deadline with q_n >= " << *target << ": "
                << TablePrinter::FormatDouble(dual.deadline, 2) << " (achieves "
                << TablePrinter::FormatDouble(dual.achieved_quality, 4) << ")\n";
    } else {
      std::cout << "target " << *target << " unreachable within " << 100.0 * *deadline << "\n";
    }
  }
  FinishObservability(obs, obs_scope, std::cout);
  return 0;
}
