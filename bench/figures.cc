#include "bench/figures.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster_runtime.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

using PolicyPtr = std::shared_ptr<const WaitPolicy>;

template <typename T>
std::shared_ptr<const Workload> Shared(T workload) {
  return std::make_shared<const T>(std::move(workload));
}

PolicyPtr PropSplit() { return std::make_shared<ProportionalSplitPolicy>(); }
PolicyPtr Cedar(CedarPolicyOptions options = {}) { return std::make_shared<CedarPolicy>(options); }
PolicyPtr CedarOffline() { return std::make_shared<OfflineOptimalPolicy>(); }
PolicyPtr Ideal() { return std::make_shared<OraclePolicy>(); }

// The paper's Spark deployment: 80 machines x 4 slots = 320 process slots.
const ClusterSpec kSparkCluster = {.machines = 80, .slots_per_machine = 4};

// Figure 6: the case for optimizing the wait duration (§3).
//
// Ideal (a-priori per-query knowledge) vs the Proportional-split straw-man
// on the Facebook map/reduce workload, deadlines 500-3000 s, fanout 50x50.
// The paper reports ideal improving average response quality by over 100%
// at the tight end, and the baseline failing to reach 0.9 even at 3000 s.
// Also includes the other straw-men of §3 footnote 3 (equal split and
// deadline-minus-mean), which "fare much worse".
Figure Fig06IdealGap() {
  constexpr int kFanout = 50;
  return {"Figure 6: Ideal vs straw-man wait policies, Facebook workload.", 100,
          {{.title = "Figure 6: Ideal's improvement over straw-man wait policies "
                     "(Facebook map/reduce, fanout 50x50)",
            .policies = {PropSplit(), std::make_shared<EqualSplitPolicy>(),
                         std::make_shared<MeanSubtractPolicy>(), Ideal()},
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(Shared(MakeFacebookWorkload(kFanout, kFanout)),
                                 {500, 1000, 1500, 2000, 2500, 3000})}}};
}

// Figure 7: improvement in response quality, Facebook workload.
//
//  (a) Deployment: the paper's Spark cluster (80 machines x 4 slots = 320
//      process slots, fanout 20 x 16). Reproduced on the slot-scheduled
//      ClusterRuntime. Paper improvements: 10-197% across deadlines.
//  (b) Simulation: fanout 50 x 50 (2500 processes). Paper improvements:
//      11-100%, with Cedar closely matching Ideal.
Figure Fig07Quality() {
  const std::vector<double> deadlines = {500, 1000, 1500, 2000, 2500, 3000};
  return {"Figure 7: Cedar vs Proportional-split vs Ideal, Facebook workload.", 100,
          {{.title = "Figure 7a (deployment): 320-slot cluster engine, fanout 20x16",
            .cluster = kSparkCluster,
            .policies = {PropSplit(), Cedar(), Ideal()},
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(Shared(MakeFacebookWorkload(20, 16)), deadlines)},
           {.title = "Figure 7b (simulation): fanout 50x50 (2500 processes)",
            .policies = {PropSplit(), Cedar(), Ideal()},
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(Shared(MakeFacebookWorkload(50, 50)), deadlines)}}};
}

// Figure 10: Cedar's order-statistics learning vs Cedar-with-empirical
// parameter estimates, on the deployment (cluster-engine) setup. The paper
// reports Cedar's improvements 30-70% higher than the empirical variant's.
//
// Note (EXPERIMENTS.md): with per-arrival re-optimization the empirical
// estimator partially self-corrects as more outputs arrive, so our gap is
// directionally consistent but smaller than the paper's.
Figure Fig10Empirical() {
  CedarPolicyOptions empirical;
  empirical.learner.use_empirical_estimates = true;
  return {"Figure 10: order-statistics vs empirical estimates (deployment).", 100,
          {{.title = "Figure 10: Cedar vs Cedar-with-empirical-estimates (320-slot engine, "
                     "fanout 20x16)",
            .cluster = kSparkCluster,
            .policies = {PropSplit(), Cedar(empirical), Cedar()},
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(Shared(MakeFacebookWorkload(20, 16)),
                                 {300, 500, 750, 1000, 1500, 2000})}}};
}

// Figure 11: the importance of online learning under load fluctuation.
//
// Offline statistics are learned at low load (lognormal(2.0, 0.84) bottom
// stage); the actual load then rises (lognormal(4.2, 0.84)). Policies:
//   * prop-split      — stale global means (degrades sharply),
//   * cedar-offline   — the stale CalculateWait plan ("Cedar without online
//                       learning"),
//   * cedar           — learns the shifted distribution online per query,
//   * ideal           — knows the shifted distribution a priori.
//
// Our EXPERIMENTS.md documents that under faithful early-send semantics the
// stale CalculateWait plan is more robust than the paper's Figure 11
// suggests (its optimal wait sits deep in the believed tail); the stale
// straw-man shows the full degradation.
Figure Fig11OnlineLearning() {
  constexpr double kMuLow = 2.0;   // bottom-stage mu before the shift
  constexpr double kMuHigh = 4.2;  // and after it
  auto stationary = [](const std::string& name, double mu) {
    return std::make_shared<const StationaryWorkload>(
        name, "s",
        TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(mu, 0.84), 20,
                           std::make_shared<LogNormalDistribution>(3.25, 0.95), 16));
  };
  auto low_load = stationary("low-load", kMuLow);
  auto shifted = std::make_shared<const MismatchedOfflineWorkload>(
      stationary("high-load", kMuHigh), low_load->OfflineTree());
  const std::vector<double> deadlines = {200, 300, 400, 600, 800};
  const std::vector<PolicyPtr> policies = {PropSplit(), CedarOffline(), Cedar(), Ideal()};
  return {"Figure 11: online learning under a load shift.", 100,
          {{.title = "Figure 11 (before): all policies on the low-load distribution itself",
            .policies = policies,
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(low_load, deadlines)},
           {.title = "Figure 11 (after): load shifted up, offline stats stale (mu " +
                     TablePrinter::FormatDouble(kMuLow, 1) + " -> " +
                     TablePrinter::FormatDouble(kMuHigh, 1) + ")",
            .policies = policies,
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(shifted, deadlines)}}};
}

// Figure 12: sensitivity of Cedar's gains to the aggregation-tree fanout,
// at deadline 1000 s on the Facebook workload.
//  (a) equal fanout k1 = k2 swept from 5 to 50 (gains shrink at small
//      fanouts — quadratically fewer processes, less variation — and
//      stabilize around 50% beyond fanout 25 in the paper);
//  (b) k2 fixed at 50, ratio k1/k2 swept from 0.1 to 1.0 (gains stabilize
//      beyond a ratio of 0.2).
Figure Fig12Fanout() {
  constexpr double kDeadline = 1000.0;
  auto panel = [](const std::string& title, bool equal) {
    Panel panel{.title = title, .policies = {PropSplit(), Cedar()}, .label_columns = {"k1", "k2"}};
    for (int k1 : {5, 10, 15, 20, 25, 30, 40, 50}) {
      const int k2 = equal ? k1 : 50;
      panel.rows.push_back({{std::to_string(k1), std::to_string(k2)},
                            Shared(MakeFacebookWorkload(k1, k2)), kDeadline});
    }
    return panel;
  };
  return {"Figure 12: effect of fanout on Cedar's gains (D=1000s).", 100,
          {panel("Figure 12a: equal fanout k1 = k2", true),
           panel("Figure 12b: k2 = 50, ratio k1/k2 swept", false)}};
}

// Figure 13: Cedar with deeper aggregation trees. A 3-level tree (Facebook
// map bottom, reduce for both upper stages) is compared against the 2-level
// tree. Because the deeper tree needs larger deadlines for the same
// quality, the paper plots improvement against the *baseline's quality*
// rather than the deadline; we do the same by sweeping deadlines and
// reporting (baseline quality, improvement) pairs for both depths. The
// paper's finding: gains hold up and grow with depth, because Cedar
// near-optimally balances the deadline across more stages.
Figure Fig13Multilevel() {
  constexpr int kFanout = 25;
  std::vector<PanelRow> rows;
  auto add = [&](const std::string& levels, std::shared_ptr<const Workload> workload,
                 const std::vector<double>& deadlines) {
    for (PanelRow& row : DeadlineRows(workload, deadlines)) {
      row.labels.insert(row.labels.begin(), levels);
      rows.push_back(std::move(row));
    }
  };
  add("2", Shared(MakeFacebookWorkload(kFanout, kFanout)), {500, 800, 1200, 1800, 2600, 3600});
  add("3", Shared(MakeFacebookThreeLevelWorkload(kFanout, kFanout, kFanout)),
      {800, 1200, 1800, 2600, 3600, 5000});
  return {"Figure 13: 2-level vs 3-level aggregation trees.", 60,
          {{.title = "Figure 13: improvement vs baseline quality, 2-level and 3-level trees "
                     "(fanout " + std::to_string(kFanout) + " per level)",
            .policies = {PropSplit(), Cedar()},
            .label_columns = {"levels", "deadline_s"},
            .rows = std::move(rows),
            .note = "Read rows at matched q(prop-split) to compare depths, as in the paper."}}};
}

// Figure 14: interactive workload — Facebook's map distribution expressed
// in milliseconds at the bottom, Google's distribution on top, deadlines
// 140-170 ms (quoted production search deadlines). The paper reports Cedar
// improvements of 36-72% over Proportional-split, nearly matching Ideal.
Figure Fig14Interactive() {
  return {"Figure 14: interactive workload (FB map in ms + Google upper).", 150,
          {{.title = "Figure 14: interactive workload, deadlines 140-170 ms (fanout 50x50)",
            .policies = {PropSplit(), Cedar(), Ideal()},
            .label_columns = {"deadline_ms"},
            .rows = DeadlineRows(Shared(MakeInteractiveWorkload(50, 50)),
                                 {140, 145, 150, 155, 160, 165, 170})}}};
}

// Figure 15: Microsoft Cosmos analytics workload — extract phase at the
// bottom, full-aggregate on top. Only per-phase statistics were available
// (no per-job task durations), so every query shares the global
// distributions and Cedar's online learning is not in play; the gains come
// from the CalculateWait optimizer alone. The paper reports 9-79%
// improvements, close to Ideal. Cedar therefore equals the offline
// CalculateWait plan here; both run to demonstrate it.
Figure Fig15Cosmos() {
  return {"Figure 15: Cosmos extract/full-aggregate workload.", 150,
          {{.title = "Figure 15: Cosmos phase statistics (stationary; learning not in play)",
            .policies = {PropSplit(), CedarOffline(), Cedar(), Ideal()},
            .label_columns = {"deadline_s"},
            .rows = DeadlineRows(Shared(MakeCosmosWorkload(50, 50)), {60, 75, 95, 120, 150})}}};
}

// Figure 16: same distribution at both stages, sweeping the sigma parameter
// of X1 (the paper's x-axes): (a) Bing (mu=5.9, sigma2=1.25, us), sigma1 in
// 2.10-2.40; (b) Google (mu=2.94, sigma2=0.55, ms), sigma1 in 1.40-1.70;
// (c) Facebook (mu=2.77, sigma2=0.84, s), sigma1 in 2.00-2.25. Gains grow
// with the variability of the bottom stage, and Cedar tracks Ideal.
//
// The paper does not state the deadlines used; we pick, per trace, a
// deadline that puts the baseline in the same mid-quality regime the
// paper's improvement magnitudes imply.
Figure Fig16SigmaSweep() {
  auto panel = [](const std::string& title, MetaLogNormalWorkload (*make)(double, int, int),
                  const std::vector<double>& sigmas, double deadline) {
    Panel panel{
        .title = title, .policies = {PropSplit(), Cedar(), Ideal()}, .label_columns = {"sigma1"}};
    for (double sigma1 : sigmas) {
      panel.rows.push_back(
          {{TablePrinter::FormatDouble(sigma1, 2)}, Shared(make(sigma1, 50, 50)), deadline});
    }
    return panel;
  };
  return {"Figure 16: gains vs sigma of X1 for Bing/Google/Facebook distributions.", 100,
          {panel("Figure 16a: Bing-Bing (mu=5.9, sigma2=1.25, microseconds) (deadline 4000 us)",
                 MakeBingSigmaWorkload, {2.10, 2.15, 2.20, 2.25, 2.30, 2.35, 2.40}, 4000),
           panel("Figure 16b: Google-Google (mu=2.94, sigma2=0.55, milliseconds) (deadline 150 ms)",
                 MakeGoogleSigmaWorkload, {1.40, 1.45, 1.50, 1.55, 1.60, 1.65, 1.70}, 150),
           panel("Figure 16c: Facebook-Facebook (mu=2.77, sigma2=0.84, seconds) (deadline 250 s)",
                 MakeFacebookSigmaWorkload, {2.00, 2.05, 2.10, 2.15, 2.20, 2.25}, 250)}};
}

// Figure 17: Cedar with Gaussian stage distributions — Normal(40, 80) ms at
// the bottom, Normal(40, 10) ms on top, fanout 50x50. The paper reports
// improvements of ~11.8-13.7% across deadlines with high absolute quality
// (normal distributions are not heavy-tailed). Cedar's learner fits the
// normal family here, demonstrating distribution-type agnosticism (§5.7).
Figure Fig17Gaussian() {
  CedarPolicyOptions normal;
  normal.learner.family = DistributionFamily::kNormal;
  return {"Figure 17: Gaussian stage distributions.", 150,
          {{.title = "Figure 17: Normal(40, 80) bottom / Normal(40, 10) top, ms, fanout 50x50",
            .policies = {PropSplit(), Cedar(normal), Ideal()},
            .label_columns = {"deadline_ms"},
            .rows = DeadlineRows(Shared(GaussianWorkload(50, 50)),
                                 {120, 150, 180, 210, 240, 280, 320, 360})}}};
}

}  // namespace

Figure MakeFigure(const std::string& name) {
  static const std::map<std::string, Figure (*)()> kFigures = {
      {"fig06_ideal_gap", Fig06IdealGap},         {"fig07_quality", Fig07Quality},
      {"fig10_empirical", Fig10Empirical},        {"fig11_online_learning", Fig11OnlineLearning},
      {"fig12_fanout", Fig12Fanout},              {"fig13_multilevel", Fig13Multilevel},
      {"fig14_interactive", Fig14Interactive},    {"fig15_cosmos", Fig15Cosmos},
      {"fig16_sigma_sweep", Fig16SigmaSweep},     {"fig17_gaussian", Fig17Gaussian},
  };
  auto it = kFigures.find(name);
  CEDAR_CHECK(it != kFigures.end()) << "unknown figure '" << name << "'";
  return it->second();
}

}  // namespace cedar
