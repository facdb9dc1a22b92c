#include "src/trace/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/stats/mixture.h"
#include "src/trace/calibration.h"

namespace cedar {

MetaLogNormalWorkload::MetaLogNormalWorkload(std::string name, std::string unit,
                                             std::vector<MetaLogNormalStage> stages)
    : name_(std::move(name)), unit_(std::move(unit)), stages_(std::move(stages)) {
  CEDAR_CHECK_GE(stages_.size(), 2u);
  for (const auto& stage : stages_) {
    CEDAR_CHECK_GT(stage.sigma, 0.0);
    CEDAR_CHECK_GE(stage.fanout, 1);
  }
}

TreeSpec MetaLogNormalWorkload::OfflineTree() const {
  std::vector<StageSpec> specs;
  specs.reserve(stages_.size());
  for (const auto& stage : stages_) {
    double marginal_sigma =
        EffectiveMarginalSigma(stage.sigma, stage.mu_spread, stage.sigma_spread);
    double marginal_mu = stage.mu;
    if (stage.mu_tail_rate > 1.0) {
      // With the exponential tail the marginal has median ~ e^{mu + ln2/rate}
      // and mean e^{mu + spread^2/2} * rate/(rate-1) * e^{sigma_eff^2/2}
      // (MGF of the exponential at 1). Fit the offline log-normal by
      // matching those two moments — mean is what Proportional-split uses,
      // median anchors the shape.
      double rate = stage.mu_tail_rate;
      double log_mean = stage.mu + 0.5 * stage.mu_spread * stage.mu_spread +
                        std::log(rate / (rate - 1.0)) +
                        0.5 * marginal_sigma * marginal_sigma;
      marginal_mu = stage.mu + std::log(2.0) / rate;  // median of the marginal
      marginal_sigma = std::sqrt(std::max(0.01, 2.0 * (log_mean - marginal_mu)));
    }
    specs.emplace_back(std::make_shared<LogNormalDistribution>(marginal_mu, marginal_sigma),
                       stage.fanout);
  }
  return TreeSpec(std::move(specs));
}

QueryTruth MetaLogNormalWorkload::DrawQuery(Rng& rng) const {
  QueryTruth truth;
  truth.stage_durations.reserve(stages_.size());
  // This Gaussian's value is unused, but the draw stays: the stage draws
  // below start where it leaves the stream (Rng caches the spare
  // Box-Muller value), and every MetaLogNormalWorkload query, figure and
  // golden digest is pinned to that stream.
  (void)rng.NextGaussian();
  for (const auto& stage : stages_) {
    double mu_q = stage.mu + stage.mu_spread * rng.NextGaussian();
    if (stage.mu_tail_rate > 1.0) {
      mu_q += -std::log(rng.NextOpenDouble()) / stage.mu_tail_rate;
    }
    double sigma_q =
        std::max(stage.min_sigma, stage.sigma + stage.sigma_spread * rng.NextGaussian());
    truth.stage_durations.push_back(std::make_shared<LogNormalDistribution>(mu_q, sigma_q));
  }
  return truth;
}

MetaLogNormalWorkload MakeFacebookWorkload(int k1, int k2) {
  MetaLogNormalStage map_stage;
  map_stage.mu = kFacebookJobMapMu;
  map_stage.sigma = kFacebookMapSigma;
  map_stage.mu_spread = kFacebookMapMuSpread;
  map_stage.sigma_spread = kFacebookMapSigmaSpread;
  map_stage.mu_tail_rate = kFacebookMapTailRate;
  map_stage.fanout = k1;

  MetaLogNormalStage reduce_stage;
  reduce_stage.mu = kFacebookJobReduceMu;
  reduce_stage.sigma = kFacebookReduceSigma;
  reduce_stage.mu_spread = kFacebookReduceMuSpread;
  reduce_stage.sigma_spread = kFacebookReduceSigmaSpread;
  reduce_stage.fanout = k2;

  return MetaLogNormalWorkload("facebook-mr", "s", {map_stage, reduce_stage});
}

MetaLogNormalWorkload MakeFacebookThreeLevelWorkload(int k1, int k2, int k3) {
  MetaLogNormalWorkload two_level = MakeFacebookWorkload(k1, k2);
  auto stages = two_level.stages();
  MetaLogNormalStage top = stages[1];
  top.fanout = k3;
  stages.push_back(top);
  return MetaLogNormalWorkload("facebook-mr-3level", "s", std::move(stages));
}

MetaLogNormalWorkload MakeInteractiveWorkload(int k1, int k2) {
  // Facebook's map distribution "expressed in ms": same log-normal shape,
  // read in milliseconds, with the production job mix's right-skewed scale
  // spread (a softer tail than the Hadoop replay: interactive backends are
  // better provisioned). [chosen]
  MetaLogNormalStage bottom;
  bottom.mu = kFacebookMapMu;
  bottom.sigma = kFacebookMapSigma;
  bottom.mu_spread = 0.50;
  bottom.sigma_spread = 0.10;
  bottom.mu_tail_rate = 1.20;
  bottom.fanout = k1;

  // Google's distribution, already in ms; upper stages show little
  // variation across queries (§4.1).
  MetaLogNormalStage top;
  top.mu = kGoogleMu;
  top.sigma = kGoogleSigma;
  top.mu_spread = 0.05;
  top.sigma_spread = 0.02;
  top.fanout = k2;

  return MetaLogNormalWorkload("interactive-fb+google", "ms", {bottom, top});
}

StationaryWorkload MakeCosmosWorkload(int k1, int k2) {
  TreeSpec tree = TreeSpec::TwoLevel(
      std::make_shared<LogNormalDistribution>(kCosmosExtractMu, kCosmosExtractSigma), k1,
      std::make_shared<LogNormalDistribution>(kCosmosFullAggMu, kCosmosFullAggSigma), k2);
  return StationaryWorkload("cosmos", "s", std::move(tree));
}

namespace {

MetaLogNormalWorkload MakeSigmaSweepWorkload(const std::string& name, const std::string& unit,
                                             double mu, double sigma2, double sigma1, int k1,
                                             int k2) {
  // X1 shares the trace's mu but uses the swept sigma1; X2 is the trace's
  // published fit. Mild per-query mu jitter keeps online learning relevant
  // without dominating the sweep. [chosen]
  MetaLogNormalStage bottom;
  bottom.mu = mu;
  bottom.sigma = sigma1;
  bottom.mu_spread = 0.30;
  bottom.sigma_spread = 0.05;
  bottom.fanout = k1;

  MetaLogNormalStage top;
  top.mu = mu;
  top.sigma = sigma2;
  top.mu_spread = 0.05;
  top.sigma_spread = 0.02;
  top.fanout = k2;

  return MetaLogNormalWorkload(name, unit, {bottom, top});
}

}  // namespace

MetaLogNormalWorkload MakeBingSigmaWorkload(double sigma1, int k1, int k2) {
  return MakeSigmaSweepWorkload("bing-bing", "us", kBingMu, kBingSigma, sigma1, k1, k2);
}

MetaLogNormalWorkload MakeGoogleSigmaWorkload(double sigma1, int k1, int k2) {
  return MakeSigmaSweepWorkload("google-google", "ms", kGoogleMu, kGoogleSigma, sigma1, k1, k2);
}

MetaLogNormalWorkload MakeFacebookSigmaWorkload(double sigma1, int k1, int k2) {
  return MakeSigmaSweepWorkload("facebook-facebook", "s", kFacebookMapMu, kFacebookMapSigma,
                                sigma1, k1, k2);
}

GaussianWorkload::GaussianWorkload(int k1, int k2, double mean_spread)
    : k1_(k1), k2_(k2), mean_spread_(mean_spread) {
  CEDAR_CHECK_GE(k1, 1);
  CEDAR_CHECK_GE(k2, 1);
}

TreeSpec GaussianWorkload::OfflineTree() const {
  // The marginal of Normal(mean_q, sd) with mean_q ~ N(m, s^2) is
  // Normal(m, sqrt(sd^2 + s^2)).
  double bottom_sd = std::sqrt(kGaussianBottomSd * kGaussianBottomSd +
                               mean_spread_ * mean_spread_);
  return TreeSpec::TwoLevel(std::make_shared<NormalDistribution>(kGaussianMeanMs, bottom_sd),
                            k1_,
                            std::make_shared<NormalDistribution>(kGaussianMeanMs, kGaussianTopSd),
                            k2_);
}

QueryTruth GaussianWorkload::DrawQuery(Rng& rng) const {
  QueryTruth truth;
  double mean_q = kGaussianMeanMs + mean_spread_ * rng.NextGaussian();
  // Keep the per-query mean physically sensible (> 0).
  mean_q = std::max(1.0, mean_q);
  truth.stage_durations.push_back(
      std::make_shared<NormalDistribution>(mean_q, kGaussianBottomSd));
  truth.stage_durations.push_back(
      std::make_shared<NormalDistribution>(kGaussianMeanMs, kGaussianTopSd));
  return truth;
}

StragglerWorkload::StragglerWorkload(Options options) : options_(options) {
  CEDAR_CHECK(options_.straggler_fraction > 0.0 && options_.straggler_fraction < 1.0);
  CEDAR_CHECK_GT(options_.straggler_slowdown, 1.0);
}

TreeSpec StragglerWorkload::OfflineTree() const {
  // The offline view is the marginal mixture at the across-query center:
  // what a global fit over history would approximately capture.
  auto body = std::make_shared<LogNormalDistribution>(
      options_.body_mu,
      EffectiveMarginalSigma(options_.body_sigma, options_.mu_spread, 0.0));
  auto straggler = std::make_shared<LogNormalDistribution>(
      options_.body_mu + std::log(options_.straggler_slowdown),
      EffectiveMarginalSigma(options_.straggler_sigma, options_.mu_spread, 0.0));
  auto bottom = std::make_shared<MixtureDistribution>(MixtureDistribution::WithStragglerMode(
      std::move(body), std::move(straggler), options_.straggler_fraction));
  auto upper = std::make_shared<LogNormalDistribution>(
      options_.upper_mu,
      EffectiveMarginalSigma(options_.upper_sigma, options_.upper_mu_spread, 0.0));
  return TreeSpec::TwoLevel(std::move(bottom), options_.k1, std::move(upper), options_.k2);
}

QueryTruth StragglerWorkload::DrawQuery(Rng& rng) const {
  double mu_q = options_.body_mu + options_.mu_spread * rng.NextGaussian();
  auto body = std::make_shared<LogNormalDistribution>(mu_q, options_.body_sigma);
  auto straggler = std::make_shared<LogNormalDistribution>(
      mu_q + std::log(options_.straggler_slowdown), options_.straggler_sigma);
  auto bottom = std::make_shared<MixtureDistribution>(MixtureDistribution::WithStragglerMode(
      std::move(body), std::move(straggler), options_.straggler_fraction));
  double upper_mu_q = options_.upper_mu + options_.upper_mu_spread * rng.NextGaussian();
  QueryTruth truth;
  truth.stage_durations.push_back(std::move(bottom));
  truth.stage_durations.push_back(
      std::make_shared<LogNormalDistribution>(upper_mu_q, options_.upper_sigma));
  return truth;
}

MismatchedOfflineWorkload::MismatchedOfflineWorkload(std::shared_ptr<const Workload> actual,
                                                     TreeSpec stale_offline_tree)
    : actual_(std::move(actual)), stale_tree_(std::move(stale_offline_tree)) {
  CEDAR_CHECK(actual_ != nullptr);
}

std::vector<std::string> KnownWorkloadNames() {
  return {"facebook",  "facebook-3level",  "interactive",
          "cosmos",    "gaussian",         "straggler",
          "bing-sigma:<s1>", "google-sigma:<s1>", "facebook-sigma:<s1>"};
}

std::unique_ptr<Workload> MakeWorkloadByName(const std::string& name, int k1, int k2) {
  if (name == "facebook") {
    return std::make_unique<MetaLogNormalWorkload>(MakeFacebookWorkload(k1, k2));
  }
  if (name == "facebook-3level") {
    return std::make_unique<MetaLogNormalWorkload>(MakeFacebookThreeLevelWorkload(k1, k2, k2));
  }
  if (name == "interactive") {
    return std::make_unique<MetaLogNormalWorkload>(MakeInteractiveWorkload(k1, k2));
  }
  if (name == "cosmos") {
    return std::make_unique<StationaryWorkload>(MakeCosmosWorkload(k1, k2));
  }
  if (name == "gaussian") {
    return std::make_unique<GaussianWorkload>(k1, k2);
  }
  if (name == "straggler") {
    StragglerWorkload::Options options;
    options.k1 = k1;
    options.k2 = k2;
    return std::make_unique<StragglerWorkload>(options);
  }
  auto parse_param = [&](const char* prefix) -> double {
    const double sigma1 =
        ParseDouble(name.substr(std::string(prefix).size()), "sigma parameter in " + name);
    CEDAR_CHECK(sigma1 > 0.0) << "bad sigma parameter in " << name;
    return sigma1;
  };
  if (name.rfind("bing-sigma:", 0) == 0) {
    return std::make_unique<MetaLogNormalWorkload>(
        MakeBingSigmaWorkload(parse_param("bing-sigma:"), k1, k2));
  }
  if (name.rfind("google-sigma:", 0) == 0) {
    return std::make_unique<MetaLogNormalWorkload>(
        MakeGoogleSigmaWorkload(parse_param("google-sigma:"), k1, k2));
  }
  if (name.rfind("facebook-sigma:", 0) == 0) {
    return std::make_unique<MetaLogNormalWorkload>(
        MakeFacebookSigmaWorkload(parse_param("facebook-sigma:"), k1, k2));
  }
  std::string known;
  for (const auto& known_name : KnownWorkloadNames()) {
    known += " " + known_name;
  }
  CEDAR_LOG(FATAL) << "unknown workload '" << name << "'; known:" << known;
  __builtin_unreachable();
}

}  // namespace cedar
