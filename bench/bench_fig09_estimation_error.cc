// Figure 9: % error in the mu and sigma estimates of Facebook's
// distribution (log-normal mu=2.77, sigma=0.84) as a function of the number
// of completed processes (out of k=50), for Cedar's order-statistics
// estimator vs the plain empirical estimator. The paper reports Cedar's mu
// error dropping below 5% once ~10 processes completed, sigma error ~20%,
// and the empirical estimator staying heavily biased.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/stats/estimators.h"
#include "src/stats/rng.h"
#include "src/trace/calibration.h"

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("Figure 9: estimation error vs number of completed processes.");
  int64_t* trials = flags.AddInt("trials", 2000, "Monte-Carlo trials");
  int64_t* fanout = flags.AddInt("fanout", 50, "total processes k");
  int64_t* seed = flags.AddInt("seed", 42, "rng seed");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  const double mu = kFacebookMapMu;
  const double sigma = kFacebookMapSigma;
  const int k = static_cast<int>(*fanout);
  LogNormalDistribution truth(mu, sigma);

  PrintBanner(std::cout, "Figure 9: % error in mu and sigma estimates vs #completed "
                         "(lognormal(2.77, 0.84), k=50)");
  std::cout << "trials=" << *trials << "\n";

  TablePrinter table({"completed", "cedar_mu_err_%", "empirical_mu_err_%", "cedar_sigma_err_%",
                      "empirical_sigma_err_%"});

  std::vector<int> checkpoints;
  for (int r = 2; r <= k; r += (r < 10 ? 1 : (r < 20 ? 2 : 5))) {
    checkpoints.push_back(r);
  }
  if (checkpoints.back() != k) {
    checkpoints.push_back(k);
  }

  std::vector<double> cedar_mu_err(checkpoints.size(), 0.0);
  std::vector<double> cedar_sigma_err(checkpoints.size(), 0.0);
  std::vector<double> emp_mu_err(checkpoints.size(), 0.0);
  std::vector<double> emp_sigma_err(checkpoints.size(), 0.0);

  Rng rng(static_cast<uint64_t>(*seed));
  for (int t = 0; t < *trials; ++t) {
    std::vector<double> samples(static_cast<size_t>(k));
    for (auto& s : samples) {
      s = truth.Sample(rng);
    }
    std::sort(samples.begin(), samples.end());
    for (size_t c = 0; c < checkpoints.size(); ++c) {
      std::vector<double> prefix(samples.begin(), samples.begin() + checkpoints[c]);
      auto cedar = FitSpecFromOrderStats(DistributionFamily::kLogNormal, prefix, k);
      auto empirical = FitSpecEmpirical(DistributionFamily::kLogNormal, prefix);
      if (cedar.has_value()) {
        cedar_mu_err[c] += std::fabs(cedar->p1 - mu) / mu;
        cedar_sigma_err[c] += std::fabs(cedar->p2 - sigma) / sigma;
      }
      if (empirical.has_value()) {
        emp_mu_err[c] += std::fabs(empirical->p1 - mu) / mu;
        emp_sigma_err[c] += std::fabs(empirical->p2 - sigma) / sigma;
      }
    }
  }

  auto n = static_cast<double>(*trials);
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    table.AddNumericRow({static_cast<double>(checkpoints[c]), 100.0 * cedar_mu_err[c] / n,
                         100.0 * emp_mu_err[c] / n, 100.0 * cedar_sigma_err[c] / n,
                         100.0 * emp_sigma_err[c] / n},
                        1);
  }
  table.Print(std::cout);
  obs.Finish(std::cout);
  return 0;
}
