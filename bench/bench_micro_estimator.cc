// Microbenchmarks for the learning machinery: the exact order-statistic
// score table, the pairwise estimator, and the end-to-end
// per-arrival cost of an online learner update — the inner loop of every
// aggregator in a deployment.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "src/core/online_learner.h"
#include "src/stats/estimators.h"
#include "src/stats/order_statistics.h"
#include "src/stats/rng.h"

namespace cedar {
namespace {

std::vector<double> SortedSamples(int k, uint64_t seed) {
  LogNormalDistribution dist(2.77, 0.84);
  Rng rng(seed);
  std::vector<double> samples(static_cast<size_t>(k));
  for (auto& s : samples) {
    s = dist.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

void BM_ExactScoreTable(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  // The cost of filling one table, i.e. of the first Get(k); cached tables
  // are never freed, so this times the scores directly.
  for (auto _ : state) {
    for (int i = 1; i <= k; ++i) {
      benchmark::DoNotOptimize(ExactNormalScore(i, k));
    }
  }
  state.SetLabel("k=" + std::to_string(k) + " (cold)");
}
BENCHMARK(BM_ExactScoreTable)->Arg(20)->Arg(50)->Arg(100);

void BM_PairwiseEstimate(benchmark::State& state) {
  const int k = 50;
  int r = static_cast<int>(state.range(0));
  auto samples = SortedSamples(k, 7);
  samples.resize(static_cast<size_t>(r));
  NormalOrderScoreTable::Get(k);  // warm the cache
  for (auto _ : state) {
    auto estimate = FitSpecFromOrderStats(DistributionFamily::kLogNormal, samples, k);
    benchmark::DoNotOptimize(estimate);
  }
  state.SetLabel("r=" + std::to_string(r) + " of 50");
}
BENCHMARK(BM_PairwiseEstimate)->Arg(5)->Arg(10)->Arg(25)->Arg(50);

void BM_OnlineLearnerFullQuery(benchmark::State& state) {
  // Cost of feeding all 50 arrivals with a refit after each (Pseudocode 1's
  // per-arrival FitDistribution).
  const int k = 50;
  auto samples = SortedSamples(k, 11);
  NormalOrderScoreTable::Get(k);
  OnlineLearnerOptions options;
  options.min_samples = 2;
  for (auto _ : state) {
    OnlineLearner learner(k, options);
    for (double t : samples) {
      learner.Observe(t);
      benchmark::DoNotOptimize(learner.CurrentFit());
    }
  }
}
BENCHMARK(BM_OnlineLearnerFullQuery);

}  // namespace
}  // namespace cedar

BENCHMARK_MAIN();
