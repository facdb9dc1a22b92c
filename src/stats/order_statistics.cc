#include "src/stats/order_statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/stats/normal_math.h"
#include "src/stats/rng.h"

namespace cedar {
namespace {

// Blom's approximation Phi^{-1}((i - 0.375) / (k + 0.25)) of the expected
// i-th standard-normal order statistic out of k (within ~1% of exact):
// ExactNormalScore centres its integration window on it.
double BlomNormalScore(int i, int k) {
  constexpr double kAlpha = 0.375;
  double p = (static_cast<double>(i) - kAlpha) / (static_cast<double>(k) + 1.0 - 2.0 * kAlpha);
  return NormalQuantile(p);
}

std::mutex g_table_mutex;
std::map<int, std::unique_ptr<std::vector<double>>>& TableCache() {
  // Intentionally leaked process-lifetime cache (see g_table_mutex).
  static auto* cache = new std::map<int, std::unique_ptr<std::vector<double>>>();
  return *cache;
}

}  // namespace

double ExactNormalScore(int i, int k) {
  CEDAR_CHECK(i >= 1 && i <= k) << "order statistic index " << i << " out of range for k=" << k;
  // Symmetry: E[Z_(i);k] = -E[Z_(k+1-i);k]; the median of an odd sample is 0.
  if (2 * i - 1 == k) {
    return 0.0;
  }
  if (2 * i > k + 1) {
    return -ExactNormalScore(k + 1 - i, k);
  }

  double log_coeff = std::log(static_cast<double>(k)) + LogBinomial(k - 1, i - 1);
  auto integrand = [&](double z) {
    double cdf = NormalCdf(z);
    if (cdf <= 0.0 || cdf >= 1.0) {
      return 0.0;
    }
    double log_term = (i - 1) * std::log(cdf) + (k - i) * std::log1p(-cdf);
    double density = std::exp(log_coeff + log_term) * NormalPdf(z);
    return z * density;
  };

  // The order-statistic density is a narrow peak; blind adaptive quadrature
  // over a wide interval can sample only zeros and return 0. Integrate with
  // composite Simpson over the peak's effective support instead: the peak
  // sits near the Blom score and its standard deviation is approximately
  // sqrt(p(1-p)/(k+2)) / phi(peak) (delta method on the Beta(i, k-i+1)
  // fraction).
  double peak = BlomNormalScore(i, k);
  double p = static_cast<double>(i) / static_cast<double>(k + 1);
  double sd = std::sqrt(p * (1.0 - p) / static_cast<double>(k + 2)) / NormalPdf(peak);
  double lo = std::max(-9.0, peak - 14.0 * sd);
  double hi = std::min(9.0, peak + 14.0 * sd);
  constexpr int kIntervals = 4096;  // even; ~1e-10 accurate for smooth peaks
  double h = (hi - lo) / kIntervals;
  double sum = integrand(lo) + integrand(hi);
  for (int j = 1; j < kIntervals; ++j) {
    sum += integrand(lo + h * j) * ((j % 2 == 1) ? 4.0 : 2.0);
  }
  return sum * h / 3.0;
}

const std::vector<double>& NormalOrderScoreTable::Get(int k) {
  CEDAR_CHECK_GE(k, 1);
  {
    std::lock_guard<std::mutex> lock(g_table_mutex);
    auto it = TableCache().find(k);
    if (it != TableCache().end()) {
      return *it->second;
    }
  }
  // Compute outside the lock (exact integration for large k takes a moment);
  // a racing duplicate computation is harmless, first insert wins.
  auto table = std::make_unique<std::vector<double>>();
  table->reserve(static_cast<size_t>(k));
  for (int i = 1; i <= k; ++i) {
    table->push_back(ExactNormalScore(i, k));
  }
  std::lock_guard<std::mutex> lock(g_table_mutex);
  auto [it, inserted] = TableCache().emplace(k, std::move(table));
  return *it->second;
}

std::vector<double> MonteCarloNormalScores(int k, int trials, uint64_t seed) {
  CEDAR_CHECK_GE(k, 1);
  CEDAR_CHECK_GE(trials, 1);
  Rng rng(seed);
  std::vector<double> sums(static_cast<size_t>(k), 0.0);
  std::vector<double> draw(static_cast<size_t>(k));
  for (int t = 0; t < trials; ++t) {
    for (auto& v : draw) {
      v = rng.NextGaussian();
    }
    std::sort(draw.begin(), draw.end());
    for (int i = 0; i < k; ++i) {
      sums[static_cast<size_t>(i)] += draw[static_cast<size_t>(i)];
    }
  }
  for (auto& s : sums) {
    s /= static_cast<double>(trials);
  }
  return sums;
}

}  // namespace cedar
