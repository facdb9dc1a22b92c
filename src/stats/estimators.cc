#include "src/stats/estimators.h"

#include <cmath>

#include "src/common/logging.h"

namespace cedar {
namespace {

// Shared pairwise location-scale fit against precomputed scores m_{i,k}.
// |values| are the (possibly log-transformed) observations.
std::optional<LocationScaleEstimate> PairwiseFit(const std::vector<double>& values,
                                                 const std::vector<double>& scores) {
  if (values.size() < 2) {
    return std::nullopt;
  }
  CEDAR_CHECK_LE(values.size(), scores.size());

  double location_sum = 0.0;
  double scale_sum = 0.0;
  int pairs = 0;
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    double dm = scores[i + 1] - scores[i];
    if (dm <= 0.0) {
      // Adjacent scores can coincide only through numeric degeneracy;
      // skip such pairs rather than dividing by ~0.
      continue;
    }
    double sigma_i = (values[i + 1] - values[i]) / dm;
    double mu_i = values[i] - sigma_i * scores[i];
    scale_sum += sigma_i;
    location_sum += mu_i;
    ++pairs;
  }
  if (pairs == 0) {
    return std::nullopt;
  }
  LocationScaleEstimate estimate;
  estimate.location = location_sum / pairs;
  // Ties in arrival times can drive individual sigma_i to 0; the average can
  // still be 0 if all observations are identical. Clamp to nonnegative.
  estimate.scale = std::max(0.0, scale_sum / pairs);
  estimate.pairs_used = pairs;
  return estimate;
}

bool IsSortedAscending(const std::vector<double>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<LocationScaleEstimate> EstimateLogNormalOrderStats(const std::vector<double>& times,
                                                                 int k, OrderScoreMethod method) {
  if (times.size() < 2 || static_cast<int>(times.size()) > k) {
    return std::nullopt;
  }
  CEDAR_CHECK(IsSortedAscending(times)) << "arrival times must be ascending";
  std::vector<double> logs;
  logs.reserve(times.size());
  for (double t : times) {
    if (t <= 0.0) {
      return std::nullopt;  // log-normal support is (0, inf)
    }
    logs.push_back(std::log(t));
  }
  return PairwiseFit(logs, NormalOrderScoreTable::Get(k, method));
}

std::optional<LocationScaleEstimate> EstimateNormalOrderStats(const std::vector<double>& times,
                                                              int k, OrderScoreMethod method) {
  if (times.size() < 2 || static_cast<int>(times.size()) > k) {
    return std::nullopt;
  }
  CEDAR_CHECK(IsSortedAscending(times)) << "arrival times must be ascending";
  return PairwiseFit(times, NormalOrderScoreTable::Get(k, method));
}

std::optional<LocationScaleEstimate> EstimateExponentialOrderStats(
    const std::vector<double>& times, int k) {
  if (times.empty() || static_cast<int>(times.size()) > k) {
    return std::nullopt;
  }
  CEDAR_CHECK(IsSortedAscending(times)) << "arrival times must be ascending";
  // Normalized spacings D_i = (k - i + 1)(t_(i) - t_(i-1)), t_(0) = 0, are
  // i.i.d. Exponential(lambda); the MLE from r of them is r / sum D_i.
  double total = 0.0;
  double prev = 0.0;
  int r = static_cast<int>(times.size());
  for (int i = 1; i <= r; ++i) {
    double spacing = times[static_cast<size_t>(i - 1)] - prev;
    if (spacing < 0.0) {
      return std::nullopt;
    }
    total += static_cast<double>(k - i + 1) * spacing;
    prev = times[static_cast<size_t>(i - 1)];
  }
  if (total <= 0.0) {
    return std::nullopt;
  }
  double mean = total / static_cast<double>(r);
  LocationScaleEstimate estimate;
  estimate.location = mean;  // 1/lambda
  estimate.scale = mean;
  estimate.pairs_used = r;
  return estimate;
}

namespace {

std::optional<LocationScaleEstimate> MomentsFit(const std::vector<double>& values) {
  if (values.size() < 2) {
    return std::nullopt;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  double mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) {
    ss += (v - mean) * (v - mean);
  }
  LocationScaleEstimate estimate;
  estimate.location = mean;
  estimate.scale = std::sqrt(ss / static_cast<double>(values.size() - 1));
  estimate.pairs_used = static_cast<int>(values.size());
  return estimate;
}

}  // namespace

std::optional<LocationScaleEstimate> EstimateLogNormalEmpirical(const std::vector<double>& times) {
  std::vector<double> logs;
  logs.reserve(times.size());
  for (double t : times) {
    if (t <= 0.0) {
      return std::nullopt;
    }
    logs.push_back(std::log(t));
  }
  return MomentsFit(logs);
}

std::optional<LocationScaleEstimate> EstimateNormalEmpirical(const std::vector<double>& times) {
  return MomentsFit(times);
}

namespace {

constexpr double kMinScale = 1e-9;

std::optional<DistributionSpec> ToSpec(DistributionFamily family,
                                       const std::optional<LocationScaleEstimate>& est) {
  // A non-finite fit is no fit: a NaN scale would pass the floor below
  // (std::max(NaN, kMinScale) is NaN) and reach the policies.
  if (!est.has_value() || !std::isfinite(est->location) || !std::isfinite(est->scale)) {
    return std::nullopt;
  }
  DistributionSpec spec;
  spec.family = family;
  switch (family) {
    case DistributionFamily::kExponential:
      if (est->location <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = 1.0 / est->location;
      spec.p2 = 0.0;
      break;
    default:
      spec.p1 = est->location;
      // A zero scale (identical observations) would make the distribution a
      // point mass the CDF machinery cannot represent; keep a tiny floor.
      spec.p2 = std::max(est->scale, kMinScale);
      break;
  }
  return spec;
}

}  // namespace

std::optional<DistributionSpec> FitSpecFromOrderStats(DistributionFamily family,
                                                      const std::vector<double>& times, int k,
                                                      OrderScoreMethod method) {
  switch (family) {
    case DistributionFamily::kNormal:
      return ToSpec(family, EstimateNormalOrderStats(times, k, method));
    case DistributionFamily::kExponential:
      return ToSpec(family, EstimateExponentialOrderStats(times, k));
    case DistributionFamily::kLogNormal:
    default:
      // The paper's traces all fit log-normal best (§4.2.1); unknown families
      // fall back to it.
      return ToSpec(DistributionFamily::kLogNormal,
                    EstimateLogNormalOrderStats(times, k, method));
  }
}

std::optional<DistributionSpec> FitSpecEmpirical(DistributionFamily family,
                                                 const std::vector<double>& times) {
  switch (family) {
    case DistributionFamily::kNormal:
      return ToSpec(family, EstimateNormalEmpirical(times));
    case DistributionFamily::kExponential: {
      auto est = EstimateNormalEmpirical(times);
      return ToSpec(DistributionFamily::kExponential, est);
    }
    case DistributionFamily::kLogNormal:
    default:
      return ToSpec(DistributionFamily::kLogNormal, EstimateLogNormalEmpirical(times));
  }
}

}  // namespace cedar
