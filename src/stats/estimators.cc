#include "src/stats/estimators.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/stats/order_statistics.h"

namespace cedar {
namespace {

constexpr double kMinScale = 1e-9;

// A fitted location/scale pair. For log-normal these are (mu, sigma) of the
// log; for normal, (mean, sd); for exponential, (1/lambda, 1/lambda).
struct LocationScaleEstimate {
  double location = 0.0;
  double scale = 0.0;
};

bool IsSortedAscending(const std::vector<double>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) {
      return false;
    }
  }
  return true;
}

// ln t for each of |times|, or nullopt if some t <= 0 (log-normal support is
// (0, inf)).
std::optional<std::vector<double>> LogsOf(const std::vector<double>& times) {
  std::vector<double> logs;
  logs.reserve(times.size());
  for (double t : times) {
    if (t <= 0.0) {
      return std::nullopt;
    }
    logs.push_back(std::log(t));
  }
  return logs;
}

// Cedar's pairwise location-scale fit (§4.2.2) of the ascending |times|
// (their logs if |take_logs|) against the exact scores m_{i,k}.
std::optional<LocationScaleEstimate> PairwiseOrderStatsFit(const std::vector<double>& times,
                                                           int k, bool take_logs) {
  if (times.size() < 2 || static_cast<int>(times.size()) > k) {
    return std::nullopt;
  }
  CEDAR_CHECK(IsSortedAscending(times)) << "arrival times must be ascending";
  std::optional<std::vector<double>> logs;
  if (take_logs) {
    logs = LogsOf(times);
    if (!logs.has_value()) {
      return std::nullopt;
    }
  }
  const std::vector<double>& values = take_logs ? *logs : times;
  const std::vector<double>& scores = NormalOrderScoreTable::Get(k);

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
  return estimate;
}

// Exponential fit from the first r of k order statistics by normalized
// spacings (see FitSpecFromOrderStats).
std::optional<LocationScaleEstimate> SpacingsFit(const std::vector<double>& times, int k) {
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
  return LocationScaleEstimate{mean, mean};  // (1/lambda, 1/lambda)
}

// Sample mean and sd (n-1 denominator) of |values|.
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
  return estimate;
}

std::optional<DistributionSpec> ToSpec(DistributionFamily family,
                                       const std::optional<LocationScaleEstimate>& est) {
  // A non-finite fit is no fit: a NaN scale would pass the floor below
  // (std::max(NaN, kMinScale) is NaN) and reach the policies.
  if (!est.has_value() || !std::isfinite(est->location) || !std::isfinite(est->scale)) {
    return std::nullopt;
  }
  DistributionSpec spec;
  spec.family = family;
  if (family == DistributionFamily::kExponential) {
    if (est->location <= 0.0) {
      return std::nullopt;
    }
    spec.p1 = 1.0 / est->location;
    spec.p2 = 0.0;
  } else {
    spec.p1 = est->location;
    // A zero scale (identical observations) would make the distribution a
    // point mass the CDF machinery cannot represent; keep a tiny floor.
    spec.p2 = std::max(est->scale, kMinScale);
  }
  return spec;
}

[[noreturn]] void DieUnfittable(DistributionFamily family) {
  CEDAR_LOG(FATAL) << "no fit for distribution family " << DistributionFamilyName(family)
                   << " (want lognormal, normal or exponential)";
  __builtin_unreachable();
}

}  // namespace

std::optional<DistributionSpec> FitSpecFromOrderStats(DistributionFamily family,
                                                      const std::vector<double>& times, int k) {
  switch (family) {
    case DistributionFamily::kLogNormal:
    case DistributionFamily::kNormal:
      return ToSpec(family,
                    PairwiseOrderStatsFit(times, k, family == DistributionFamily::kLogNormal));
    case DistributionFamily::kExponential:
      return ToSpec(family, SpacingsFit(times, k));
    default:
      DieUnfittable(family);
  }
}

std::optional<DistributionSpec> FitSpecEmpirical(DistributionFamily family,
                                                 const std::vector<double>& times) {
  switch (family) {
    case DistributionFamily::kLogNormal: {
      auto logs = LogsOf(times);
      return logs.has_value() ? ToSpec(family, MomentsFit(*logs)) : std::nullopt;
    }
    case DistributionFamily::kNormal:
    case DistributionFamily::kExponential:
      return ToSpec(family, MomentsFit(times));
    default:
      DieUnfittable(family);
  }
}

}  // namespace cedar
