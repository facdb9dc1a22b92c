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

OrderStatsAccumulator::OrderStatsAccumulator(DistributionFamily family, int k)
    : family_(family), k_(k) {
  switch (family) {
    case DistributionFamily::kLogNormal:
    case DistributionFamily::kNormal:
      scores_ = &NormalOrderScoreTable::Get(k);  // checks k >= 1
      break;
    case DistributionFamily::kExponential:
      CEDAR_CHECK_GE(k, 1);
      break;
    default:
      DieUnfittable(family);
  }
}

void OrderStatsAccumulator::Add(double t) {
  CEDAR_CHECK_LT(count_, k_) << "more than k arrivals";
  CEDAR_CHECK(count_ == 0 || !(t < last_time_)) << "arrival times must be ascending";
  const int i = ++count_;  // t is t_(i), 1-based
  const double prev_time = last_time_;
  last_time_ = t;
  if (family_ == DistributionFamily::kExponential) {
    // Normalized spacings D_i = (k - i + 1)(t_(i) - t_(i-1)), t_(0) = 0, are
    // i.i.d. Exponential(lambda); the MLE from r of them is r / sum D_i.
    const double spacing = t - prev_time;
    invalid_ = invalid_ || spacing < 0.0;
    spacing_total_ += static_cast<double>(k_ - i + 1) * spacing;
    return;
  }
  // Log-normal support is (0, inf).
  invalid_ = invalid_ || (family_ == DistributionFamily::kLogNormal && t <= 0.0);
  if (invalid_) {
    return;
  }
  // Cedar's pairwise location-scale fit (§4.2.2): solve
  // v = mu + sigma * m_{j,k} at j = i - 1 and j = i for the newest pair.
  const double value = family_ == DistributionFamily::kLogNormal ? std::log(t) : t;
  if (i >= 2) {
    const std::vector<double>& scores = *scores_;
    const double dm = scores[static_cast<size_t>(i - 1)] - scores[static_cast<size_t>(i - 2)];
    // Adjacent scores can coincide only through numeric degeneracy; skip
    // such pairs rather than dividing by ~0.
    if (dm > 0.0) {
      const double sigma_i = (value - last_value_) / dm;
      const double mu_i = last_value_ - sigma_i * scores[static_cast<size_t>(i - 2)];
      scale_sum_ += sigma_i;
      location_sum_ += mu_i;
      ++pairs_;
    }
  }
  last_value_ = value;
}

std::optional<DistributionSpec> OrderStatsAccumulator::Fit() const {
  if (invalid_) {
    return std::nullopt;
  }
  if (family_ == DistributionFamily::kExponential) {
    if (spacing_total_ <= 0.0) {
      return std::nullopt;
    }
    const double mean = spacing_total_ / static_cast<double>(count_);
    return ToSpec(family_, LocationScaleEstimate{mean, mean});  // (1/lambda, 1/lambda)
  }
  if (pairs_ == 0) {
    return std::nullopt;
  }
  LocationScaleEstimate estimate;
  estimate.location = location_sum_ / pairs_;
  // Ties in arrival times can drive individual sigma_i to 0; the average can
  // still be 0 if all observations are identical. Clamp to nonnegative.
  estimate.scale = std::max(0.0, scale_sum_ / pairs_);
  return ToSpec(family_, estimate);
}

std::optional<DistributionSpec> FitSpecFromOrderStats(DistributionFamily family,
                                                      const std::vector<double>& times, int k) {
  OrderStatsAccumulator fit(family, k);
  if (times.size() > static_cast<size_t>(k)) {
    return std::nullopt;
  }
  for (double t : times) {
    fit.Add(t);
  }
  return fit.Fit();
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
